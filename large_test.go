package repro

// The million-node acceptance test (ROADMAP item: "million-node runs"):
// generate a sparse G(10^6, p) graph through the generator's geometric-skip
// fast path, round-trip it through the binary CSR container, load it back
// via mmap, and run a short sharded job whose observables are
// bit-identical to the single-shard run. This is the one test that
// exercises the whole large-graph pipeline end to end at full scale;
// everything it checks is also pinned at small sizes by the per-package
// equivalence tests, so it skips under -short and -race where its size
// would dominate the suite's budget.

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

const (
	millionN      = 1_000_000
	millionDegree = 8
)

// millionBeacon drives the scale run: every strideth node broadcasts one
// word per round AND unicasts one to each neighbor — both delivery paths
// (the spine's broadcast fan-out and the sharded per-channel queues, in
// that inbox order) are live at full scale. Everyone else sleeps until a
// delivery wakes it.
type millionBeacon struct{ beacon bool }

func (b millionBeacon) Init(ctx *sim.Context) {
	if !b.beacon {
		ctx.SleepUntil(math.MaxInt32)
	}
}

func (b millionBeacon) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	if b.beacon {
		ctx.Broadcast(sim.Word(ctx.ID()))
		for i := 0; i < ctx.CommDegree(); i++ {
			ctx.Send(i, sim.Word(round))
		}
		return
	}
	ctx.SleepUntil(math.MaxInt32)
}

func TestMillionNodePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node pipeline skipped in -short")
	}
	if raceEnabled {
		t.Skip("million-node pipeline skipped under -race")
	}

	rng := rand.New(rand.NewSource(99))
	g := graph.Gnp(millionN, float64(millionDegree)/float64(millionN-1), rng)
	if g.N() != millionN || g.M() < millionN {
		t.Fatalf("generated n=%d m=%d, want a sparse million-node graph", g.N(), g.M())
	}

	// Round-trip through the binary container and load it back, mmap'd
	// where the platform supports it.
	path := filepath.Join(t.TempDir(), "million.csrbin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	werr := graph.WriteCSRBinary(f, g)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		t.Fatal(werr)
	}
	cf, err := graph.OpenCSRBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	lg := cf.Graph()
	lo, lt := lg.CSR()
	go_, gt := g.CSR()
	if lg.N() != g.N() || lg.M() != g.M() || !slices.Equal(lo, go_) || !slices.Equal(lt, gt) {
		t.Fatal("csrbin round trip changed the million-node graph")
	}

	// A short sharded run over the mapped graph must be
	// bit-identical to the single-shard run over the original.
	const rounds = 8
	run := func(g *graph.Graph, cfg sim.Config) (sim.Metrics, int) {
		nodes := make([]sim.Node, g.N())
		for v := range nodes {
			nodes[v] = millionBeacon{beacon: v%1000 == 0}
		}
		eng, err := sim.NewEngine(g, nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(rounds)
		return eng.Metrics(), eng.Round()
	}
	wantM, wantRound := run(g, sim.Config{Seed: 7})
	gotM, gotRound := run(lg, sim.Config{Seed: 7, Shards: 4})
	if gotRound != wantRound {
		t.Fatalf("rounds %d vs %d", gotRound, wantRound)
	}
	if wantM.WordsDelivered == 0 {
		t.Fatal("workload moved no words; the scale run proved nothing")
	}
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("sharded metrics diverge at n=10^6\nsharded: rounds=%d words=%d msgs=%d\nsingle:  rounds=%d words=%d msgs=%d",
			gotM.Rounds, gotM.WordsDelivered, gotM.MessagesDelivered,
			wantM.Rounds, wantM.WordsDelivered, wantM.MessagesDelivered)
	}
}
