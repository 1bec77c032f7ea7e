package sim_test

// Property tests for the engine's determinism contract: for a fixed seed,
// Config.Shards must be unobservable — identical Metrics, Outputs and
// round counts, bit for bit. The sharded phases rely on single-writer
// ownership of shard state; run this file under -race to have the race
// detector audit that ownership (the CI workflow does).

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// chatterNode drives every engine path with seed-derived randomness: unicast
// to random neighbors, occasional broadcasts, oversized payloads that
// trickle across rounds, random sleeping, and triangle outputs derived from
// received words.
type chatterNode struct {
	rounds int
}

func (c *chatterNode) Init(ctx *sim.Context) {
	if len(ctx.CommNeighbors()) > 0 {
		ctx.Send(0, sim.Word(ctx.ID()))
	}
}

func (c *chatterNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	rng := ctx.RNG()
	for _, d := range inbox {
		for _, w := range d.Words {
			ctx.Output(graph.NewTriangle(ctx.ID(), d.From+ctx.N(), int(w)+2*ctx.N()))
		}
	}
	if round >= c.rounds {
		ctx.SetDone()
		return
	}
	nbrs := ctx.CommNeighbors()
	if len(nbrs) == 0 {
		ctx.SetDone()
		return
	}
	switch rng.Intn(4) {
	case 0:
		// Oversized unicast: trickles across several rounds.
		words := make([]sim.Word, 1+rng.Intn(7))
		for i := range words {
			words[i] = sim.Word(rng.Intn(ctx.N()))
		}
		ctx.Send(rng.Intn(len(nbrs)), words...)
	case 1:
		ctx.Broadcast(sim.Word(round), sim.Word(ctx.ID()))
	case 2:
		ctx.SleepUntil(round + 1 + rng.Intn(3))
	default:
		ctx.Send(rng.Intn(len(nbrs)), sim.Word(rng.Intn(ctx.N())))
	}
}

func runChatter(t *testing.T, g *graph.Graph, cfg sim.Config, rounds int) (sim.Metrics, [][]graph.Triangle, int) {
	t.Helper()
	nodes := make([]sim.Node, g.N())
	for v := range nodes {
		nodes[v] = &chatterNode{rounds: rounds}
	}
	eng, err := sim.NewEngine(g, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return eng.Metrics(), eng.Outputs(), eng.Round()
}

// TestParallelMatchesSequential is the determinism property test: across
// random graph families, sizes and seeds, a sharded run must be
// indistinguishable from the sequential single-shard one.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(56)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.Gnp(n, 0.15, rng)
		case 1:
			g = graph.BarabasiAlbert(n, 3, rng)
		default:
			g = graph.RingWithChords(n, n/2, rng)
		}
		for _, mode := range []sim.Mode{sim.ModeCONGEST, sim.ModeClique} {
			seed := rng.Int63()
			seqCfg := sim.Config{Mode: mode, Seed: seed, BandwidthWords: 1 + rng.Intn(3)}
			parCfg := seqCfg
			parCfg.Shards = 4
			rounds := 10 + rng.Intn(30)
			sm, so, sr := runChatter(t, g, seqCfg, rounds)
			pm, po, pr := runChatter(t, g, parCfg, rounds)
			if sr != pr {
				t.Fatalf("trial %d mode %d: rounds %d (seq) != %d (par)", trial, mode, sr, pr)
			}
			if !reflect.DeepEqual(sm, pm) {
				t.Fatalf("trial %d mode %d: metrics diverge:\nseq %+v\npar %+v", trial, mode, sm, pm)
			}
			if !reflect.DeepEqual(so, po) {
				t.Fatalf("trial %d mode %d: outputs diverge", trial, mode)
			}
		}
	}
}

// TestWorkerCountsBitIdentical pins placement independence: for every
// graph family and every shard count — including counts above the
// machine's core count — the run is bit-identical to the sequential spine.
// Shard boundaries depend on degree weights, so this is the test that
// would catch any observable state leaking into a shard-shape-dependent
// order. Run under -race (CI does) to audit the single-writer ownership
// the phases rely on.
func TestWorkerCountsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	families := []struct {
		name string
		mk   func(n int) *graph.Graph
	}{
		{"gnp", func(n int) *graph.Graph { return graph.Gnp(n, 0.15, rng) }},
		{"powerlaw", func(n int) *graph.Graph { return graph.BarabasiAlbert(n, 3, rng) }},
		{"ring", func(n int) *graph.Graph { return graph.RingWithChords(n, n/2, rng) }},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				n := 16 + rng.Intn(48)
				g := fam.mk(n)
				seed := rng.Int63()
				rounds := 12 + rng.Intn(20)
				seqCfg := sim.Config{Seed: seed, BandwidthWords: 1 + rng.Intn(3)}
				sm, so, sr := runChatter(t, g, seqCfg, rounds)
				for _, shards := range []int{1, 2, 4, 7} {
					parCfg := seqCfg
					parCfg.Shards = shards
					pm, po, pr := runChatter(t, g, parCfg, rounds)
					if sr != pr {
						t.Fatalf("trial %d shards %d: rounds %d (seq) != %d (sharded)", trial, shards, sr, pr)
					}
					if !reflect.DeepEqual(sm, pm) {
						t.Fatalf("trial %d shards %d: metrics diverge:\nseq     %+v\nsharded %+v", trial, shards, sm, pm)
					}
					if !reflect.DeepEqual(so, po) {
						t.Fatalf("trial %d shards %d: outputs diverge", trial, shards)
					}
				}
			}
		})
	}
}

// TestParallelMatchesSequentialBroadcast covers the broadcast-CONGEST path,
// whose delivery stays on the sharded engine's sequential spine but whose
// node phases still run shard by shard.
func TestParallelMatchesSequentialBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(40)
		g := graph.Gnp(n, 0.2, rng)
		seed := rng.Int63()
		seqCfg := sim.Config{Mode: sim.ModeBroadcast, Seed: seed}
		parCfg := seqCfg
		parCfg.Shards = 4
		sm, so, sr := runBcast(t, g, seqCfg)
		pm, po, pr := runBcast(t, g, parCfg)
		if sr != pr || !reflect.DeepEqual(sm, pm) || !reflect.DeepEqual(so, po) {
			t.Fatalf("trial %d: broadcast sharded run diverges from sequential", trial)
		}
	}
}

type bcastChatter struct{}

func (bcastChatter) Init(ctx *sim.Context) {}

func (bcastChatter) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	for _, d := range inbox {
		for _, w := range d.Words {
			ctx.Output(graph.NewTriangle(ctx.ID(), d.From+ctx.N(), int(w)+2*ctx.N()))
		}
	}
	if round >= 8 {
		ctx.SetDone()
		return
	}
	if ctx.RNG().Intn(2) == 0 {
		ctx.Broadcast(sim.Word(ctx.ID()), sim.Word(round))
	}
}

func runBcast(t *testing.T, g *graph.Graph, cfg sim.Config) (sim.Metrics, [][]graph.Triangle, int) {
	t.Helper()
	nodes := make([]sim.Node, g.N())
	for v := range nodes {
		nodes[v] = bcastChatter{}
	}
	eng, err := sim.NewEngine(g, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return eng.Metrics(), eng.Outputs(), eng.Round()
}

// TestResetMatchesFresh checks the epoch-based Reset: an engine abandoned
// mid-run (live channels, sleeping nodes, partial metrics) and reset must be
// indistinguishable from a freshly constructed engine with the same seed.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(40)
		g := graph.Gnp(n, 0.2, rng)
		seedA, seedB := rng.Int63(), rng.Int63()
		cfg := sim.Config{Seed: seedA, Shards: 4 * (trial % 2)}
		mkNodes := func() []sim.Node {
			nodes := make([]sim.Node, g.N())
			for v := range nodes {
				nodes[v] = &chatterNode{rounds: 12}
			}
			return nodes
		}
		eng, err := sim.NewEngine(g, mkNodes(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(5) // abandon mid-run with words still in flight
		if err := eng.Reset(mkNodes(), seedB); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		freshCfg := cfg
		freshCfg.Seed = seedB
		fresh, err := sim.NewEngine(g, mkNodes(), freshCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		if eng.Round() != fresh.Round() {
			t.Fatalf("trial %d: rounds %d (reset) != %d (fresh)", trial, eng.Round(), fresh.Round())
		}
		if !reflect.DeepEqual(eng.Metrics(), fresh.Metrics()) {
			t.Fatalf("trial %d: metrics diverge after reset", trial)
		}
		if !reflect.DeepEqual(eng.Outputs(), fresh.Outputs()) {
			t.Fatalf("trial %d: outputs diverge after reset", trial)
		}
	}
}
