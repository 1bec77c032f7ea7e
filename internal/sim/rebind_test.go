package sim_test

// Rebind contract: an engine re-pointed at a new input snapshot (the
// dynamic-graph churn path) must behave bit-identically to a freshly built
// engine on that snapshot, and core.EngineCache, which rebinds pooled
// engines across graphs, must hand back recycled engines, not new
// allocations.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/sim"
)

// churnSnapshots produces a chain of immutable epoch snapshots of one
// dynamic graph under flip churn.
func churnSnapshots(t *testing.T, n, m0, batch, count int, seed int64) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dynamic.FromGraph(graph.Gnm(n, m0, rng))
	w := dynamic.NewRandomFlip(batch)
	snaps := make([]*graph.Graph, 0, count)
	for len(snaps) < count {
		g, _ := d.Snapshot()
		snaps = append(snaps, g)
		if err := d.Apply(w.Next(d, rng)); err != nil {
			t.Fatal(err)
		}
	}
	return snaps
}

// bcastChurnNode is a broadcast-legal chatter node (unicast sends panic in
// ModeBroadcast): seed-derived broadcasts, sleeps, and outputs from inbox.
type bcastChurnNode struct {
	rounds int
}

func (b *bcastChurnNode) Init(ctx *sim.Context) {
	ctx.Broadcast(sim.Word(ctx.ID()))
}

func (b *bcastChurnNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	rng := ctx.RNG()
	for _, d := range inbox {
		for _, w := range d.Words {
			ctx.Output(graph.NewTriangle(ctx.ID(), d.From+ctx.N(), int(w)+2*ctx.N()))
		}
	}
	if round >= b.rounds {
		ctx.SetDone()
		return
	}
	switch rng.Intn(3) {
	case 0:
		ctx.Broadcast(sim.Word(round), sim.Word(ctx.ID()))
	case 1:
		ctx.SleepUntil(round + 1 + rng.Intn(3))
	default:
		ctx.Broadcast(sim.Word(rng.Intn(ctx.N())))
	}
}

// rebindNodes builds a node set legal for the given mode.
func rebindNodes(mode sim.Mode, n, rounds int) []sim.Node {
	if mode != sim.ModeBroadcast {
		return poolNodes(n, rounds)
	}
	nodes := make([]sim.Node, n)
	for v := range nodes {
		nodes[v] = &bcastChurnNode{rounds: rounds}
	}
	return nodes
}

func TestRebindMatchesFreshEngine(t *testing.T) {
	snaps := churnSnapshots(t, 28, 110, 45, 4, 23)
	for _, mode := range []sim.Mode{sim.ModeCONGEST, sim.ModeClique, sim.ModeBroadcast} {
		cfg := sim.Config{Mode: mode, Seed: 5, BandwidthWords: 2}
		// The rebound engine starts life on snapshot 0, then follows the
		// churn chain; at every epoch it must match a fresh engine.
		eng, err := sim.NewEngine(snaps[0], rebindNodes(mode, snaps[0].N(), 8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ep, g := range snaps {
			seed := int64(100 + ep)
			if ep > 0 {
				if err := eng.Rebind(g, rebindNodes(mode, g.N(), 8), seed); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := eng.Reset(rebindNodes(mode, g.N(), 8), seed); err != nil {
					t.Fatal(err)
				}
			}
			if eng.Input() != g {
				t.Fatalf("epoch %d: engine input not rebound", ep)
			}
			if err := eng.RunUntilQuiescent(); err != nil {
				t.Fatal(err)
			}
			fresh, err := sim.NewEngine(g, rebindNodes(mode, g.N(), 8), sim.Config{Mode: mode, Seed: seed, BandwidthWords: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RunUntilQuiescent(); err != nil {
				t.Fatal(err)
			}
			if eng.Round() != fresh.Round() {
				t.Fatalf("mode %d epoch %d: rounds %d (rebound) != %d (fresh)", mode, ep, eng.Round(), fresh.Round())
			}
			if !reflect.DeepEqual(eng.Metrics(), fresh.Metrics()) {
				t.Fatalf("mode %d epoch %d: metrics diverge:\nrebound %+v\nfresh   %+v", mode, ep, eng.Metrics(), fresh.Metrics())
			}
			if !reflect.DeepEqual(eng.Outputs(), fresh.Outputs()) {
				t.Fatalf("mode %d epoch %d: outputs diverge", mode, ep)
			}
		}
	}
}

func TestRebindRejectsVertexCountChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g1 := graph.Gnp(16, 0.3, rng)
	g2 := graph.Gnp(17, 0.3, rng)
	eng, err := sim.NewEngine(g1, poolNodes(16, 4), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Rebind(g2, poolNodes(17, 4), 1); err == nil {
		t.Fatal("rebind across vertex counts accepted")
	}
	if err := eng.Rebind(g1, poolNodes(17, 4), 1); err == nil {
		t.Fatal("rebind with mismatched node slice accepted")
	}
}

// TestPoolRebind checks the pool-level path: runs over successive snapshots
// of one dynamic graph recycle the one pooled engine, which the cache
// re-points at each new snapshot with Engine.Rebind, and each run is
// bit-identical to a fresh engine's.
func TestPoolRebind(t *testing.T) {
	snaps := churnSnapshots(t, 24, 90, 40, 3, 31)
	c := core.NewEngineCache()
	sched := chatterSched()
	for ep, g := range snaps {
		cfg := sim.Config{Seed: int64(40 + ep)}
		got, err := c.RunSingle(g, sched, chatterMk(6), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.RunSingle(g, sched, chatterMk(6), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: pooled rebound run diverges from fresh", ep)
		}
		if idle := c.Idle(g.N(), cfg); idle != 1 {
			t.Fatalf("epoch %d: %d idle engines: the cache built a new engine instead of rebinding the pooled one", ep, idle)
		}
	}
}
