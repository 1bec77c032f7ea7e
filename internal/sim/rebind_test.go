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

// rebindBcastNode broadcasts in Init and in rounds 0-3, then finishes. It
// keeps no state, so one node set serves every run.
type rebindBcastNode struct{}

func (rebindBcastNode) Init(ctx *sim.Context) { ctx.Broadcast(sim.Word(ctx.ID())) }

func (rebindBcastNode) Round(ctx *sim.Context, round int, _ []sim.Delivery) {
	if round >= 4 {
		ctx.SetDone()
		return
	}
	ctx.Broadcast(sim.Word(round), sim.Word(ctx.ID()))
}

// TestRebindAllocatesNothing pins that Rebind keeps every slab, shard-plan
// list and arena of a warm engine: alternating between two graphs on one
// vertex set, a rebind and a run to quiescence on each allocates nothing,
// unsharded and at 4 shards.
func TestRebindAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g1, g2 := graph.Gnp(300, 0.05, rng), graph.Gnp(300, 0.05, rng)
	nodes := make([]sim.Node, g1.N())
	for v := range nodes {
		nodes[v] = rebindBcastNode{}
	}
	for _, shards := range []int{0, 1, 4} {
		eng, err := sim.NewEngine(g1, nodes, sim.Config{Seed: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		run := func(g *graph.Graph) {
			if err := eng.Rebind(g, nodes, 1); err != nil {
				t.Fatal(err)
			}
			if err := eng.RunUntilQuiescent(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { run(g2); run(g1) }); allocs != 0 {
			t.Fatalf("shards=%d: %v allocations per pair of rebinds", shards, allocs)
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
		want, err := core.NewEngineCache().RunSingle(g, sched, chatterMk(6), cfg)
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
