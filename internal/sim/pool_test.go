package sim_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func poolNodes(n, rounds int) []sim.Node {
	nodes := make([]sim.Node, n)
	for v := range nodes {
		nodes[v] = &chatterNode{rounds: rounds}
	}
	return nodes
}

// drawNode is the every-node-draws regime: each node draws from its
// private stream in Init, outputs a triangle named by the draw (so the
// stream is observable in Outputs) and finishes.
type drawNode struct{}

func (drawNode) Init(ctx *sim.Context) {
	x := int(ctx.RNG().Int63n(1 << 20))
	ctx.Output(graph.Triangle{A: x, B: x + 1, C: x + 2})
	ctx.SetDone()
}

func (drawNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) { ctx.SetDone() }

func drawNodes(n int) []sim.Node {
	nodes := make([]sim.Node, n)
	for v := range nodes {
		nodes[v] = drawNode{}
	}
	return nodes
}

// TestPoolReusesEngines checks the pooling mechanics: a returned engine is
// handed out again instead of a new allocation.
func TestPoolReusesEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.Gnp(24, 0.3, rng)
	p := sim.NewEnginePool(g, sim.Config{})
	e1, err := p.Get(poolNodes(g.N(), 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(e1)
	if p.Size() != 1 {
		t.Fatalf("pool size %d after one Put, want 1", p.Size())
	}
	e2, err := p.Get(poolNodes(g.N(), 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("pool built a new engine while one was free")
	}
	if p.Size() != 0 {
		t.Fatalf("pool size %d after Get, want 0", p.Size())
	}
	// Two concurrent borrowers get distinct engines.
	e3, err := p.Get(poolNodes(g.N(), 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if e2 == e3 {
		t.Fatal("pool handed the same engine to two borrowers")
	}
	p.Put(e2)
	p.Put(e3)
}

// TestPooledRunMatchesFresh is the pool's determinism contract: a run on a
// recycled engine is bit-identical (metrics, outputs, rounds) to one on a
// freshly built engine with the same seed.
func TestPooledRunMatchesFresh(t *testing.T) {
	for name, mk := range map[string]func(n int) []sim.Node{
		"chatter": func(n int) []sim.Node { return poolNodes(n, 8) },
		"draw":    drawNodes,
	} {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 5; trial++ {
			n := 10 + rng.Intn(30)
			g := graph.Gnp(n, 0.25, rng)
			cfg := sim.Config{Parallel: trial%2 == 0}
			p := sim.NewEnginePool(g, cfg)
			// Warm the pool with a throwaway run so later Gets recycle.
			warm, err := p.Get(poolNodes(n, 6), 999)
			if err != nil {
				t.Fatal(err)
			}
			warm.Run(3) // abandon mid-run: pooled engines may come back dirty
			p.Put(warm)
			for run := 0; run < 3; run++ {
				seed := rng.Int63()
				eng, err := p.Get(mk(n), seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.RunUntilQuiescent(); err != nil {
					t.Fatal(err)
				}
				freshCfg := cfg
				freshCfg.Seed = seed
				fresh, err := sim.NewEngine(g, mk(n), freshCfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.RunUntilQuiescent(); err != nil {
					t.Fatal(err)
				}
				if eng.Round() != fresh.Round() ||
					!reflect.DeepEqual(eng.Metrics(), fresh.Metrics()) ||
					!reflect.DeepEqual(eng.Outputs(), fresh.Outputs()) {
					t.Fatalf("%s trial %d run %d: pooled run diverges from fresh engine", name, trial, run)
				}
				p.Put(eng)
			}
		}
	}
}

// TestDrawFootprint bounds what per-node randomness costs. On an n=10^4
// engine where every node draws in Init, the first run allocates at most
// 128 bytes per node: the stream itself lives in the Context, so only the
// rand.Rand wrapper and the node's one output are new. A Reset and a second
// run then allocate nothing: reseeding is two stores per node.
func TestDrawFootprint(t *testing.T) {
	const n = 10_000
	nodes := drawNodes(n)
	eng, err := sim.NewEngine(graph.Empty(n), nodes, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perNode := (after.TotalAlloc - before.TotalAlloc) / n; perNode > 128 {
		t.Errorf("first run allocated %d B per node, want <= 128", perNode)
	}
	seed := int64(1)
	allocs := testing.AllocsPerRun(3, func() {
		seed++
		if err := eng.Reset(nodes, seed); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset plus a run allocated %.0f times, want 0", allocs)
	}
}

// TestPoolConcurrentBorrowers hammers one pool from several goroutines under
// the race detector; every borrower must see its own deterministic run.
func TestPoolConcurrentBorrowers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Gnp(20, 0.3, rng)
	p := sim.NewEnginePool(g, sim.Config{})
	want := make(map[int64][][]graph.Triangle)
	for seed := int64(0); seed < 4; seed++ {
		eng, err := sim.NewEngine(g, poolNodes(g.N(), 6), sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		want[seed] = eng.Outputs()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				seed := int64((w + i) % 4)
				eng, err := p.Get(poolNodes(g.N(), 6), seed)
				if err != nil {
					errs <- err
					return
				}
				if err := eng.RunUntilQuiescent(); err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(eng.Outputs(), want[seed]) {
					t.Errorf("worker %d: outputs diverge for seed %d", w, seed)
				}
				p.Put(eng)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
