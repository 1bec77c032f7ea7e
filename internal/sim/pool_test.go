package sim_test

// Engine reuse. core.EngineCache is the engine pool: it hands a returned
// engine to the next run of the same shape, rewound with Engine.Rebind,
// which keeps the topology when the graph is the same and re-points the
// engine when it is not. These tests drive both cases through the cache —
// pooling mechanics, pooled-vs-fresh bit identity and concurrent borrowers
// here, rebinding across graph snapshots in rebind_test.go.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
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

// chatterMk builds chatter machines that stop sending after the given round.
func chatterMk(rounds int) func(id int) sim.Node {
	return func(int) sim.Node { return &chatterNode{rounds: rounds} }
}

// chatterSched is a one-phase schedule long enough for chatter machines of
// up to 8 rounds to finish and drain every queued word.
func chatterSched() *sim.Schedule {
	s := &sim.Schedule{}
	s.Add("chatter", 64)
	return s
}

// roundObs is a core.Observer that calls fn after every round.
type roundObs func(round int)

func (roundObs) OnSegment(core.SegmentInfo)              {}
func (f roundObs) OnRound(round int, _ sim.RoundDelta)   { f(round) }
func (roundObs) OnTriangle(node int, tri graph.Triangle) {}

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
// handed out again instead of a new allocation, and a run that borrows
// while another run holds the only idle engine gets a distinct one.
func TestPoolReusesEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.Gnp(24, 0.3, rng)
	c := core.NewEngineCache()
	sched := chatterSched()
	run := func(seed int64, obs core.Observer) {
		t.Helper()
		cfg := sim.Config{Seed: seed}
		if _, err := c.Run(context.Background(), g, core.Single(sched, chatterMk(4)), cfg, obs, nil); err != nil {
			t.Fatal(err)
		}
	}
	idle := func() int { return c.Idle(g.N(), sim.Config{}) }
	run(1, nil)
	if idle() != 1 {
		t.Fatalf("%d idle engines after one run, want 1", idle())
	}
	run(2, nil)
	if idle() != 1 {
		t.Fatalf("%d idle engines after a second run, want 1: the cache built a new engine while one was free", idle())
	}
	// Start a second run from inside the first one's first round: the two
	// overlap, so they must hold two distinct engines.
	nested := false
	run(3, roundObs(func(int) {
		if !nested {
			nested = true
			run(4, nil)
		}
	}))
	if idle() != 2 {
		t.Fatalf("%d idle engines after two overlapping runs, want 2", idle())
	}
}

// TestPooledRunMatchesFresh is the pool's determinism contract: a run on a
// recycled engine — one returned dirty from a cancelled run — is
// bit-identical to a one-shot run on a freshly built engine with the same
// seed, unsharded and sharded.
func TestPooledRunMatchesFresh(t *testing.T) {
	sched := chatterSched()
	for name, mk := range map[string]func(id int) sim.Node{
		"chatter": chatterMk(8),
		"draw":    func(int) sim.Node { return drawNode{} },
	} {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 5; trial++ {
			n := 10 + rng.Intn(30)
			g := graph.Gnp(n, 0.25, rng)
			cfg := sim.Config{Shards: 4 * (trial % 2)}
			c := core.NewEngineCache()
			// Warm the cache with a run abandoned mid-way: pooled engines
			// may come back with words in flight.
			ctx, cancel := context.WithCancel(context.Background())
			warm := cfg
			warm.Seed = 999
			stop := roundObs(func(round int) {
				if round == 2 {
					cancel()
				}
			})
			if _, err := c.Run(ctx, g, core.Single(sched, chatterMk(6)), warm, stop, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("warm-up run: err %v, want context.Canceled", err)
			}
			cancel()
			for run := 0; run < 3; run++ {
				runCfg := cfg
				runCfg.Seed = rng.Int63()
				got, err := c.RunSingle(g, sched, mk, runCfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.NewEngineCache().RunSingle(g, sched, mk, runCfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d run %d: pooled run diverges from fresh engine", name, trial, run)
				}
			}
			if idle := c.Idle(n, cfg); idle != 1 {
				t.Fatalf("%s trial %d: %d idle engines, want the one recycled engine", name, trial, idle)
			}
		}
	}
}

// TestDrawFootprint bounds what per-node randomness costs. On an n=10^4
// engine where every node draws in Init, the first run allocates at most
// 128 bytes per node: the stream itself lives in the Context, so only the
// rand.Rand wrapper and the node's one output are new. A same-graph Rebind
// and a second run then allocate nothing: reseeding is two stores per node.
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
		if err := eng.Rebind(eng.Input(), nodes, sim.Config{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a rebind plus a run allocated %.0f times, want 0", allocs)
	}
}

// TestPoolConcurrentBorrowers hammers one cache from several goroutines
// under the race detector; every borrower must see its own deterministic
// run.
func TestPoolConcurrentBorrowers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Gnp(20, 0.3, rng)
	sched := chatterSched()
	want := make(map[int64]core.Result)
	for seed := int64(0); seed < 4; seed++ {
		res, err := core.NewEngineCache().RunSingle(g, sched, chatterMk(6), sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
	}
	c := core.NewEngineCache()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				seed := int64((w + i) % 4)
				got, err := c.RunSingle(g, sched, chatterMk(6), sim.Config{Seed: seed})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[seed]) {
					t.Errorf("worker %d: result diverges for seed %d", w, seed)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
