package core_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestEngineCacheMatchesOneShot pins the cross-graph cache to a one-shot
// run on a fresh engine (an empty cache): cells over DIFFERENT graphs of
// recurring sizes (the sweep pattern, where every reuse goes through
// Engine.Rebind) must produce bit-identical Results, across modes and both
// single-schedule and sequence runs.
func TestEngineCacheMatchesOneShot(t *testing.T) {
	c := core.NewEngineCache()
	sizes := []int{20, 26, 20, 26, 20} // recurring sizes force cache hits
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		g := graph.Gnp(n, 0.4, rng)
		cfg := sim.Config{Seed: int64(i)}

		sched, mk := baseline.NewTwoHop(g.N(), 2, g.MaxDegree(), baseline.TwoHopGlobal)
		got, err := c.RunSingle(g, sched, mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.NewEngineCache().RunSingle(g, sched, mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d (n=%d): cached RunSingle diverges from one-shot", i, n)
		}

		segs, err := core.NewLister(g.N(), 2, core.ListerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotSeq, err := c.RunSequence(g, segs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantSeq, err := core.NewEngineCache().RunSequence(g, segs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSeq, wantSeq) {
			t.Fatalf("cell %d (n=%d): cached RunSequence diverges from one-shot", i, n)
		}

		dol, dolMk, err := baseline.NewDolev(g, 2, baseline.DolevCubeRoot)
		if err != nil {
			t.Fatal(err)
		}
		clique := sim.Config{Mode: sim.ModeClique, Seed: int64(i)}
		gotCl, err := c.RunSingle(g, dol, dolMk, clique)
		if err != nil {
			t.Fatal(err)
		}
		wantCl, err := core.NewEngineCache().RunSingle(g, dol, dolMk, clique)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotCl, wantCl) {
			t.Fatalf("cell %d (n=%d): cached clique run diverges from one-shot", i, n)
		}
	}
}

// TestEngineCacheConcurrent exercises the cache from parallel workers (the
// sweep fan-out shape) under -race, asserting each worker still gets the
// deterministic result.
func TestEngineCacheConcurrent(t *testing.T) {
	c := core.NewEngineCache()
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(24, 0.5, rng)
	sched, mk := baseline.NewTwoHop(g.N(), 2, g.MaxDegree(), baseline.TwoHopGlobal)
	cfg := sim.Config{Seed: 42}
	want, err := core.NewEngineCache().RunSingle(g, sched, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got, err := c.RunSingle(g, sched, mk, cfg)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs[w] = errDiverged
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

var errDiverged = &divergedError{}

type divergedError struct{}

func (*divergedError) Error() string { return "cached run diverges from one-shot" }

// TestRunnerMatchesRunSingle pins the cache's same-graph reuse path (every
// borrow after the first rewinds the engine with Engine.Reset) to a
// one-shot run on a fresh engine: for every seed, identical Result.
func TestRunnerMatchesRunSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(28, 0.4, rng)
	sched, mk := baseline.NewTwoHop(g.N(), 2, g.MaxDegree(), baseline.TwoHopGlobal)
	c := core.NewEngineCache()
	for seed := int64(0); seed < 4; seed++ {
		cfg := sim.Config{Mode: sim.ModeCONGEST, Seed: seed}
		got, err := c.RunSingle(g, sched, mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.NewEngineCache().RunSingle(g, sched, mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pooled RunSingle diverges from one-shot", seed)
		}
	}
	if idle := c.Idle(g.N(), sim.Config{}); idle != 1 {
		t.Fatalf("%d idle engines after sequential runs, want 1", idle)
	}
}

// TestRunnerMatchesRunSequence does the same for segment sequences (the
// Theorem-2 lister) through the observed entry point: across repeated
// pooled runs, the Result and the observation stream both match the
// one-shot run's.
func TestRunnerMatchesRunSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Gnp(24, 0.5, rng)
	segs, err := core.NewLister(g.N(), 2, core.ListerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewEngineCache()
	for seed := int64(10); seed < 13; seed++ {
		cfg := sim.Config{Mode: sim.ModeCONGEST, Seed: seed}
		gotObs := &stream{}
		got, err := c.RunSequenceCheckpointed(context.Background(), g, segs, cfg, gotObs, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantObs := &stream{}
		want, err := core.NewEngineCache().RunSequenceCheckpointed(context.Background(), g, segs, cfg, wantObs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pooled RunSequence diverges from one-shot", seed)
		}
		if !gotObs.equal(wantObs) {
			t.Fatalf("seed %d: pooled observation stream diverges from one-shot", seed)
		}
	}
}

// TestRunnerConcurrent shares one cache across goroutines running one graph
// under -race, at mixed seeds and shard counts; every run must still match
// the one-shot result for its seed.
func TestRunnerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(20, 0.4, rng)
	sched, mk := baseline.NewTwoHop(g.N(), 2, g.MaxDegree(), baseline.TwoHopGlobal)
	want := make([]core.Result, 4)
	for seed := range want {
		res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
	}
	c := core.NewEngineCache()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				seed := (w + i) % len(want)
				cfg := sim.Config{Seed: int64(seed), Shards: 2 * (w % 2)}
				got, err := c.RunSingle(g, sched, mk, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[seed]) {
					t.Errorf("worker %d: seed %d diverges", w, seed)
				}
			}
		}(w)
	}
	wg.Wait()
}

// sleeperNode sleeps through the whole run, so every round is
// fast-forwarded.
type sleeperNode struct{}

func (sleeperNode) Init(ctx *sim.Context)                                   { ctx.SleepUntil(math.MaxInt32) }
func (sleeperNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {}

// TestCheckpointBoundariesAllocateNothing pins the cost of a checkpoint
// boundary the run skips because nothing happened since the last save: it
// reads the engine's fast-forward counter and allocates nothing. Copying
// the engine's metrics there would copy both per-node slabs, 16n bytes, at
// every boundary.
func TestCheckpointBoundariesAllocateNothing(t *testing.T) {
	const n, rounds = 5000, 400
	g := graph.Empty(n)
	sched := &sim.Schedule{}
	sched.Add("idle", rounds)
	mk := func(int) sim.Node { return sleeperNode{} }
	c := core.NewEngineCache()
	saves := 0
	ckpt := &core.CheckpointPlan{Every: 1, Save: func(int, []byte) error { saves++; return nil }}
	run := func(plan *core.CheckpointPlan) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.RunSingleCheckpointed(context.Background(), g, sched, mk, sim.Config{Seed: 1}, nil, plan); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	run(nil) // warm the engine cache
	plain := run(nil)
	checkpointed := run(ckpt)
	if saves != 0 {
		t.Fatalf("%d checkpoints saved over an idle run, want 0", saves)
	}
	if perBoundary := (checkpointed - plain) / rounds; perBoundary > 64 {
		t.Errorf("each skipped checkpoint boundary allocates %d B, want <= 64", perBoundary)
	}
}
