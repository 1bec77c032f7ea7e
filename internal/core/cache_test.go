package core_test

import (
	"context"
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

		sched, mk := baseline.NewTwoHop(2, g.MaxDegree())
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

// TestEngineCacheOneEnginePerGraph pins that shard count and bandwidth are
// per-run settings of a pooled engine, not part of its pool key: lister
// runs over one graph through shard counts 0, 4, 1, 7, 4 and bandwidths 2,
// 1, 5, 2, 1 leave one idle engine, and each Result is bit-identical to a
// fresh engine's — also for a run resumed, at one shard, from a checkpoint
// a 4-shard run wrote.
func TestEngineCacheOneEnginePerGraph(t *testing.T) {
	g := graph.Gnp(28, 0.4, rand.New(rand.NewSource(11)))
	c := core.NewEngineCache()
	lister := func(b int) []core.Segment {
		segs, err := core.NewLister(g.N(), b, core.ListerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	for i, st := range []struct{ shards, b int }{{0, 2}, {4, 1}, {1, 5}, {7, 2}, {4, 1}} {
		cfg := sim.Config{Seed: int64(i), Shards: st.shards, BandwidthWords: st.b}
		got, err := c.RunSequence(g, lister(st.b), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.NewEngineCache().RunSequence(g, lister(st.b), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (shards=%d B=%d): pooled Result diverges from a fresh engine's", i, st.shards, st.b)
		}
		if idle := c.IdleEngines(); idle != 1 {
			t.Fatalf("run %d (shards=%d B=%d): %d idle engines for one graph, want 1", i, st.shards, st.b, idle)
		}
	}

	segs := lister(2)
	saved := map[int][]byte{}
	save := &core.CheckpointPlan{Every: 4, Save: func(round int, payload []byte) error {
		saved[round] = payload
		return nil
	}}
	want, err := c.Run(context.Background(), g, segs, sim.Config{Seed: 9, Shards: 4}, nil, save)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved[8]) == 0 {
		t.Fatal("no checkpoint at round 8")
	}
	resume := &core.CheckpointPlan{Resume: &core.ResumePoint{Round: 8, Payload: saved[8]}}
	got, err := c.Run(context.Background(), g, segs, sim.Config{Seed: 9, Shards: 1}, nil, resume)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("one-shard resume of a 4-shard checkpoint diverges from the uninterrupted run")
	}
	if idle := c.IdleEngines(); idle != 1 {
		t.Fatalf("%d idle engines after the resume, want 1", idle)
	}
}

// TestEngineCacheConcurrent exercises the cache from parallel workers (the
// sweep fan-out shape) under -race, asserting each worker still gets the
// deterministic result.
func TestEngineCacheConcurrent(t *testing.T) {
	c := core.NewEngineCache()
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(24, 0.5, rng)
	sched, mk := baseline.NewTwoHop(2, g.MaxDegree())
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
// borrow after the first rebinds the engine to the graph it already holds,
// which skips the topology swap) to a one-shot run on a fresh engine: for
// every seed, identical Result.
func TestRunnerMatchesRunSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(28, 0.4, rng)
	sched, mk := baseline.NewTwoHop(2, g.MaxDegree())
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
		got, err := c.Run(context.Background(), g, segs, cfg, gotObs, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantObs := &stream{}
		want, err := core.NewEngineCache().Run(context.Background(), g, segs, cfg, wantObs, nil)
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
	sched, mk := baseline.NewTwoHop(2, g.MaxDegree())
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

// idleHandler does nothing in any phase, so after round 0 every round but
// the drain round is fast-forwarded.
type idleHandler struct{}

func (idleHandler) Start(*sim.Context, int)                 {}
func (idleHandler) Receive(*sim.Context, int, sim.Delivery) {}
func (idleHandler) Finish(*sim.Context)                     {}
func (idleHandler) SaveState(*sim.SnapWriter)               {}
func (idleHandler) LoadState(*sim.SnapReader) error         { return nil }

// TestCheckpointBoundariesAllocateNothing pins the cost of a checkpoint
// boundary the run skips because nothing happened since the last save: it
// reads the engine's fast-forward counter and allocates nothing. Copying
// the engine's metrics there would copy both per-node slabs, 16n bytes, at
// every boundary. Round 0 steps every vertex, so a plan with Every = 1
// saves once, at round 1, and skips the later boundaries; it is compared
// with a plan with Every = rounds, which saves once and has no other
// boundary.
func TestCheckpointBoundariesAllocateNothing(t *testing.T) {
	const n, rounds = 5000, 400
	g := graph.Empty(n)
	sched := &sim.Schedule{}
	sched.Add("idle", rounds)
	h := func(int) core.PhaseHandler { return idleHandler{} }
	c := core.NewEngineCache()
	run := func(every int) int64 {
		saves := 0
		plan := &core.CheckpointPlan{Every: every, Save: func(int, []byte) error { saves++; return nil }}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.Run(context.Background(), g, core.Single(sched, h), sim.Config{Seed: 1}, nil, plan); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if saves != 1 {
			t.Fatalf("Every=%d: %d checkpoints saved over an idle run, want 1", every, saves)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	run(rounds) // warm the engine cache
	coarse := run(rounds)
	fine := run(1)
	if perBoundary := (fine - coarse) / rounds; perBoundary > 64 {
		t.Errorf("each skipped checkpoint boundary allocates %d B, want <= 64", perBoundary)
	}
}

// TestWarmJobAllocations bounds what a warm job allocates: on gnp(2000,
// 4/n), a warm two-hop run, a warm A1 run, a warm tester run at its
// default 16 probes and a warm count each allocate at most a constant that
// does not grow with n — the Result's copies of the outputs, the union and
// the metrics, and the count's counter with its flat per-vertex state. The
// engine's node slice and the phase driver's handler slots are pooled with
// the engine, and every algorithm drives all vertices with one node value,
// so a per-vertex object anywhere on the run path would add up to n.
func TestWarmJobAllocations(t *testing.T) {
	const n, bound = 2000, 128
	g := graph.Gnp(n, 4.0/n, rand.New(rand.NewSource(43)))
	twoSched, twoH := baseline.NewTwoHop(2, g.MaxDegree())
	a1Sched, a1H := core.NewA1(core.Params{N: n, Eps: core.EpsFindingPure, B: 2})
	testSched, testH := core.NewPropertyTester(n, 2, 16)
	cfg := sim.Config{Seed: 1}
	c := core.NewEngineCache()
	single := func(sched *sim.Schedule, h func(int) core.PhaseHandler) func() error {
		return func() error {
			_, err := c.RunSingle(g, sched, h, cfg)
			return err
		}
	}
	for _, job := range []struct {
		name string
		run  func() error
	}{
		{"twohop", single(twoSched, twoH)},
		{"a1", single(a1Sched, a1H)},
		{"tester", single(testSched, testH)},
		{"count", func() error {
			_, err := c.Count(context.Background(), g, 0, cfg, nil)
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if err := job.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("%s: %v allocations per warm run, want at most %d", job.name, allocs, bound)
		}
	}
}
