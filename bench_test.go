package repro

// One testing.B benchmark per row of the paper's Table 1 (and per
// supporting experiment). Each benchmark runs the full distributed
// algorithm at a fixed representative size and reports, besides wall time,
// the model-level quantities as custom metrics: scheduled CONGEST rounds,
// total bits moved, and triangles produced. The scaling sweeps behind the
// paper-vs-measured comparison live in cmd/experiments (see
// EXPERIMENTS.md); these benches regenerate single rows reproducibly.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/perf"
	"repro/internal/sim"
)

// TestMain removes the large suite's temporary graph files once the
// package's tests and benchmarks are done.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := perf.RemoveLargeFiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

const benchN = 64

func benchGnp(b *testing.B, seed int64) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	return graph.Gnp(benchN, 0.5, rng)
}

func report(b *testing.B, res core.Result) {
	b.Helper()
	b.ReportMetric(float64(res.ScheduledRounds), "congest-rounds")
	b.ReportMetric(float64(res.Metrics.TotalBits()), "bits")
	b.ReportMetric(float64(len(res.Union)), "triangles")
}

// BenchmarkE1DolevClique — Table 1 row: Dolev et al. listing, CONGEST
// clique, O(n^{1/3} (log n)^{2/3}) rounds.
func BenchmarkE1DolevClique(b *testing.B) {
	g := benchGnp(b, 1)
	sched, mk, err := baseline.NewDolev(g, 2, baseline.DolevCubeRoot)
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Mode: sim.ModeClique, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		b.Fatal(err)
	}
	report(b, res)
}

// BenchmarkE2DolevDegree — Table 1 row: Dolev et al. listing, CONGEST
// clique, O(d_max^3/n) rounds (degree-aware variant, sparse input).
func BenchmarkE2DolevDegree(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.NearRegular(benchN*2, 12, rng)
	sched, mk, err := baseline.NewDolev(g, 2, baseline.DolevDegreeAware)
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Mode: sim.ModeClique, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		b.Fatal(err)
	}
	report(b, res)
}

// BenchmarkE3SeparationTable — Table 1 row: Censor-Hillel et al. clique
// finding (contextual formula table; see DESIGN.md E3).
func BenchmarkE3SeparationTable(b *testing.B) {
	e, err := expt.ByID("e3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(expt.Config{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Finding — Table 1 row (THIS PAPER, Theorem 1): triangle
// finding in CONGEST, O(n^{2/3} (log n)^{2/3}) rounds.
func BenchmarkE4Finding(b *testing.B) {
	g := benchGnp(b, 4)
	var res core.Result
	for i := 0; i < b.N; i++ {
		found, r, err := core.NewEngineCache().FindTriangles(g, core.FinderOptions{}, sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !found {
			b.Fatal("dense G(n,1/2) must yield a triangle")
		}
		res = r
	}
	report(b, res)
}

// BenchmarkE5Listing — Table 1 row (THIS PAPER, Theorem 2): triangle
// listing in CONGEST, O(n^{3/4} log n) rounds.
func BenchmarkE5Listing(b *testing.B) {
	g := benchGnp(b, 5)
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().ListAllTriangles(g, core.ListerOptions{}, sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		b.Fatal(err)
	}
	report(b, res)
}

// BenchmarkE6DruckerContext — Table 1 row: Drucker et al. conditional
// broadcast-CONGEST lower bound (contextual comparison run).
func BenchmarkE6DruckerContext(b *testing.B) {
	e, err := expt.ByID("e6")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(expt.Config{Quick: true, Sizes: []int{24, 32, 40}, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7LowerBound — Table 1 rows (Pandurangan et al. / THIS PAPER,
// Theorem 3): listing lower-bound measurement on G(n,1/2).
func BenchmarkE7LowerBound(b *testing.B) {
	g := benchGnp(b, 7)
	sched, mk, err := baseline.NewDolev(g, 2, baseline.DolevCubeRoot)
	if err != nil {
		b.Fatal(err)
	}
	var rep lower.Report
	for i := 0; i < b.N; i++ {
		res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Mode: sim.ModeClique, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rep = lower.Analyze(g, res.Outputs, res.Metrics)
		if err := rep.Check(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.PTW), "P(Tw)-edges")
	b.ReportMetric(float64(rep.BitsReceivedW), "w-recv-bits")
}

// BenchmarkE8LocalListing — Proposition 5: local listing lower-bound
// measurement (Omega(n^2) bits per node).
func BenchmarkE8LocalListing(b *testing.B) {
	g := benchGnp(b, 8)
	sched, mk := baseline.NewTwoHop(2, g.MaxDegree())
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	reps := lower.AnalyzeLocal(g, res.Outputs, res.Metrics)
	if err := lower.CheckLocal(reps); err != nil {
		b.Fatal(err)
	}
	report(b, res)
}

// BenchmarkE9TwoHop — the trivial Theta(d_max)-round baseline from the
// paper's introduction.
func BenchmarkE9TwoHop(b *testing.B) {
	g := benchGnp(b, 9)
	sched, mk := baseline.NewTwoHop(2, g.MaxDegree())
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		b.Fatal(err)
	}
	report(b, res)
}

// BenchmarkA2HeavyListing — component bench: Algorithm A2 alone on a
// planted heavy edge (Proposition 2 workload).
func BenchmarkA2HeavyListing(b *testing.B) {
	rng := rand.New(rand.NewSource(10)) // #nosec G404 - deterministic bench input
	g := graph.PlantedHeavyEdge(benchN, 16, 0.05, rng)
	p := core.Params{N: g.N(), Eps: 0.5, B: 2}
	sched, mk, err := core.NewA2(p)
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, res)
}

// BenchmarkA3LightListing — component bench: Algorithm A3 alone on
// G(n,1/2) (Proposition 3 workload).
func BenchmarkA3LightListing(b *testing.B) {
	g := benchGnp(b, 11)
	p := core.Params{N: g.N(), Eps: 0.5, B: 2}
	sched, mk := core.NewA3(p)
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, res)
}

// BenchmarkDolevRelayRouting — ablation bench: the Lenzen-style balanced
// routing variant of the clique lister.
func BenchmarkDolevRelayRouting(b *testing.B) {
	g := benchGnp(b, 13)
	sched, mk, err := baseline.NewDolevRouted(g, 2, baseline.DolevCubeRoot, baseline.RelayRouting)
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Mode: sim.ModeClique, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		b.Fatal(err)
	}
	report(b, res)
}

// BenchmarkExtCounting — extension bench: exact distributed triangle
// counting via BFS convergecast (Theta(d_max + D) rounds), on a pooled
// engine.
func BenchmarkExtCounting(b *testing.B) {
	g := benchGnp(b, 14)
	want := int64(graph.CountTriangles(g))
	c := core.NewEngineCache()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := c.Count(context.Background(), g, 0, sim.Config{Seed: int64(i)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != want {
			b.Fatalf("count %d, want %d", res.Count, want)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
}

// BenchmarkExtPropertyTester — extension bench: the O(1)-round
// triangle-freeness property tester.
func BenchmarkExtPropertyTester(b *testing.B) {
	g := benchGnp(b, 15)
	var res core.Result
	for i := 0; i < b.N; i++ {
		_, r, err := core.NewEngineCache().TestTriangleFreeness(g, 16, sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	report(b, res)
}

// BenchmarkBroadcastTwoHop — the two-hop lister under the broadcast
// CONGEST restriction (the Drucker et al. model).
func BenchmarkBroadcastTwoHop(b *testing.B) {
	g := benchGnp(b, 16)
	sched, mk := baseline.NewTwoHop(2, g.MaxDegree())
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Mode: sim.ModeBroadcast, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		b.Fatal(err)
	}
	report(b, res)
}

// BenchmarkOracleForward — substrate bench: the centralized O(m^{3/2})
// oracle used for verification.
func BenchmarkOracleForward(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	g := graph.Gnp(256, 0.5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(graph.ListTriangles(g)) == 0 {
			b.Fatal("dense graph with no triangles")
		}
	}
}

// --- Oracle and sweep-runner benchmarks --------------------------------
//
// These benchmarks cover the centralized oracle and the sweep runner. The
// workload bodies live in internal/perf so `go test -bench` and the
// cmd/bench regression gate (entries of BENCH_engine.json) measure the
// same code. Each has a seq variant (Workers=1) and a par variant
// (Workers=0, all CPUs); their outputs are bit-identical, so the pair
// isolates the parallel speedup.

// BenchmarkListTriangles — parallel oracle, listing path.
func BenchmarkListTriangles(b *testing.B) {
	b.Run("seq", perf.OracleList(1))
	b.Run("par", perf.OracleList(0))
}

// BenchmarkCountTriangles — parallel oracle, streaming-count path
// (0 allocs/op on the warmed scratch).
func BenchmarkCountTriangles(b *testing.B) {
	b.Run("seq", perf.OracleCount(1))
	b.Run("par", perf.OracleCount(0))
}

// BenchmarkSweep — the expt sweep runner, sequential vs cell-parallel.
func BenchmarkSweep(b *testing.B) {
	b.Run("seq", perf.Sweep(1))
	b.Run("par", perf.Sweep(0))
}

// BenchmarkDynamicApply — per-batch churn: incremental triangle
// maintenance vs full O(m^{3/2}) recompute on every batch (the
// `speedup_dynamic_incremental_vs_full` ratio in BENCH_engine.json).
func BenchmarkDynamicApply(b *testing.B) {
	b.Run("incremental", perf.DynamicApply(true))
	b.Run("full", perf.DynamicApply(false))
}

// BenchmarkServiceThroughput — end-to-end jobs/sec through the durable
// congest.Service (admission, priority queue, worker pool, result
// plumbing): one op is a batch of independent finding jobs, seq on one
// worker vs par on all CPUs. The par results are checked byte-identical to
// the seq warmup, and the seq/par ratio is the `speedup_service_par_vs_seq`
// floor in BENCH_engine.json.
func BenchmarkServiceThroughput(b *testing.B) {
	b.Run("seq", perf.ServiceThroughput(1))
	b.Run("par", perf.ServiceThroughput(0))
}

// --- Engine-level microbenchmarks -------------------------------------
//
// These measure the simulator substrate itself, independent of any paper
// algorithm: steady-state rounds/sec, delivered words/sec and allocs/round
// under a continuous all-neighbor flood (uniform G(n,p) and power-law
// degree distributions), plus the phased sparse-activity workload that
// isolates the activity scheduler's advantage over the dense reference
// stepper. One benchmark op is exactly one engine round, so the reported
// allocs/op is allocs/round. Workload bodies live in internal/perf.

func BenchmarkEngineStepGnp(b *testing.B)      { perf.EngineStepGnp()(b) }
func BenchmarkEngineStepPowerLaw(b *testing.B) { perf.EngineStepPowerLaw()(b) }

// BenchmarkEngineStepSparse — the phased low-duty-cycle regime (most nodes
// asleep between phase boundaries): the dense/activity pair is the
// scheduler speedup recorded in BENCH_engine.json.
func BenchmarkEngineStepSparse(b *testing.B) {
	b.Run("dense", perf.EngineStepSparse(sim.SchedulerDense))
	b.Run("activity", perf.EngineStepSparse(sim.SchedulerActivity))
}

// BenchmarkEngineStepFaulty — the fault layer's cost model on the sparse
// workload: nilplan is the same configuration with no plan set (its ratio
// against EngineStepSparse/activity is the `fault_nilplan_vs_sparse`
// zero-overhead floor in BENCH_engine.json), lossdelay arms per-link loss
// and bounded delay and records what the fault coins cost per round.
func BenchmarkEngineStepFaulty(b *testing.B) {
	b.Run("nilplan", perf.EngineStepFaulty(false))
	b.Run("lossdelay", perf.EngineStepFaulty(true))
}

// BenchmarkCheckpoint — the checkpoint subsystem's cost model on the
// sparse workload: full-state serialization (save), the resume path
// (fresh engine + restore) and the coldstart it competes with (fresh
// engine + re-run to the checkpoint round). The restore-vs-coldstart
// ratio is the `checkpoint_restore_vs_coldstart` floor in BENCH_engine.json.
func BenchmarkCheckpoint(b *testing.B) {
	b.Run("save", perf.CheckpointSave())
	b.Run("restore", perf.CheckpointRestore())
	b.Run("coldstart", perf.CheckpointColdstart())
}

// BenchmarkEngineStepLarge — the million-node scale proof (the `large`
// suite in BENCH_engine.json): steady-state rounds over a shared sparse
// G(10^6, p) graph, unsharded vs the 4-shard engine. Expensive — the
// graph is generated and an engine built on first run — so the quick smoke
// regexes (CI, README) deliberately exclude it; opt in with
// -bench BenchmarkEngineStepLarge.
func BenchmarkEngineStepLarge(b *testing.B) {
	b.Run("seq", perf.EngineStepLarge(0))
	b.Run("sharded", perf.EngineStepLarge(4))
}

// BenchmarkEngineNbrList — one two-hop exchange on gnp(10^5, 8/n): every
// node broadcasts its neighbour list at B=2 and the engine runs until the
// channels drain, unsharded vs the 4-shard engine. Its channel state does
// not fit in cache and stays backlogged for several rounds, so delivery
// locality shows here; cmd/bench does not gate it.
func BenchmarkEngineNbrList(b *testing.B) {
	b.Run("seq", perf.EngineNbrList(0))
	b.Run("sharded", perf.EngineNbrList(4))
}

// BenchmarkLargeJob — one twohop job on gnp(10^5, 8/n), run on an engine
// pinned to one shard vs through a congest.Session, which places it
// (GOMAXPROCS shards on this graph): the `speedup_large_job_auto_vs_one_shard`
// floor in BENCH_engine.json. Expensive like the other large benches; opt
// in with -bench BenchmarkLargeJob.
func BenchmarkLargeJob(b *testing.B) {
	b.Run("one-shard", perf.LargeJob(1))
	b.Run("auto", perf.LargeJob(0))
}

// BenchmarkEngineResetLarge — one same-graph Rebind of the million-node
// engine after a run in which every node drew from its private stream: the
// rewind a pooled engine pays before each job. Expensive set-up, like
// BenchmarkEngineStepLarge; opt in with -bench BenchmarkEngineResetLarge.
func BenchmarkEngineResetLarge(b *testing.B) { perf.EngineResetLarge()(b) }

// BenchmarkLargeLoad — the two million-node ingest paths: text edge-list
// parse vs the mmap-backed binary CSR container.
func BenchmarkLargeLoad(b *testing.B) {
	b.Run("text", perf.LargeLoadText())
	b.Run("csrbin", perf.LargeLoadCSRBin())
}
