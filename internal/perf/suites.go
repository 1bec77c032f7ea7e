package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/congest"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
)

// This file defines the benchmark workloads once, as func(*testing.B)
// closures, so the `go test -bench` wrappers in bench_test.go and the
// cmd/bench driver measure the same code. Each workload reports its throughput as ReportMetric extras, which
// Measure copies into the shared Entry schema.

// Bench is one named workload of a Suite.
type Bench struct {
	Name string
	Fn   func(*testing.B)
	// NoAllocGate marks workloads whose allocations scale with GOMAXPROCS
	// (parallel fan-outs); the regression gate skips their allocs check.
	NoAllocGate bool
}

// Suite is a named group of workloads, selectable in cmd/bench with -suite.
type Suite struct {
	Name    string
	Benches []Bench
}

// Suites returns the full benchmark matrix behind BENCH_engine.json.
func Suites() []Suite {
	return []Suite{
		{Name: "engine", Benches: []Bench{
			{Name: "EngineStep/gnp", Fn: EngineStepGnp()},
			{Name: "EngineStep/powerlaw", Fn: EngineStepPowerLaw()},
			{Name: "EngineStepSparse/dense", Fn: EngineStepSparse(sim.SchedulerDense)},
			{Name: "EngineStepSparse/activity", Fn: EngineStepSparse(sim.SchedulerActivity)},
			{Name: "EngineStepFaulty/nilplan", Fn: EngineStepFaulty(false)},
			{Name: "EngineStepFaulty/lossdelay", Fn: EngineStepFaulty(true)},
			{Name: "Checkpoint/save", Fn: CheckpointSave()},
			{Name: "Checkpoint/restore", Fn: CheckpointRestore()},
			{Name: "Checkpoint/coldstart", Fn: CheckpointColdstart()},
		}},
		{Name: "oracle", Benches: []Bench{
			{Name: "ListTriangles/seq", Fn: OracleList(1)},
			{Name: "ListTriangles/par", Fn: OracleList(0), NoAllocGate: true},
			{Name: "CountTriangles/seq", Fn: OracleCount(1)},
			{Name: "CountTriangles/par", Fn: OracleCount(0), NoAllocGate: true},
		}},
		{Name: "sweep", Benches: []Bench{
			{Name: "Sweep/seq", Fn: Sweep(1)},
			{Name: "Sweep/par", Fn: Sweep(0), NoAllocGate: true},
		}},
		{Name: "dynamic", Benches: []Bench{
			{Name: "DynamicApply/incremental", Fn: DynamicApply(true)},
			{Name: "DynamicApply/full", Fn: DynamicApply(false)},
		}},
		{Name: "service", Benches: []Bench{
			{Name: "ServiceThroughput/seq", Fn: ServiceThroughput(1)},
			{Name: "ServiceThroughput/par", Fn: ServiceThroughput(0), NoAllocGate: true},
		}},
		{Name: "large", Benches: []Bench{
			{Name: "LargeLoad/text", Fn: LargeLoadText()},
			{Name: "LargeLoad/csrbin", Fn: LargeLoadCSRBin()},
			{Name: "EngineStepLarge/seq", Fn: EngineStepLarge(0)},
			{Name: "EngineStepLarge/sharded", Fn: EngineStepLarge(largeShards), NoAllocGate: true},
			{Name: "EngineReset/large", Fn: EngineResetLarge()},
			{Name: "LargeJob/one-shard", Fn: LargeJob(1)},
			{Name: "LargeJob/auto", Fn: LargeJob(0), NoAllocGate: true},
		}},
	}
}

// Measure runs one workload under testing.Benchmark and converts the result
// to the shared Entry schema.
func Measure(b Bench) Entry {
	r := testing.Benchmark(b.Fn)
	e := Entry{
		Name:        b.Name,
		AllocsPerOp: r.AllocsPerOp(),
		NoAllocGate: b.NoAllocGate,
	}
	if r.N > 0 {
		e.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	e.TrianglesPerSec = r.Extra["triangles/sec"]
	e.CellsPerSec = r.Extra["cells/sec"]
	e.EdgesPerSec = r.Extra["edges/sec"]
	e.RoundsPerSec = r.Extra["rounds/sec"]
	e.WordsPerSec = r.Extra["words/sec"]
	e.BytesPerSec = r.Extra["bytes/sec"]
	e.JobsPerSec = r.Extra["jobs/sec"]
	return e
}

// --- Engine-level workloads --------------------------------------------

// floodNode broadcasts one word to every neighbor every round: the
// all-active regime, where the activity scheduler must not lose to the
// dense scan.
type floodNode struct{}

func (floodNode) Init(ctx *sim.Context) {}

func (floodNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	ctx.Broadcast(sim.Word(ctx.ID()))
}

// sparseNode is the phased low-activity regime the paper's algorithms live
// in at scale: in any given round most nodes are asleep on a wake timer
// (or idle waiting for deliveries that rarely come) while a handful of
// beacons do the talking. Beacons broadcast at each period-round phase
// boundary and sleep to the next one; everyone else sleeps indefinitely
// and is woken only by a beacon's delivery. Per period that is one send
// round and one delivery round touching O(beacons·deg) nodes, then
// period-2 globally idle rounds that the activity scheduler fast-forwards
// — while the dense reference scans all n contexts every round.
type sparseNode struct {
	period int
	beacon bool
}

func (s sparseNode) Init(ctx *sim.Context) {
	if !s.beacon {
		ctx.SleepUntil(math.MaxInt32)
	}
}

func (s sparseNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	if !s.beacon {
		// Woken by a delivery; consume it and go back to waiting.
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	if round%s.period == 0 {
		ctx.Broadcast(sim.Word(ctx.ID()))
	}
	ctx.SleepUntil(round - round%s.period + s.period)
}

// sparseNode carries no algorithm state beyond its construction parameters,
// so its snapshot payload is empty — which makes the checkpoint benches
// measure the engine container itself, not node serialization.
func (sparseNode) SnapshotState(*sim.Context, *sim.SnapWriter) error { return nil }
func (sparseNode) RestoreState(*sim.Context, *sim.SnapReader) error  { return nil }

// engineStep measures steady-state engine rounds: one benchmark op is
// exactly one round, so allocs/op is allocs/round.
func engineStep(b *testing.B, g *graph.Graph, mk func(id int) sim.Node, cfg sim.Config) {
	b.Helper()
	nodes := make([]sim.Node, g.N())
	for v := range nodes {
		nodes[v] = mk(v)
	}
	eng, err := sim.NewEngine(g, nodes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng.Run(4) // init nodes and reach steady state before measuring
	start := eng.Metrics().WordsDelivered
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(b.N)
	b.StopTimer()
	words := eng.Metrics().WordsDelivered - start
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
	b.ReportMetric(float64(words)/b.Elapsed().Seconds(), "words/sec")
}

// EngineGnpGraph is the uniform-degree engine workload graph.
func EngineGnpGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(42))
	return graph.Gnp(512, 0.05, rng)
}

// EnginePowerLawGraph is the skewed-degree engine workload graph (the
// social-network regime from the paper's intro).
func EnginePowerLawGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(43))
	return graph.BarabasiAlbert(512, 8, rng)
}

// EngineStepGnp floods a G(512, 0.05) graph every round.
func EngineStepGnp() func(*testing.B) {
	return func(b *testing.B) {
		engineStep(b, EngineGnpGraph(), func(int) sim.Node { return floodNode{} }, sim.Config{Seed: 1})
	}
}

// EngineStepPowerLaw floods a Barabasi-Albert graph every round.
func EngineStepPowerLaw() func(*testing.B) {
	return func(b *testing.B) {
		engineStep(b, EnginePowerLawGraph(), func(int) sim.Node { return floodNode{} }, sim.Config{Seed: 1})
	}
}

// sparseN, sparseBeacons and sparsePeriod size the sparse-activity
// workload: n large enough that an O(n) per-round scan dominates, with
// only sparseBeacons of the n nodes active each phase.
const (
	sparseN       = 4096
	sparseBeacons = 32
	sparsePeriod  = 16
)

// EngineStepSparse runs the phased low-activity workload under the given
// scheduler. The dense/activity pair isolates the activity-scheduler
// speedup — the `speedup_sparse_activity_vs_dense` derived ratio that the
// regression gate holds at >= 2.
func EngineStepSparse(sched sim.Scheduler) func(*testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(44))
		g := graph.Gnp(sparseN, 8.0/float64(sparseN-1), rng)
		engineStep(b, g, func(id int) sim.Node {
			return sparseNode{period: sparsePeriod, beacon: id < sparseBeacons}
		}, sim.Config{Seed: 1, Scheduler: sched})
	}
}

// EngineStepFaulty runs the sparse-activity workload through the fault
// layer. faulty=false sets no plan at all — byte-for-byte the same engine
// configuration as EngineStepSparse/activity, re-measured under its own
// name so the `fault_nilplan_vs_sparse` same-run ratio pins the fault
// layer's zero-overhead contract: with Config.Faults nil every hot path
// must stay on the fault-free branch, so the ratio sits at ~1.0 and the
// gate floors it at 0.85. faulty=true arms per-link loss and bounded
// delay (the stateless per-(round,edge) coin regime — no crashes, which
// would change the workload itself by silencing beacons); its ratio
// against nilplan records what fault arithmetic actually costs per round.
func EngineStepFaulty(faulty bool) func(*testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(44))
		g := graph.Gnp(sparseN, 8.0/float64(sparseN-1), rng)
		cfg := sim.Config{Seed: 1, Scheduler: sim.SchedulerActivity}
		if faulty {
			cfg.Faults = &faults.Plan{Seed: 7, Loss: 0.1, DelayMax: 2}
		}
		engineStep(b, g, func(id int) sim.Node {
			return sparseNode{period: sparsePeriod, beacon: id < sparseBeacons}
		}, cfg)
	}
}

// --- Checkpoint workloads -----------------------------------------------

// checkpointWarmRounds is where the checkpoint benches snapshot the sparse
// workload: deep enough that re-running from round 0 (the coldstart
// alternative a resume competes with) does real work — node init plus
// checkpointWarmRounds/sparsePeriod active phases.
const checkpointWarmRounds = 4096

// checkpointEngine builds the sparse-beacon engine the checkpoint benches
// run on (activity scheduler: the regime checkpointed jobs live in).
func checkpointEngine(b *testing.B, g *graph.Graph) *sim.Engine {
	b.Helper()
	nodes := make([]sim.Node, g.N())
	for v := range nodes {
		nodes[v] = sparseNode{period: sparsePeriod, beacon: v < sparseBeacons}
	}
	eng, err := sim.NewEngine(g, nodes, sim.Config{Seed: 1, Scheduler: sim.SchedulerActivity})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func checkpointGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(44))
	return graph.Gnp(sparseN, 8.0/float64(sparseN-1), rng)
}

// CheckpointSave measures Engine.Snapshot on the warmed sparse workload:
// one op is one full-state serialization (bytes/sec is the container
// encode throughput).
func CheckpointSave() func(*testing.B) {
	return func(b *testing.B) {
		eng := checkpointEngine(b, checkpointGraph())
		eng.Run(checkpointWarmRounds)
		payload, err := eng.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(payload))*float64(b.N)/b.Elapsed().Seconds(), "bytes/sec")
	}
}

// CheckpointRestore measures the resume path end to end: build a fresh
// engine and restore the round-checkpointWarmRounds snapshot into it. Its
// ratio against CheckpointColdstart is the subsystem's reason to exist —
// the `checkpoint_restore_vs_coldstart` floor the regression gate holds at
// >= 2.
func CheckpointRestore() func(*testing.B) {
	return func(b *testing.B) {
		g := checkpointGraph()
		warm := checkpointEngine(b, g)
		warm.Run(checkpointWarmRounds)
		payload, err := warm.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := checkpointEngine(b, g)
			if err := eng.Restore(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(payload))*float64(b.N)/b.Elapsed().Seconds(), "bytes/sec")
	}
}

// CheckpointColdstart measures the alternative a restore competes with:
// build a fresh engine and re-run it from round 0 to the checkpoint round.
func CheckpointColdstart() func(*testing.B) {
	return func(b *testing.B) {
		g := checkpointGraph()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := checkpointEngine(b, g)
			eng.Run(checkpointWarmRounds)
		}
	}
}

// --- Large-graph workloads ----------------------------------------------

// The large suite is the million-node scale proof: one shared sparse
// G(10^6, p) graph (expected mean degree largeMeanDegree, ~4M edges) is
// generated once per process, written to a temp directory in both the text
// edge-list and binary CSR formats, and every bench loads or steps that
// graph. LargeLoad/{text,csrbin} measure the two ingest paths end to end —
// the csrbin-vs-text ratio is the mmap pipeline's gate floor — and
// EngineStepLarge/{seq,sharded} measure steady-state rounds over it, the
// sharded engine's reason to exist.
const (
	largeN          = 1_000_000
	largeMeanDegree = 8
	// largeBeaconStride spreads the active nodes uniformly over the id
	// space, so every contiguous shard owns an equal slice of the work.
	largeBeaconStride = 50
	largeShards       = 4
)

var largeState struct {
	once     sync.Once
	g        *graph.Graph
	dir      string
	txt, bin string
	err      error
}

// largeWorkload returns the shared million-node graph and its on-disk text
// and csrbin forms, building them on first use.
func largeWorkload(b *testing.B) (g *graph.Graph, txt, bin string) {
	b.Helper()
	largeState.once.Do(func() {
		rng := rand.New(rand.NewSource(46))
		largeState.g = graph.Gnp(largeN, float64(largeMeanDegree)/float64(largeN-1), rng)
		dir, err := os.MkdirTemp("", "repro-perf-large")
		if err != nil {
			largeState.err = err
			return
		}
		largeState.dir = dir
		largeState.txt = filepath.Join(dir, "large.txt")
		largeState.bin = filepath.Join(dir, "large.csrbin")
		largeState.err = writeLargeFiles(largeState.g, largeState.txt, largeState.bin)
	})
	if largeState.err != nil {
		b.Fatal(largeState.err)
	}
	return largeState.g, largeState.txt, largeState.bin
}

// RemoveLargeFiles removes the large suite's temporary graph files, about
// 87 MB, if this process wrote them; the suite cannot run again after it.
// cmd/bench calls it before it returns, and the root package's TestMain
// after its tests and benchmarks.
func RemoveLargeFiles() error {
	if largeState.dir == "" {
		return nil
	}
	return os.RemoveAll(largeState.dir)
}

func writeLargeFiles(g *graph.Graph, txt, bin string) error {
	f, err := os.Create(txt)
	if err != nil {
		return err
	}
	err = graph.WriteEdgeList(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f, err = os.Create(bin)
	if err != nil {
		return err
	}
	err = graph.WriteCSRBinary(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LargeLoadText measures the text ingest path on the million-node file:
// streamed parse, sort, and the map-free FromSortedEdges build.
func LargeLoadText() func(*testing.B) {
	return func(b *testing.B) {
		g, txt, _ := largeWorkload(b)
		m := g.M()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(txt)
			if err != nil {
				b.Fatal(err)
			}
			lg, err := graph.ReadEdgeList(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if lg.M() != m {
				b.Fatalf("loaded m=%d, want %d", lg.M(), m)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
	}
}

// LargeLoadCSRBin measures the binary ingest path on the same graph:
// OpenCSRBinary's mmap + cheap-validation load (which walks every offset
// and target once, so the mapped pages are honestly touched).
func LargeLoadCSRBin() func(*testing.B) {
	return func(b *testing.B) {
		g, _, bin := largeWorkload(b)
		m := g.M()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cf, err := graph.OpenCSRBinary(bin)
			if err != nil {
				b.Fatal(err)
			}
			lm := cf.Graph().M()
			if err := cf.Close(); err != nil {
				b.Fatal(err)
			}
			if lm != m {
				b.Fatalf("loaded m=%d, want %d", lm, m)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
	}
}

// largeNode is the million-node engine workload: every largeBeaconStride-th
// node unicasts one word to each neighbor every round; everyone else sleeps
// and is woken only to consume deliveries. Per round that is ~(n/stride)·deg
// sends and as many deliveries, all on per-channel unicast queues — the
// traffic the sharded delivery/staging machinery owns (broadcast delivery
// runs on the sequential spine and would hide it) — while most of the id
// space stays idle as it would in the paper's sparse regime.
type largeNode struct{ beacon bool }

func (s largeNode) Init(ctx *sim.Context) {
	if !s.beacon {
		ctx.SleepUntil(math.MaxInt32)
	}
}

func (s largeNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	if s.beacon {
		w := sim.Word(ctx.ID())
		for i := 0; i < ctx.CommDegree(); i++ {
			ctx.Send(i, w)
		}
		return
	}
	ctx.SleepUntil(math.MaxInt32)
}

// EngineStepLarge measures steady-state rounds on the million-node graph
// with the given shard count (0 = the unsharded engine).
func EngineStepLarge(shards int) func(*testing.B) {
	return func(b *testing.B) {
		g, _, _ := largeWorkload(b)
		engineStep(b, g, func(id int) sim.Node { return largeNode{beacon: id%largeBeaconStride == 0} },
			sim.Config{Seed: 1, Shards: shards})
	}
}

// nbrListN is the node count of the neighbour-list exchange workload: at
// mean degree 8 its ~800k channels' state is far larger than a CPU cache.
const nbrListN = 100_000

var nbrListState struct {
	once sync.Once
	g    *graph.Graph
}

// nbrListNode broadcasts its neighbour list in Init and finishes, and
// folds every word it receives into a digest: the paper's two-hop
// baseline (every node streams its list to every neighbour) in miniature.
// It keeps the list's words across runs, so a warm exchange allocates
// nothing.
type nbrListNode struct {
	list   []sim.Word
	digest uint64
}

func (h *nbrListNode) Init(ctx *sim.Context) {
	h.list = h.list[:0]
	for _, u := range ctx.InputNeighbors() {
		h.list = append(h.list, sim.Word(u))
	}
	ctx.Broadcast(h.list...)
	ctx.SetDone()
}

func (h *nbrListNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	for _, d := range inbox {
		for _, w := range d.Words {
			h.digest = h.digest*31 + w ^ uint64(d.From)
		}
	}
}

// EngineNbrList measures one two-hop exchange on gnp(10^5, 8/n) with the
// given shard count (0 = the unsharded engine): every node broadcasts its
// neighbour list at B=2 and the engine runs until every channel drains.
// One op is one whole exchange on a reset engine. Unlike EngineStepLarge,
// whose every queue drains each round, the queues here stay backlogged for
// the d_max/2 rounds the longest lists take, so each round pops from
// channel state that does not fit in cache: a regression in delivery
// locality shows here first. It is not in Suites, so the regression gate
// does not run it.
func EngineNbrList(shards int) func(*testing.B) {
	return func(b *testing.B) {
		nbrListState.once.Do(func() {
			rng := rand.New(rand.NewSource(47))
			nbrListState.g = graph.Gnp(nbrListN, 8.0/float64(nbrListN-1), rng)
		})
		g := nbrListState.g
		nodes := make([]sim.Node, g.N())
		for v := range nodes {
			nodes[v] = &nbrListNode{}
		}
		eng, err := sim.NewEngine(g, nodes, sim.Config{Seed: 1, BandwidthWords: 2, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		exchange := func(seed int64) {
			if err := eng.Rebind(eng.Input(), nodes, sim.Config{Seed: seed, BandwidthWords: 2, Shards: shards}); err != nil {
				b.Fatal(err)
			}
			if err := eng.RunUntilQuiescent(); err != nil {
				b.Fatal(err)
			}
		}
		// Grow the arenas, queues and inboxes. Every exchange sends into the
		// same arena halves (see arena.go), so one warms them.
		exchange(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exchange(int64(i + 1))
		}
		b.StopTimer()
		words := eng.Metrics().WordsDelivered
		b.ReportMetric(float64(words)*float64(b.N)/b.Elapsed().Seconds(), "words/sec")
	}
}

// largeJobN is the node count of the LargeJob workload graph, gnp(10^5,
// 8/n): the size of the benchmark harness's large graph.
const largeJobN = 100_000

// LargeJob measures one twohop job on gnp(10^5, 8/n), without
// verification. With shards 0 the job runs through a congest.Session,
// which places it: GOMAXPROCS shards on a graph this size. With shards
// ≥ 1 the same twohop handlers run on the session's graph through a
// core.EngineCache pinned to that many shards, skipping only the
// session's Result conversion. One op is one job on a warm pooled engine.
// LargeJob(1) over LargeJob(0) is the `speedup_large_job_auto_vs_one_shard`
// floor: placement must pay where there are CPUs to place on.
func LargeJob(shards int) func(*testing.B) {
	return func(b *testing.B) {
		sess := congest.NewSession()
		spec := congest.JobSpec{
			Graph:  congest.GraphSpec{Generator: "gnp", N: largeJobN, P: 8.0 / largeJobN, Seed: 47},
			Algo:   "twohop",
			Seed:   1,
			Verify: congest.VerifyNone,
		}
		g, err := sess.Graph(spec.Graph)
		if err != nil {
			b.Fatal(err)
		}
		engines := core.NewEngineCache()
		run := func() {
			if shards == 0 {
				_, err = sess.Run(context.Background(), spec)
			} else {
				sched, h := baseline.NewTwoHop(2, g.MaxDegree())
				_, err = engines.RunSingle(g, sched, h, sim.Config{Seed: 1, Shards: shards})
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		run() // grow the pooled engine
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	}
}

// drawNode draws once from its private stream in Init and finishes, so
// every node's stream has moved when the run ends.
type drawNode struct{}

func (drawNode) Init(ctx *sim.Context) {
	ctx.RNG().Uint64()
	ctx.SetDone()
}

func (drawNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) { ctx.SetDone() }

// EngineResetLarge measures a same-graph Engine.Rebind of the million-node
// engine after a run in which every node drew: the rewind a pooled engine
// pays before each job, reseeding every node's stream.
func EngineResetLarge() func(*testing.B) {
	return func(b *testing.B) {
		g, _, _ := largeWorkload(b)
		nodes := make([]sim.Node, g.N())
		for v := range nodes {
			nodes[v] = drawNode{}
		}
		eng, err := sim.NewEngine(g, nodes, sim.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Rebind(eng.Input(), nodes, sim.Config{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Oracle workloads ---------------------------------------------------

// OracleGraph is the oracle workload: G(2048, 0.1) (~210k edges, ~1.4M
// triangles), large enough that worker sharding dominates setup.
func OracleGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(17))
	return graph.Gnp(2048, 0.1, rng)
}

// OracleList measures OracleScratch.ListTriangles on the oracle workload
// graph with the given worker count (0 = GOMAXPROCS, 1 = sequential).
func OracleList(workers int) func(*testing.B) {
	return func(b *testing.B) {
		g := OracleGraph()
		s := &graph.OracleScratch{Workers: workers}
		tris := len(s.ListTriangles(g)) // warm the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(s.ListTriangles(g)) != tris {
				b.Fatal("triangle count drifted")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(tris)*float64(b.N)/b.Elapsed().Seconds(), "triangles/sec")
	}
}

// OracleCount measures the streaming CountTriangles path (0 allocs/op on a
// warmed scratch).
func OracleCount(workers int) func(*testing.B) {
	return func(b *testing.B) {
		g := OracleGraph()
		s := &graph.OracleScratch{Workers: workers}
		tris := s.CountTriangles(g) // warm the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.CountTriangles(g) != tris {
				b.Fatal("triangle count drifted")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(tris)*float64(b.N)/b.Elapsed().Seconds(), "triangles/sec")
	}
}

// --- Sweep workload -----------------------------------------------------

// Sweep runs the e9 baseline sweep (the cheapest full experiment that still
// exercises graph generation, the engine and oracle verification per cell)
// with the given sweep-cell worker count.
func Sweep(workers int) func(*testing.B) {
	return func(b *testing.B) {
		e, err := expt.ByID("e9")
		if err != nil {
			b.Fatal(err)
		}
		cfg := expt.Config{Quick: true, Seed: 1, Workers: workers}
		cells := len(cfg.Sizes)
		if cells == 0 {
			cells = 4 // Quick default sizes
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
	}
}

// --- Dynamic-graph workload ---------------------------------------------

// dynamicBatch is the churn batch size: 1% of the workload graph's edges —
// the small-batch regime where delta maintenance must beat the recompute by
// a wide margin.
func dynamicBatch(g *graph.Graph) int { return g.M() / 100 }

// dynamicWarmBatches is how many churn batches DynamicApply applies before
// it starts timing.
const dynamicWarmBatches = 16

// DynamicApply measures per-batch churn cost on the oracle workload graph:
// incremental delta maintenance vs a full static recompute per batch.
func DynamicApply(incremental bool) func(*testing.B) {
	return func(b *testing.B) {
		g := OracleGraph()
		rng := rand.New(rand.NewSource(23))
		d := dynamic.FromGraph(g)
		w := dynamic.NewRandomFlip(dynamicBatch(g))
		scratch := graph.NewOracleScratch()
		var o *dynamic.IncrementalOracle
		if incremental {
			o = dynamic.NewIncrementalOracle(d)
		}
		apply := func() int {
			batch := w.Next(d, rng)
			if incremental {
				if _, err := o.Apply(batch); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := d.Apply(batch); err != nil {
					b.Fatal(err)
				}
				snap, _ := d.Snapshot()
				scratch.CountTriangles(snap)
			}
			return len(batch.Insert) + len(batch.Delete)
		}
		// Warm the oracle's and the recompute's scratch before timing, so
		// the growth is not charged to the first b.N batches and allocs/op
		// does not depend on b.N.
		for range dynamicWarmBatches {
			apply()
		}
		edges := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges += apply()
		}
		b.StopTimer()
		b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/sec")
	}
}

// --- Service workload ---------------------------------------------------

// serviceJobs is the per-op batch size: enough independent jobs that the
// worker pool, not per-submission bookkeeping, dominates each op.
const serviceJobs = 8

// serviceSpecs builds the batch of independent finding jobs the service
// throughput bench pushes per op — distinct seeds so no two jobs share a
// graph, VerifyNone so the oracle stays out of the measurement.
func serviceSpecs() []congest.JobSpec {
	specs := make([]congest.JobSpec, serviceJobs)
	for i := range specs {
		specs[i] = congest.JobSpec{
			Graph:  congest.GraphSpec{Generator: "gnp", N: 48, P: 0.5, Seed: int64(i + 1)},
			Algo:   "find",
			Seed:   int64(i + 1),
			Verify: congest.VerifyNone,
		}
	}
	return specs
}

// ServiceThroughput measures end-to-end job throughput through the service
// front end: one op submits serviceJobs independent jobs and waits for all
// of them, so the admission path, priority queue, worker pool and result
// plumbing are all on the measured path. workers=1 is the sequential
// reference; workers=0 gives the pool every CPU — their ratio is the
// `speedup_service_par_vs_seq` floor gating that the service layers don't
// eat the worker parallelism. Each job's result is checked byte-identical
// to the warmup run of the same spec, so the bench doubles as a
// determinism check under pool concurrency.
func ServiceThroughput(workers int) func(*testing.B) {
	return func(b *testing.B) {
		svc := congest.NewService(congest.WithWorkers(workers))
		defer svc.Close()
		specs := serviceSpecs()
		ctx := context.Background()
		// Warm one batch (graph generation, worker startup) and pin each
		// spec's ground-truth result bytes.
		want := make([][]byte, len(specs))
		for i, spec := range specs {
			j, err := svc.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			res, err := j.Wait(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if want[i], err = json.Marshal(res); err != nil {
				b.Fatal(err)
			}
		}
		jobs := make([]*congest.Job, len(specs))
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i, spec := range specs {
				j, err := svc.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				jobs[i] = j
			}
			for i, j := range jobs {
				res, err := j.Wait(ctx)
				if err != nil {
					b.Fatal(err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					b.Fatalf("job %d result drifted under the pool:\ngot:  %s\nwant: %s", i, got, want[i])
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(serviceJobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	}
}
