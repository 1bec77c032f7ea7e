package congest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/sim"
)

// modeFor maps an algorithm to its communication topology.
func modeFor(algo string) sim.Mode {
	switch algo {
	case "dolev", "dolev-deg", "dolev-relay":
		return sim.ModeClique
	case "bcast-twohop":
		return sim.ModeBroadcast
	default:
		return sim.ModeCONGEST
	}
}

// completeListers are the algorithms whose contract is listing T(G)
// entirely (the auto-verify listing set).
var completeListers = map[string]bool{
	"list": true, "twohop": true, "local": true, "dolev": true,
	"dolev-deg": true, "dolev-relay": true, "bcast-twohop": true,
}

// verifyModeFor resolves a spec's verification mode to the check that will
// run ("" means skip).
func verifyModeFor(spec JobSpec) string {
	switch spec.Verify {
	case VerifyNone:
		return ""
	case VerifyOneSided, VerifyListing, VerifyFinding:
		if spec.Algo == "count" || spec.Algo == "churn" {
			break // these have exactly one meaningful check
		}
		return spec.Verify
	}
	switch {
	case spec.Algo == "count":
		return "count"
	case spec.Algo == "churn":
		return "churn"
	case completeListers[spec.Algo]:
		return VerifyListing
	case spec.Algo == "find":
		return VerifyFinding
	default:
		return VerifyOneSided
	}
}

// engineConfig is the engine configuration spec runs under on g, in
// runJob and Replay alike. The shard count is placeShards' unless s.shards
// pins one; JobSpec.Shards and JobSpec.Parallel have no effect.
func (s *Session) engineConfig(spec JobSpec, g *graph.Graph) sim.Config {
	shards := s.shards
	if shards == 0 {
		shards = placeShards(g.N()+2*g.M(), runtime.GOMAXPROCS(0))
	}
	return sim.Config{Mode: modeFor(spec.Algo), BandwidthWords: spec.bandwidth(), Seed: spec.Seed,
		Shards: shards, Faults: spec.Faults.plan()}
}

// autoShardSize is the graph size n + 2m from which the session cuts a job
// into more than one shard. Below it a round's work is too small to pay
// for the cross-shard exchange: summed over a1, twohop and tester on a
// 2-CPU box, two shards lost to one up to gnp(1500, 8/n) (n + 2m ≈ 13k),
// tied at gnp(1750, 8/n) (≈ 15.5k) and won from gnp(2000, 8/n) (≈ 18k) on,
// by 1.4× at gnp(4000, 8/n). So each placed shard gets at least
// autoShardSize/2 of n + 2m. The Session doc quotes both values.
const autoShardSize = 1 << 14

// placeShards is the placement rule: a graph of size n + 2m below
// autoShardSize keeps the one-shard plan (0), and a larger one gets one
// shard per autoShardSize/2 of its size, at most procs and sim.MaxShards.
// The Session doc describes it.
func placeShards(size, procs int) int {
	if size < autoShardSize {
		return 0
	}
	return min(procs, size/(autoShardSize/2), sim.MaxShards)
}

// bandwidth resolves the spec's B through the engine's own defaulting.
func (s JobSpec) bandwidth() int {
	return sim.Config{BandwidthWords: s.Bandwidth}.Normalized().BandwidthWords
}

// epsFor resolves the heaviness exponent a spec implies for an algorithm
// with default exponent (pure, logCorrected) semantics.
func epsFor(spec JobSpec, n int, pure float64, logCorrected func(int) float64) float64 {
	if spec.Eps > 0 {
		return spec.Eps
	}
	if spec.LogCorrected {
		return logCorrected(n)
	}
	return pure
}

// runJob dispatches one validated job.
func (s *Session) runJob(ctx context.Context, spec JobSpec, obs Observer) (Result, error) {
	if spec.Algo == "churn" {
		return s.runChurn(ctx, spec, obs)
	}
	c, err := s.graph(spec.Graph)
	if err != nil {
		return Result{}, err
	}
	g := c.g
	cfg := s.engineConfig(spec, g)
	if spec.Algo == "count" {
		return s.runCount(ctx, spec, c, cfg, obs)
	}

	ab, err := buildAlgo(spec, g)
	if err != nil {
		return Result{}, err
	}
	ckMeta, ckPlan, err := checkpointPlanFor(spec, g, cfg)
	if err != nil {
		return Result{}, err
	}
	res, runErr := s.engines.Run(ctx, g, ab.segs, cfg, coreObs(obs), ckPlan)
	if runErr != nil && !res.Meta.Cancelled {
		return Result{}, runErr
	}

	meta := metaOf(spec, res.Meta, ab.eps, ab.reps)
	meta.Checkpoint = ckMeta
	meta.Faults = faultSummaryOf(spec.Faults)
	out := Result{
		Meta:          meta,
		Graph:         graphInfoOf(g),
		Metrics:       metricsOf(res.Metrics),
		Found:         len(res.Union) > 0,
		TriangleCount: len(res.Union),
		Triangles:     trianglesOf(res.Union, spec.MaxTriangles),
	}
	if spec.Faults != nil {
		out.Metrics.Faults = faultCountersOf(res.Metrics.Faults)
	}
	if runErr != nil {
		// Cancelled: the prefix result stands; verification would report a
		// meaningless incomplete listing, so it is skipped.
		return out, runErr
	}
	if mode := verifyModeFor(spec); mode != "" {
		out.Verify = s.verify(mode, c, res)
	}
	if spec.LowerBound {
		out.LowerBound = lowerBoundOf(g, res)
	}
	return out, nil
}

// algoBuild is one resolved algorithm: its segment sequence — one segment
// for a single-schedule algorithm — plus the resolved tunables the result
// meta reports.
type algoBuild struct {
	segs []core.Segment
	eps  float64
	reps int
}

// buildAlgo resolves a spec's algorithm into runnable form. It is shared
// by job execution and checkpoint replay, so both construct bit-identical
// node machines.
func buildAlgo(spec JobSpec, g *graph.Graph) (algoBuild, error) {
	n := g.N()
	b := spec.bandwidth()
	var ab algoBuild
	switch spec.Algo {
	case "list":
		opt := core.ListerOptions{Eps: spec.Eps, RepetitionsOverride: spec.Repetitions, LogCorrected: spec.LogCorrected}
		ab.eps = epsFor(spec, n, core.EpsListingPure, core.EpsListingLogCorrected)
		ab.reps = opt.Repetitions(n)
		segs, err := core.NewLister(n, b, opt)
		if err != nil {
			return ab, err
		}
		ab.segs = segs
	case "find":
		opt := core.FinderOptions{Eps: spec.Eps, Repetitions: spec.Repetitions, LogCorrected: spec.LogCorrected}
		ab.eps = epsFor(spec, n, core.EpsFindingPure, core.EpsFindingLogCorrected)
		if ab.reps = spec.Repetitions; ab.reps <= 0 {
			ab.reps = 5
		}
		segs, err := core.NewFinder(n, b, opt)
		if err != nil {
			return ab, err
		}
		ab.segs = segs
	case "a1":
		ab.eps = epsFor(spec, n, core.EpsFindingPure, core.EpsFindingLogCorrected)
		ab.segs = core.Single(core.NewA1(core.Params{N: n, Eps: ab.eps, B: b}))
	case "a2":
		ab.eps = epsFor(spec, n, core.EpsListingPure, core.EpsListingLogCorrected)
		sched, mk, err := core.NewA2(core.Params{N: n, Eps: ab.eps, B: b})
		if err != nil {
			return ab, err
		}
		ab.segs = core.Single(sched, mk)
	case "a3":
		ab.eps = epsFor(spec, n, core.EpsListingPure, core.EpsListingLogCorrected)
		ab.segs = core.Single(core.NewA3(core.Params{N: n, Eps: ab.eps, B: b}))
	case "axr":
		ab.eps = epsFor(spec, n, core.EpsListingPure, core.EpsListingLogCorrected)
		ab.segs = core.Single(core.NewAXR(core.Params{N: n, Eps: ab.eps, B: b}, core.AXROptions{}))
	case "twohop", "local", "bcast-twohop":
		ab.segs = core.Single(baseline.NewTwoHop(b, g.MaxDegree()))
	case "dolev", "dolev-deg", "dolev-relay":
		variant := baseline.DolevCubeRoot
		if spec.Algo == "dolev-deg" {
			variant = baseline.DolevDegreeAware
		}
		routing := baseline.DirectRouting
		if spec.Algo == "dolev-relay" {
			routing = baseline.RelayRouting
		}
		sched, mk, err := baseline.NewDolevRouted(g, b, variant, routing)
		if err != nil {
			return ab, err
		}
		ab.segs = core.Single(sched, mk)
	case "tester":
		probes := spec.Probes
		if probes <= 0 {
			probes = 16
		}
		ab.segs = core.Single(core.NewPropertyTester(n, b, probes))
	default:
		return ab, fmt.Errorf("congest: unhandled algorithm %q", spec.Algo)
	}
	return ab, nil
}

// verify runs the selected check against the centralized oracle. Listing
// and finding read |T(G)| from the graph's cache entry, c, and hand it to
// core's checks, which list T(G) only to name the first triangle an
// incomplete listing misses.
func (s *Session) verify(mode string, c cachedGraph, res core.Result) *VerifyReport {
	rep := &VerifyReport{Mode: mode, OK: true}
	var err error
	switch mode {
	case VerifyOneSided:
		err = core.VerifyOneSided(c.g, res)
	case VerifyListing:
		count := s.triangles(c)
		rep.OracleTriangles = &count
		err = core.VerifyListing(c.g, count, res)
	case VerifyFinding:
		count := s.triangles(c)
		rep.OracleTriangles = &count
		err = core.VerifyFinding(c.g, count, res)
	}
	if err != nil {
		rep.OK = false
		rep.Detail = err.Error()
	}
	return rep
}

// runCount executes the exact-counting job on a pooled engine
// (quiescence-driven, so its schedule is data dependent). obs receives
// every executed round; a count outputs no triangles and runs as one
// unannounced segment. A cancelled count returns the prefix it ran,
// without a count or a verification, and with ScheduledRounds 0: its
// schedule ends at a quiescence it never reached.
func (s *Session) runCount(ctx context.Context, spec JobSpec, c cachedGraph, cfg sim.Config, obs Observer) (Result, error) {
	g := c.g
	cres, err := s.engines.Count(ctx, g, 0, cfg, coreObs(obs))
	cancelled := err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
	if err != nil && !cancelled {
		return Result{}, err
	}
	out := Result{
		Meta: RunMeta{
			Algo: spec.Algo, Seed: spec.Seed, Bandwidth: spec.bandwidth(),
			Mode: modeName(cfg.Mode), Parallel: spec.Parallel,
			ScheduledRounds: cres.Rounds, ExecutedRounds: cres.Rounds,
		},
		Graph:   graphInfoOf(g),
		Metrics: metricsOf(cres.Metrics),
		Found:   cres.Count > 0,
		Count:   cres.Count,
	}
	if cancelled {
		out.Meta.ScheduledRounds, out.Meta.Cancelled = 0, true
		return out, err
	}
	if verifyModeFor(spec) != "" {
		out.Verify = countReport(s.triangles(c), s.rootTriangles(c), cres.Count)
	}
	return out, nil
}

// countReport checks a distributed count against root, the oracle's count
// of the triangles in vertex 0's connected component, where the count job
// counts. OracleTriangles reports |T(G)|, triangles.
func countReport(triangles, root int, count int64) *VerifyReport {
	rep := &VerifyReport{Mode: "count", OK: int64(root) == count, OracleTriangles: &triangles}
	if !rep.OK {
		rep.Detail = fmt.Sprintf("distributed count %d, oracle %d in root 0's component", count, root)
	}
	return rep
}

// runChurn executes the dynamic-graph churn job: the graph spec seeds a
// DynamicGraph, the workload generates one batch per epoch, and the
// incremental oracle maintains the triangle set. Each epoch is reported to
// the observer as a segment; born triangles stream through OnTriangle with
// node -1. Cancellation is honored at epoch boundaries.
func (s *Session) runChurn(ctx context.Context, spec JobSpec, obs Observer) (Result, error) {
	g, err := s.Graph(spec.Graph)
	if err != nil {
		return Result{}, err
	}
	cs := *spec.Churn
	if cs.BatchSize <= 0 {
		cs.BatchSize = g.N()
	}
	if cs.Epochs <= 0 {
		cs.Epochs = 4
	}
	// Every churn job mutates its own copy of the seed graph; the cached
	// graph is never touched.
	d := dynamic.FromGraph(g)
	o := dynamic.NewIncrementalOracle(d)
	w, err := dynamic.NewWorkloadByName(cs.Workload, d, cs.BatchSize, cs.Window)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	verifying := verifyModeFor(spec) != ""
	rep := &VerifyReport{Mode: "churn", OK: true}
	churn := &ChurnResult{Workload: cs.Workload}
	var runErr error
	for ep := 0; ep < cs.Epochs; ep++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		if obs != nil {
			obs.OnSegment(SegmentInfo{Index: ep, Name: fmt.Sprintf("epoch#%d", ep)})
		}
		delta, err := o.Apply(w.Next(d, rng))
		if err != nil {
			return Result{}, err
		}
		churn.Epochs++
		churn.Born += int64(len(delta.Born))
		churn.Died += int64(len(delta.Died))
		if obs != nil {
			for _, t := range delta.Born {
				obs.OnTriangle(-1, Triangle{t.A, t.B, t.C})
			}
		}
		if verifying && rep.OK {
			if full := o.FullCount(); int64(full) != o.Count() {
				rep.OK = false
				rep.Detail = fmt.Sprintf("epoch %d: incremental count %d, full recompute %d", ep, o.Count(), full)
			}
		}
	}
	churn.FinalCount = o.Count()
	final := o.ListTriangles()
	out := Result{
		Meta: RunMeta{
			Algo: spec.Algo, Seed: spec.Seed, Bandwidth: spec.bandwidth(),
			Mode: "dynamic", Cancelled: runErr != nil,
		},
		Graph:         graphInfoOf(g),
		Found:         len(final) > 0,
		TriangleCount: len(final),
		Triangles:     trianglesOf(graph.NewTriangleSet(final), spec.MaxTriangles),
		Churn:         churn,
	}
	if runErr != nil {
		return out, runErr
	}
	if verifying {
		if rep.OK {
			snap, _ := d.Snapshot()
			fresh := graph.ListTriangles(snap)
			graph.SortTriangles(fresh)
			count := len(fresh)
			rep.OracleTriangles = &count
			if !slices.Equal(final, fresh) {
				rep.OK = false
				rep.Detail = "final triangle set diverges from fresh oracle"
			}
		}
		out.Verify = rep
	}
	return out, nil
}

// lowerBoundOf runs the Theorem-3 information-chain analysis on a finished
// run.
func lowerBoundOf(g *graph.Graph, res core.Result) *LowerBoundReport {
	r := lower.Analyze(g, res.Outputs, res.Metrics)
	out := &LowerBoundReport{
		WNode:         r.WNode,
		TW:            r.TW,
		PTW:           r.PTW,
		BitsReceivedW: r.BitsReceivedW,
		InfoFloorBits: r.InfoFloorBits,
		RivinFloor:    r.RivinFloor,
		RoundFloor:    r.RoundFloor,
		OK:            true,
	}
	if err := r.Check(); err != nil {
		out.OK = false
		out.Detail = err.Error()
	}
	return out
}
