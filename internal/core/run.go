package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// RunMeta is the provenance of one run: everything needed to reproduce it
// or to interpret its outcome without the call site in hand. Verification
// failures and server responses carry it so they are self-describing.
type RunMeta struct {
	// Seed is the engine seed the run used.
	Seed int64
	// BandwidthWords is the resolved B (after defaulting).
	BandwidthWords int
	// Mode is the communication topology the run executed under.
	Mode sim.Mode
	// ScheduledRounds is the algorithm's scheduled (worst-case) duration —
	// the quantity the paper's round-complexity bounds describe.
	ScheduledRounds int
	// ExecutedRounds is the rounds actually run; less than ScheduledRounds
	// exactly when the run was cancelled.
	ExecutedRounds int
	// FastForwardedRounds is how many of ExecutedRounds were idle rounds
	// the activity scheduler advanced through its fast path instead of
	// stepping (executed-vs-simulated provenance; see sim.Metrics). It is
	// scheduler provenance, not model behavior: every other field — and
	// every output — is identical whichever scheduler ran.
	FastForwardedRounds int
	// Cancelled reports that the run stopped at a context cancellation; the
	// Result then holds the deterministic prefix of the uncancelled run.
	Cancelled bool
	// Segments is the per-segment round budget the run followed.
	Segments []SegmentPlan
}

// Result bundles the outcome of one algorithm run.
type Result struct {
	// Outputs is each node's T_i in output order.
	Outputs [][]graph.Triangle
	// Union is the deduplicated combined output T.
	Union graph.TriangleSet
	// Metrics is the engine's communication accounting.
	Metrics sim.Metrics
	// ScheduledRounds is the algorithm's scheduled (worst-case) duration.
	// Equal to Meta.ScheduledRounds; kept as a top-level field for the many
	// sweep call sites that read it.
	ScheduledRounds int
	// Meta is the run's provenance.
	Meta RunMeta
}

// RunSingle executes a single-schedule algorithm on g.
func RunSingle(g *graph.Graph, sched *sim.Schedule, mk func(id int) sim.Node, cfg sim.Config) (Result, error) {
	return RunSingleContext(context.Background(), g, sched, mk, cfg, nil)
}

// RunSingleContext is RunSingle with cancellation and streaming
// observation. Cancellation is honored at round boundaries only: the
// returned Result is then the deterministic prefix of the uncancelled run
// (same seed, same everything) up to ExecutedRounds, and the error is
// ctx.Err().
func RunSingleContext(ctx context.Context, g *graph.Graph, sched *sim.Schedule, mk func(id int) sim.Node, cfg sim.Config, obs Observer) (Result, error) {
	nodes := make([]sim.Node, g.N())
	for v := range nodes {
		nodes[v] = mk(v)
	}
	return runNodes(ctx, g, nodes, singlePlan(sched), cfg, obs)
}

// singlePlan wraps one schedule as a one-segment plan.
func singlePlan(sched *sim.Schedule) []SegmentPlan {
	return []SegmentPlan{{Name: "run", Rounds: TotalRounds(sched)}}
}

// errEmptySequence rejects zero-segment sequence runs.
var errEmptySequence = errors.New("core: empty segment sequence")

// RunSequence executes a sequence of segments (e.g. the Theorem-1 finder's
// repeated A1;A3) on g.
func RunSequence(g *graph.Graph, segs []Segment, cfg sim.Config) (Result, error) {
	return RunSequenceContext(context.Background(), g, segs, cfg, nil)
}

// RunSequenceContext is RunSequence with cancellation and streaming
// observation (see RunSingleContext for the cancellation contract).
func RunSequenceContext(ctx context.Context, g *graph.Graph, segs []Segment, cfg sim.Config, obs Observer) (Result, error) {
	if len(segs) == 0 {
		return Result{}, errEmptySequence
	}
	nodes := make([]sim.Node, g.N())
	for v := range nodes {
		nodes[v] = NewSequenceNode(segs, v)
	}
	return runNodes(ctx, g, nodes, Plan(segs), cfg, obs)
}

func runNodes(ctx context.Context, g *graph.Graph, nodes []sim.Node, plan []SegmentPlan, cfg sim.Config, obs Observer) (Result, error) {
	eng, err := sim.NewEngine(g, nodes, cfg)
	if err != nil {
		return Result{}, err
	}
	return runPlanned(ctx, eng, plan, obs, nil)
}

// runPlanned drives an initialized engine through the plan, streaming to
// obs and assembling the Result from the same observation stream (the
// collector). On cancellation it returns the partial Result together with
// ctx.Err(); the partial Result is bit-identical to the same run truncated
// at the same round.
//
// With a CheckpointPlan, execution is additionally chunked at Every-round
// boundaries (snapshots only exist at round boundaries, where engine
// staging is drained in every shard), a resume restores the engine and
// skips everything before the resume round, and a cancellation persists
// the boundary it stopped at. A resumed run emits exactly the suffix of
// the uninterrupted run's observation stream: segments that ended before
// the resume point are silent, and the segment containing it announces
// itself only when the resume lands exactly on its first round.
func runPlanned(ctx context.Context, eng *sim.Engine, plan []SegmentPlan, obs Observer, ckpt *CheckpointPlan) (Result, error) {
	col := newCollector(eng.Input().N())
	resumeRound := 0
	if ckpt != nil && ckpt.Resume != nil {
		if err := eng.Restore(ckpt.Resume.Payload); err != nil {
			return Result{}, err
		}
		resumeRound = eng.Round()
		// Outputs recorded before the snapshot were already streamed by the
		// checkpointing run; re-seed the collector directly so the
		// materialized Result matches the uninterrupted run's.
		for v, ts := range eng.Outputs() {
			for _, t := range ts {
				col.add(v, t)
			}
		}
	}
	eng.SetHooks(hooksFor(col, obs))
	cfg := eng.Config()
	scheduled := 0
	for _, sp := range plan {
		scheduled += sp.Rounds
	}
	saveAt := func(round int) error {
		payload, err := eng.Snapshot()
		if err != nil {
			return fmt.Errorf("core: checkpoint at round %d: %w", round, err)
		}
		if err := ckpt.Save(round, payload); err != nil {
			return fmt.Errorf("core: checkpoint at round %d: %w", round, err)
		}
		return nil
	}
	// A boundary where every round since the last save was fast-forwarded
	// left the engine state untouched except the round counter: the previous
	// checkpoint plus the (cheap) fast-forward replay already reproduces it.
	// Skipping those saves keeps long idle tails from writing thousands of
	// identical containers.
	lastSave, lastSaveFF := resumeRound, eng.FastForwardedRounds()
	idleSince := func(round int) bool {
		return eng.FastForwardedRounds()-lastSaveFF == round-lastSave
	}
	var runErr error
	start := 0
	for i, sp := range plan {
		end := start + sp.Rounds
		if end <= resumeRound {
			start = end // segment fully behind the resume point
			continue
		}
		if obs != nil && resumeRound <= start {
			obs.OnSegment(SegmentInfo{Index: i, Name: sp.Name, StartRound: start, Rounds: sp.Rounds})
		}
		for cur := max(start, resumeRound); cur < end; {
			next := end
			if ckpt != nil && ckpt.Every > 0 {
				if b := (cur/ckpt.Every + 1) * ckpt.Every; b < next {
					next = b
				}
			}
			if err := eng.RunContext(ctx, next-cur); err != nil {
				runErr = err
				break
			}
			cur = next
			if ckpt != nil && ckpt.Save != nil && ckpt.Every > 0 && cur%ckpt.Every == 0 && cur < scheduled && !idleSince(cur) {
				if err := saveAt(cur); err != nil {
					return Result{}, err
				}
				lastSave, lastSaveFF = cur, eng.FastForwardedRounds()
			}
		}
		if runErr != nil {
			break
		}
		start = end
	}
	if runErr != nil && ckpt != nil && ckpt.Save != nil {
		// Preemption: persist the boundary the cancellation stopped at, so
		// a resumed run continues exactly here.
		if err := saveAt(eng.Round()); err != nil {
			return Result{}, err
		}
	}
	metrics := eng.Metrics()
	res := Result{
		Outputs:         col.outputs,
		Union:           col.union,
		Metrics:         metrics,
		ScheduledRounds: scheduled,
		Meta: RunMeta{
			Seed:                cfg.Seed,
			BandwidthWords:      cfg.BandwidthWords,
			Mode:                cfg.Mode,
			ScheduledRounds:     scheduled,
			ExecutedRounds:      eng.Round(),
			FastForwardedRounds: metrics.FastForwardedRounds,
			Cancelled:           runErr != nil,
			Segments:            plan,
		},
	}
	if runErr != nil {
		return res, runErr
	}
	// Fault plans legitimately leave words queued at the end of the
	// schedule (delay-armed edges, bursts toward crashed receivers), so
	// the phase-budget assertion only holds for fault-free runs.
	if pend := eng.PendingWords(); pend != 0 && cfg.Faults.Empty() {
		return Result{}, fmt.Errorf("core: %d words still queued after scheduled %d rounds (phase budget bug)", pend, scheduled)
	}
	return res, nil
}

// FindTriangles runs the Theorem-1 finder on g and reports whether a
// triangle was found (plus the full result).
func FindTriangles(g *graph.Graph, opt FinderOptions, cfg sim.Config) (bool, Result, error) {
	return FindTrianglesContext(context.Background(), g, opt, cfg, nil)
}

// FindTrianglesContext is FindTriangles with cancellation and streaming
// observation.
func FindTrianglesContext(ctx context.Context, g *graph.Graph, opt FinderOptions, cfg sim.Config, obs Observer) (bool, Result, error) {
	segs, err := NewFinder(g.N(), bandwidthOf(cfg), opt)
	if err != nil {
		return false, Result{}, err
	}
	res, err := RunSequenceContext(ctx, g, segs, cfg, obs)
	if err != nil {
		return false, res, err
	}
	return len(res.Union) > 0, res, nil
}

// ListAllTriangles runs the Theorem-2 lister on g.
func ListAllTriangles(g *graph.Graph, opt ListerOptions, cfg sim.Config) (Result, error) {
	return ListAllTrianglesContext(context.Background(), g, opt, cfg, nil)
}

// ListAllTrianglesContext is ListAllTriangles with cancellation and
// streaming observation.
func ListAllTrianglesContext(ctx context.Context, g *graph.Graph, opt ListerOptions, cfg sim.Config, obs Observer) (Result, error) {
	segs, err := NewLister(g.N(), bandwidthOf(cfg), opt)
	if err != nil {
		return Result{}, err
	}
	return RunSequenceContext(ctx, g, segs, cfg, obs)
}

func bandwidthOf(cfg sim.Config) int {
	if cfg.BandwidthWords > 0 {
		return cfg.BandwidthWords
	}
	return 2
}

// VerifyOneSided checks the model's one-sided-error requirement: every
// output triple must be a triangle of g. It returns the first violation.
func VerifyOneSided(g *graph.Graph, res Result) error {
	for node, ts := range res.Outputs {
		for _, t := range ts {
			if !t.Valid() || !g.HasEdge(t.A, t.B) || !g.HasEdge(t.A, t.C) || !g.HasEdge(t.B, t.C) {
				return fmt.Errorf("node %d output non-triangle %v", node, t)
			}
		}
	}
	return nil
}

// VerifyListing checks that the run listed T(G) completely (and one-sided).
// The oracle pass runs sequentially: verification is routinely called from
// already-parallel sweep cells, where a nested GOMAXPROCS-wide oracle would
// oversubscribe the CPU. Callers that hold a triangle list (e.g. from a
// worker-bounded OracleScratch) should use VerifyListingAgainst instead.
func VerifyListing(g *graph.Graph, res Result) error {
	s := graph.OracleScratch{Workers: 1}
	return VerifyListingAgainst(g, s.ListTriangles(g), res)
}

// VerifyListingAgainst is VerifyListing with a caller-supplied ground-truth
// triangle list, so one oracle pass can serve several checks.
func VerifyListingAgainst(g *graph.Graph, truth []graph.Triangle, res Result) error {
	if err := VerifyOneSided(g, res); err != nil {
		return err
	}
	for _, t := range truth {
		if !res.Union.Has(t) {
			return fmt.Errorf("triangle %v of G missing from output (got %d of %d)", t, len(res.Union), len(truth))
		}
	}
	return nil
}

// VerifyFinding checks the finding contract: one-sided outputs, and a
// nonempty output whenever G has a triangle. Like VerifyListing, the oracle
// count runs sequentially; callers that already know |T(G)| should use
// VerifyFindingWithCount.
func VerifyFinding(g *graph.Graph, res Result) error {
	s := graph.OracleScratch{Workers: 1}
	return VerifyFindingWithCount(g, s.CountTriangles(g), res)
}

// VerifyFindingWithCount is VerifyFinding with a caller-supplied |T(G)|.
func VerifyFindingWithCount(g *graph.Graph, triangles int, res Result) error {
	if err := VerifyOneSided(g, res); err != nil {
		return err
	}
	if triangles > 0 && len(res.Union) == 0 {
		return fmt.Errorf("G has triangles but none was found")
	}
	return nil
}
