package core

import (
	"context"
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

// runPlanned drives an initialized engine through segs on d, its node,
// streaming to obs. The Result's outputs are copied from the engine's
// per-node output lists once the last round has run, and its union is
// built from that copy, so a resumed run's Result includes the outputs
// restored with the snapshot. On cancellation it returns the partial
// Result together with ctx.Err(); the partial Result is bit-identical to
// the same run truncated at the same round.
//
// At every round boundary the bound segment is the one that holds the
// next round: segment i+1 is bound right after segment i's last round,
// before any save at that boundary, and a resume binds the segment that
// holds its round before restoring into it. A snapshot therefore records
// exactly the handlers a restore reads back.
//
// With a CheckpointPlan, execution is additionally chunked at Every-round
// boundaries (snapshots only exist at round boundaries, where engine
// staging is drained in every shard), a resume restores the engine and
// skips everything before the resume round, and a cancellation persists
// the boundary it stopped at. A resumed run emits exactly the suffix of
// the uninterrupted run's observation stream: segments that ended before
// the resume point are silent, and the segment containing it announces
// itself only when the resume lands exactly on its first round.
func runPlanned(ctx context.Context, eng *sim.Engine, d *phasedRun, segs []Segment, obs Observer, ckpt *CheckpointPlan) (Result, error) {
	plan := Plan(segs)
	// starts[i] is segment i's first round; starts[len(segs)] is the
	// scheduled total.
	starts := make([]int, len(plan)+1)
	for i, sp := range plan {
		starts[i+1] = starts[i] + sp.Rounds
	}
	scheduled := starts[len(plan)]
	bind := func(i int) { d.bind(segs[i], starts[i], i == len(segs)-1) }
	resumeRound, first := 0, 0
	if ckpt != nil && ckpt.Resume != nil {
		resumeRound = ckpt.Resume.Round
		for first+1 < len(segs) && starts[first+1] <= resumeRound {
			first++
		}
		bind(first)
		if err := eng.Restore(ckpt.Resume.Payload); err != nil {
			return Result{}, err
		}
		if got := eng.Round(); got != resumeRound {
			return Result{}, fmt.Errorf("core: resume point at round %d holds a snapshot of round %d: %w", resumeRound, got, sim.ErrBadSnapshot)
		}
	} else {
		bind(0)
	}
	eng.SetHooks(hooksFor(obs))
	cfg := eng.Config()
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
	for i := first; i < len(segs) && runErr == nil; i++ {
		start, end := starts[i], starts[i+1]
		if obs != nil && resumeRound <= start {
			obs.OnSegment(SegmentInfo{Index: i, Name: plan[i].Name, StartRound: start, Rounds: plan[i].Rounds})
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
			if cur == end && i+1 < len(segs) {
				bind(i + 1)
			}
			if ckpt != nil && ckpt.Save != nil && ckpt.Every > 0 && cur%ckpt.Every == 0 && cur < scheduled && !idleSince(cur) {
				if err := saveAt(cur); err != nil {
					return Result{}, err
				}
				lastSave, lastSaveFF = cur, eng.FastForwardedRounds()
			}
		}
	}
	if runErr != nil && ckpt != nil && ckpt.Save != nil {
		// Preemption: persist the boundary the cancellation stopped at, so
		// a resumed run continues exactly here.
		if err := saveAt(eng.Round()); err != nil {
			return Result{}, err
		}
	}
	metrics := eng.Metrics()
	outputs := eng.Outputs()
	union := make(graph.TriangleSet)
	for _, ts := range outputs {
		for _, t := range ts {
			union.Add(t)
		}
	}
	res := Result{
		Outputs:         outputs,
		Union:           union,
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

// VerifyListing checks that the run listed T(G) completely and one-sided,
// given triangles = |T(G)|. Once every output is a triangle of g, the union
// is a subset of T(G), so it is all of T(G) iff it holds triangles members.
// Only on a mismatch does it list T(G), to name the first triangle, in the
// oracle's order, that the union misses; a count that disagrees with a
// one-sided union missing nothing is an error too, since it is not |T(G)|.
func VerifyListing(g *graph.Graph, triangles int, res Result) error {
	if err := VerifyOneSided(g, res); err != nil {
		return err
	}
	if len(res.Union) == triangles {
		return nil
	}
	truth := graph.ListTriangles(g)
	for _, t := range truth {
		if !res.Union.Has(t) {
			return fmt.Errorf("triangle %v of G missing from output (got %d of %d)", t, len(res.Union), len(truth))
		}
	}
	return fmt.Errorf("given |T(G)| = %d, but the one-sided output lists all %d triangles of G", triangles, len(truth))
}

// VerifyFinding checks the finding contract, given triangles = |T(G)|:
// one-sided outputs, and a nonempty output whenever G has a triangle.
func VerifyFinding(g *graph.Graph, triangles int, res Result) error {
	if err := VerifyOneSided(g, res); err != nil {
		return err
	}
	if triangles > 0 && len(res.Union) == 0 {
		return fmt.Errorf("G has triangles but none was found")
	}
	return nil
}
