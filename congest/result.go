package congest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Triangle is one triangle in the public JSON form [a, b, c] with
// a < b < c.
type Triangle [3]int

// GraphInfo summarizes the input graph a job ran on.
type GraphInfo struct {
	N          int     `json:"n"`
	M          int     `json:"m"`
	MaxDegree  int     `json:"maxDegree"`
	MeanDegree float64 `json:"meanDegree"`
}

// Metrics is the communication accounting of a run, in serializable form.
type Metrics struct {
	// Rounds is the rounds executed.
	Rounds int `json:"rounds"`
	// ActiveRounds is the rounds in which at least one word moved.
	ActiveRounds int `json:"activeRounds"`
	// MessagesDelivered is the channel-round deliveries.
	MessagesDelivered int64 `json:"messagesDelivered"`
	// WordsDelivered is the total words moved.
	WordsDelivered int64 `json:"wordsDelivered"`
	// WordBits is ceil(log2 n), the bits per word.
	WordBits int `json:"wordBits"`
	// TotalBits is WordsDelivered * WordBits.
	TotalBits int64 `json:"totalBits"`
	// MaxNodeRecvBits is the largest per-node received-bit count (the
	// transcript length the Theorem-3 bound reasons about).
	MaxNodeRecvBits int64 `json:"maxNodeRecvBits"`
	// Faults aggregates the fault layer's interventions; present exactly
	// when the job carried a fault plan.
	Faults *FaultCounters `json:"faults,omitempty"`
}

// FaultCounters is the fault layer's intervention accounting for one run.
type FaultCounters struct {
	// NodesCrashed is the crash-stop kills applied.
	NodesCrashed int `json:"nodesCrashed"`
	// WordsLost is the words dropped by loss coins (bandwidth consumed).
	WordsLost int64 `json:"wordsLost"`
	// WordsDuplicated is the extra words delivered by duplication coins.
	WordsDuplicated int64 `json:"wordsDuplicated"`
	// WordsDroppedCrash is the words drained toward crashed receivers.
	WordsDroppedCrash int64 `json:"wordsDroppedCrash"`
	// DelayedDeliveries is the channel-round delivery attempts deferred by
	// delay arming.
	DelayedDeliveries int64 `json:"delayedDeliveries"`
}

// SegmentPlan is one row of a run's round budget.
type SegmentPlan struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
}

// RunMeta is a job result's provenance: the resolved tunables and the
// schedule actually executed, so every response is self-describing and
// reproducible from the meta alone.
type RunMeta struct {
	// Algo is the algorithm that ran.
	Algo string `json:"algo"`
	// Seed is the engine seed.
	Seed int64 `json:"seed"`
	// Bandwidth is the resolved B.
	Bandwidth int `json:"bandwidth"`
	// Mode is the communication topology: "congest", "clique" or
	// "broadcast".
	Mode string `json:"mode"`
	// Parallel echoes JobSpec.Parallel, which has no effect on execution.
	// It stays in the Result so stored Results re-encode to the bytes
	// they were acknowledged with.
	Parallel bool `json:"parallel,omitempty"`
	// Eps is the resolved heaviness exponent (0 for algorithms without
	// one).
	Eps float64 `json:"eps,omitempty"`
	// Repetitions is the resolved repetition count (find/list).
	Repetitions int `json:"repetitions,omitempty"`
	// ScheduledRounds is the scheduled (worst-case) duration — the
	// quantity the paper's bounds describe.
	ScheduledRounds int `json:"scheduledRounds"`
	// ExecutedRounds is the rounds actually run; less than ScheduledRounds
	// exactly when the job was cancelled.
	ExecutedRounds int `json:"executedRounds"`
	// FastForwardedRounds is the executed-vs-simulated provenance: how many
	// of ExecutedRounds were idle rounds the engine's activity scheduler
	// advanced in bulk instead of stepping (every node asleep, every
	// channel drained). It never affects results — outputs, metrics and
	// round counts are bit-identical to stepping each idle round.
	FastForwardedRounds int `json:"fastForwardedRounds,omitempty"`
	// Cancelled reports that the run stopped at a context cancellation;
	// the result then holds the deterministic prefix of the uncancelled
	// run.
	Cancelled bool `json:"cancelled,omitempty"`
	// Segments is the per-segment round budget.
	Segments []SegmentPlan `json:"segments,omitempty"`
	// Checkpoint is the job's checkpoint provenance (nil when the job
	// didn't checkpoint): where its snapshots live and under which spec
	// identity. Configuration only — a resumed job's Result is
	// byte-identical to the uninterrupted one.
	Checkpoint *CheckpointMeta `json:"checkpoint,omitempty"`
	// Faults is the fault-injection provenance (nil for fault-free jobs):
	// the plan's canonical identity and shape, so a faulty result is
	// self-describing. The intervention counts live in Metrics.Faults.
	Faults *FaultSummary `json:"faults,omitempty"`
}

// FaultSummary is the fault-plan provenance a faulty run's meta carries.
type FaultSummary struct {
	// Hash is the plan's canonical fingerprint (hex) — the identity engine
	// snapshots validate on checkpoint resume.
	Hash string `json:"hash"`
	// Crashes and DelayLinks count the plan's schedule entries; Loss, Dup
	// and DelayMax echo its rates.
	Crashes    int     `json:"crashes,omitempty"`
	Loss       float64 `json:"loss,omitempty"`
	Dup        float64 `json:"dup,omitempty"`
	DelayMax   int     `json:"delayMax,omitempty"`
	DelayLinks int     `json:"delayLinks,omitempty"`
}

// VerifyReport is the outcome of a job's verification pass.
type VerifyReport struct {
	// Mode is the check that ran: "one-sided", "listing", "finding",
	// "count" or "churn".
	Mode string `json:"mode"`
	// OK reports that the check passed. For the probabilistic algorithms a
	// false listing/finding check is a reported (allowed) miss, not an
	// error.
	OK bool `json:"ok"`
	// Detail describes a failed check.
	Detail string `json:"detail,omitempty"`
	// OracleTriangles is |T(G)| from the centralized oracle, when the
	// check computed it. A count is checked against the triangles of
	// vertex 0's connected component instead, which is |T(G)| on a
	// connected graph.
	OracleTriangles *int `json:"oracleTriangles,omitempty"`
}

// ChurnResult summarizes a churn job.
type ChurnResult struct {
	// Workload is the workload that generated the batches.
	Workload string `json:"workload"`
	// Epochs is the batches applied.
	Epochs int `json:"epochs"`
	// Born and Died count the triangle births and deaths across all
	// batches.
	Born int64 `json:"born"`
	Died int64 `json:"died"`
	// FinalCount is the maintained triangle count after the last batch.
	FinalCount int64 `json:"finalCount"`
}

// LowerBoundReport is the measured Theorem-3 information chain of a
// complete listing run (JobSpec.LowerBound).
type LowerBoundReport struct {
	// WNode is w(T), the node with the largest output set.
	WNode int `json:"wNode"`
	// TW is |T_w| and PTW is |P(T_w)|.
	TW  int `json:"tw"`
	PTW int `json:"ptw"`
	// BitsReceivedW is w's transcript length; InfoFloorBits is the
	// |P(T_w)| - (n-1) floor on it.
	BitsReceivedW int64 `json:"bitsReceivedW"`
	InfoFloorBits int64 `json:"infoFloorBits"`
	// RivinFloor is the Lemma-4 floor on |P(T_w)|; RoundFloor the implied
	// round floor for this run.
	RivinFloor float64 `json:"rivinFloor"`
	RoundFloor float64 `json:"roundFloor"`
	// OK reports that the chain's inequalities held (they must, for any
	// correct run).
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is the serializable outcome of one job.
type Result struct {
	// Meta is the run's provenance.
	Meta RunMeta `json:"meta"`
	// Graph summarizes the input graph.
	Graph GraphInfo `json:"graph"`
	// Metrics is the communication accounting.
	Metrics Metrics `json:"metrics"`
	// Found reports a nonempty output (a triangle was found / listed /
	// counted).
	Found bool `json:"found"`
	// TriangleCount is the number of distinct output triangles.
	TriangleCount int `json:"triangleCount"`
	// Triangles is the deduplicated, sorted output union, capped by
	// JobSpec.MaxTriangles.
	Triangles []Triangle `json:"triangles,omitempty"`
	// Count is the exact count reported by the counting job: the
	// triangles of vertex 0's connected component, counted at root 0.
	Count int64 `json:"count,omitempty"`
	// Verify is the verification outcome (nil when verification was off).
	Verify *VerifyReport `json:"verify,omitempty"`
	// Churn summarizes a churn job.
	Churn *ChurnResult `json:"churn,omitempty"`
	// LowerBound is the Theorem-3 analysis (JobSpec.LowerBound).
	LowerBound *LowerBoundReport `json:"lowerBound,omitempty"`
}

// modeName maps a sim topology to its public name.
func modeName(m sim.Mode) string {
	switch m {
	case sim.ModeClique:
		return "clique"
	case sim.ModeBroadcast:
		return "broadcast"
	default:
		return "congest"
	}
}

// graphInfoOf summarizes g.
func graphInfoOf(g *graph.Graph) GraphInfo {
	mean := 0.0
	if g.N() > 0 {
		mean = 2 * float64(g.M()) / float64(g.N())
	}
	return GraphInfo{N: g.N(), M: g.M(), MaxDegree: g.MaxDegree(), MeanDegree: mean}
}

// metricsOf converts engine metrics to the public form.
func metricsOf(m sim.Metrics) Metrics {
	_, maxRecv := m.MaxBitsReceived()
	return Metrics{
		Rounds:            m.Rounds,
		ActiveRounds:      m.ActiveRounds,
		MessagesDelivered: m.MessagesDelivered,
		WordsDelivered:    m.WordsDelivered,
		WordBits:          m.WordBits,
		TotalBits:         m.TotalBits(),
		MaxNodeRecvBits:   maxRecv,
	}
}

// faultCountersOf converts engine fault metrics to the public form.
func faultCountersOf(m sim.FaultMetrics) *FaultCounters {
	return &FaultCounters{
		NodesCrashed:      m.NodesCrashed,
		WordsLost:         m.WordsLost,
		WordsDuplicated:   m.WordsDuplicated,
		WordsDroppedCrash: m.WordsDroppedCrash,
		DelayedDeliveries: m.DelayedDeliveries,
	}
}

// faultSummaryOf builds the meta provenance for a fault spec; nil stays
// nil.
func faultSummaryOf(fs *FaultSpec) *FaultSummary {
	if fs == nil {
		return nil
	}
	return &FaultSummary{
		Hash:       fmt.Sprintf("%016x", faults.Fingerprint(fs.plan())),
		Crashes:    len(fs.Crashes),
		Loss:       fs.Loss,
		Dup:        fs.Dup,
		DelayMax:   fs.DelayMax,
		DelayLinks: len(fs.DelayLinks),
	}
}

// trianglesOf converts a triangle union in sorted order (Slice sorts),
// capping at max (0 = all, negative = none).
func trianglesOf(union graph.TriangleSet, max int) []Triangle {
	if max < 0 {
		return nil
	}
	ts := union.Slice()
	if max > 0 && len(ts) > max {
		ts = ts[:max]
	}
	out := make([]Triangle, len(ts))
	for i, t := range ts {
		out[i] = Triangle{t.A, t.B, t.C}
	}
	return out
}

// metaOf converts core run provenance, filling the algorithm-level fields.
func metaOf(spec JobSpec, m core.RunMeta, eps float64, reps int) RunMeta {
	segs := make([]SegmentPlan, len(m.Segments))
	for i, sp := range m.Segments {
		segs[i] = SegmentPlan{Name: sp.Name, Rounds: sp.Rounds}
	}
	return RunMeta{
		Algo:                spec.Algo,
		Seed:                m.Seed,
		Bandwidth:           m.BandwidthWords,
		Mode:                modeName(m.Mode),
		Parallel:            spec.Parallel,
		Eps:                 eps,
		Repetitions:         reps,
		ScheduledRounds:     m.ScheduledRounds,
		ExecutedRounds:      m.ExecutedRounds,
		FastForwardedRounds: m.FastForwardedRounds,
		Cancelled:           m.Cancelled,
		Segments:            segs,
	}
}
