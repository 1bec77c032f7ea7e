package core

import (
	"repro/internal/sim"
)

// Segment is one sub-algorithm inside a sequence: its schedule and the
// factory for each vertex's phase handler. The factory runs n times when
// the segment is bound, just before its first round, so only one
// segment's handlers are alive at a time; a handler without per-vertex
// state may be returned for every vertex.
type Segment struct {
	Name    string
	Sched   *sim.Schedule
	Handler func(id int) PhaseHandler
}

// Single wraps a single-schedule algorithm as the one-segment sequence
// EngineCache.Run executes; its segment is named "run".
func Single(sched *sim.Schedule, h func(id int) PhaseHandler) []Segment {
	return []Segment{{Name: "run", Sched: sched, Handler: h}}
}

// SequenceRounds returns the total engine rounds a sequence needs: each
// segment occupies Sched.Total()+1 rounds (the +1 drains its final phase),
// and segment k+1 starts only after segment k's drain round, so no data
// from different segments interleaves in a fault-free run.
func SequenceRounds(segs []Segment) int {
	total := 0
	for _, s := range segs {
		total += TotalRounds(s.Sched)
	}
	return total
}

// SegmentPlan is one row of a sequence's round budget.
type SegmentPlan struct {
	Name   string
	Rounds int
}

// Plan returns the per-segment round budget of a sequence — the transparent
// decomposition of a composed algorithm's round complexity (each segment
// costs its schedule total plus one drain round).
func Plan(segs []Segment) []SegmentPlan {
	out := make([]SegmentPlan, len(segs))
	for i, s := range segs {
		out[i] = SegmentPlan{Name: s.Name, Rounds: TotalRounds(s.Sched)}
	}
	return out
}
