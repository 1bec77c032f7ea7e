package core

import (
	"math"

	"repro/internal/sim"
)

// Segment is one sub-algorithm inside a sequence: its schedule and the
// factory for its per-node state machine.
type Segment struct {
	Name  string
	Sched *sim.Schedule
	Mk    func(id int) sim.Node
}

// Single wraps a single-schedule algorithm as the one-segment sequence
// EngineCache.Run executes; its segment is named "run".
func Single(sched *sim.Schedule, mk func(id int) sim.Node) []Segment {
	return []Segment{{Name: "run", Sched: sched, Mk: mk}}
}

// SequenceRounds returns the total engine rounds a sequence needs: each
// segment occupies Sched.Total()+1 rounds (the +1 drains its final phase).
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

// NewSequenceNode composes sub-algorithm nodes to run back to back for node
// `id`. Sub-algorithms keep reasoning in their local rounds; the wrapper
// rebases rounds and sleep targets. Because segment k+1 starts only after
// segment k's drain round, no data from different segments ever interleaves.
func NewSequenceNode(segs []Segment, id int) sim.Node {
	starts := make([]int, len(segs))
	acc := 0
	for i, s := range segs {
		starts[i] = acc
		acc += TotalRounds(s.Sched)
	}
	subs := make([]sim.Node, len(segs))
	for i, s := range segs {
		subs[i] = s.Mk(id)
	}
	return &seqNode{subs: subs, starts: starts, end: acc}
}

type seqNode struct {
	subs    []sim.Node
	starts  []int
	end     int
	cur     int
	inited  bool
	allDone bool
}

func (s *seqNode) Init(ctx *sim.Context) {}

func (s *seqNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	if s.allDone {
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	// Advance to the segment containing this round.
	for s.cur+1 < len(s.starts) && round >= s.starts[s.cur+1] {
		s.cur++
		s.inited = false
	}
	if round >= s.end {
		s.allDone = true
		ctx.SetDone()
		return
	}
	start := s.starts[s.cur]
	segEnd := s.end
	if s.cur+1 < len(s.starts) {
		segEnd = s.starts[s.cur+1]
	}
	ctx.SetRoundOffset(start)
	if !s.inited {
		s.inited = true
		s.subs[s.cur].Init(ctx)
	}
	s.subs[s.cur].Round(ctx, round-start, inbox)
	ctx.SetRoundOffset(0)
	// A finished sub-algorithm must not stop the sequence, and its sleep
	// must not overshoot the next segment's first round.
	if s.cur+1 < len(s.subs) {
		ctx.ClearDone()
		if ctx.WakeAt() > segEnd {
			ctx.SleepUntil(segEnd)
		}
	}
}
