package congest

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// SegmentInfo announces one segment of a run's schedule (for churn jobs,
// one epoch) to an Observer.
type SegmentInfo struct {
	// Index is the segment's position (0-based).
	Index int `json:"index"`
	// Name is the segment name (e.g. "a2#3"; "run" for single-schedule
	// runs; "epoch#k" for churn).
	Name string `json:"name"`
	// StartRound is the engine round at which the segment begins.
	StartRound int `json:"startRound"`
	// Rounds is the segment's scheduled duration.
	Rounds int `json:"rounds"`
}

// RoundDelta is the communication that moved during one round.
type RoundDelta struct {
	Messages int64 `json:"messages"`
	Words    int64 `json:"words"`
	Moved    bool  `json:"moved"`
}

// Observer streams a job's progress as it runs, instead of (or in addition
// to) the materialized Result. The callbacks fire synchronously on the
// run's own goroutine, in a deterministic order independent of engine
// parallelism: OnSegment before a segment's first round, OnRound after
// every executed round, OnTriangle once per recorded output in ascending
// node order within a round (duplicates included; the Result union
// deduplicates). Churn jobs report each epoch as a segment and each BORN
// triangle through OnTriangle with node -1.
//
// The Result is read from the same per-node engine outputs this stream
// delivers, so an observer sees exactly what the Result will hold —
// including the prefix delivered before a cancellation. A resumed job
// streams only what follows its resume round.
type Observer interface {
	OnSegment(seg SegmentInfo)
	OnRound(round int, d RoundDelta)
	OnTriangle(node int, t Triangle)
}

// FaultEvent is a fault-layer occurrence in a faulty job: Kind "crash"
// reports a crash-stop kill taking effect at Round. Events stream in
// deterministic (round, node) order, before the round's OnRound.
type FaultEvent struct {
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
	Round int    `json:"round"`
}

// FaultObserver is an optional Observer extension: observers that also
// implement it receive the fault events of jobs run with JobSpec.Faults
// (fault-free jobs emit none). Like every observer callback, the stream
// is deterministic and independent of engine parallelism.
type FaultObserver interface {
	Observer
	OnFault(ev FaultEvent)
}

// obsAdapter bridges the public Observer to the internal core.Observer.
type obsAdapter struct{ obs Observer }

// faultObsAdapter additionally bridges the fault-event stream; built only
// when the public observer opts in, so plain observers never match the
// internal FaultObserver extension.
type faultObsAdapter struct {
	obsAdapter
	f FaultObserver
}

func (a faultObsAdapter) OnFault(ev sim.FaultEvent) {
	a.f.OnFault(FaultEvent{Kind: ev.Kind, Node: ev.Node, Round: ev.Round})
}

// coreObs wraps a public observer for internal runs; nil stays nil.
func coreObs(obs Observer) core.Observer {
	if obs == nil {
		return nil
	}
	if fo, ok := obs.(FaultObserver); ok {
		return faultObsAdapter{obsAdapter{obs: obs}, fo}
	}
	return obsAdapter{obs: obs}
}

func (a obsAdapter) OnSegment(info core.SegmentInfo) {
	a.obs.OnSegment(SegmentInfo{Index: info.Index, Name: info.Name, StartRound: info.StartRound, Rounds: info.Rounds})
}

func (a obsAdapter) OnRound(round int, d sim.RoundDelta) {
	a.obs.OnRound(round, RoundDelta{Messages: d.Messages, Words: d.Words, Moved: d.Moved})
}

func (a obsAdapter) OnTriangle(node int, t graph.Triangle) {
	a.obs.OnTriangle(node, Triangle{t.A, t.B, t.C})
}
