package core

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// SegmentInfo announces one segment of a run's schedule to an Observer.
type SegmentInfo struct {
	// Index is the segment's position in the sequence (0-based).
	Index int
	// Name is the segment name (e.g. "a2#3"); "run" for single-schedule runs.
	Name string
	// StartRound is the engine round at which the segment begins.
	StartRound int
	// Rounds is the segment's scheduled duration.
	Rounds int
}

// Observer receives a run's results as they are produced instead of (or in
// addition to) the materialized Result. All callbacks fire on the engine's
// sequential spine in a deterministic order independent of engine
// parallelism: OnSegment before the segment's first round, OnRound after
// every executed round, OnTriangle in ascending node order within a round,
// once per recorded output (duplicates included — deduplication is the
// Result union's job). Callbacks must not block; the run is synchronous
// with them.
//
// The stream and the Result read the same per-node output lists of the
// engine: node v's OnTriangle calls, in order, are exactly
// Result.Outputs[v]. A resumed run streams only the outputs made after its
// resume round; its Result.Outputs[v] is the restored prefix followed by
// that suffix.
type Observer interface {
	OnSegment(info SegmentInfo)
	OnRound(round int, d sim.RoundDelta)
	OnTriangle(node int, t graph.Triangle)
}

// FaultObserver is an optional Observer extension: observers that also
// implement it receive the engine's fault events (crash-stop kills) for
// runs configured with a fault plan, on the same deterministic stream as
// the other callbacks (a fault event precedes its round's OnRound).
type FaultObserver interface {
	Observer
	OnFault(ev sim.FaultEvent)
}

// hooksFor bridges obs into engine hooks. An unobserved run gets none, so
// its engine jumps idle rounds in one step; the engine advances each
// node's streamed-output mark, which snapshots record, with or without a
// Triangle hook.
func hooksFor(obs Observer) sim.Hooks {
	if obs == nil {
		return sim.Hooks{}
	}
	h := sim.Hooks{Round: obs.OnRound, Triangle: obs.OnTriangle}
	if fo, ok := obs.(FaultObserver); ok {
		h.Fault = fo.OnFault
	}
	return h
}
