package sim

import (
	"fmt"
	"slices"
)

// Schedule is a fixed sequence of named phases with known durations in
// rounds. CONGEST algorithms in this repository are phase-synchronous: every
// node derives the same schedule from (n, parameters) alone, exactly as the
// paper's step-by-step round bounds require, so no distributed barrier is
// needed.
type Schedule struct {
	names  []string
	starts []int // starts[i] is the first round of phase i
	total  int
}

// Add appends a phase lasting `rounds` rounds (rounds >= 0; zero-round
// phases model purely local steps and are never reported by PhaseAt).
func (s *Schedule) Add(name string, rounds int) {
	if rounds < 0 {
		panic(fmt.Sprintf("sim: negative phase duration %d for %q", rounds, name))
	}
	s.names = append(s.names, name)
	s.starts = append(s.starts, s.total)
	s.total += rounds
}

// Extend appends all phases of another schedule.
func (s *Schedule) Extend(o *Schedule) {
	for i, name := range o.names {
		end := o.total
		if i+1 < len(o.starts) {
			end = o.starts[i+1]
		}
		s.Add(name, end-o.starts[i])
	}
}

// Total returns the total duration in rounds.
func (s *Schedule) Total() int { return s.total }

// NumPhases returns the number of phases (including zero-length ones).
func (s *Schedule) NumPhases() int { return len(s.names) }

// PhaseName returns the name of phase i.
func (s *Schedule) PhaseName(i int) string { return s.names[i] }

// PhaseStart returns the first round of phase i.
func (s *Schedule) PhaseStart(i int) int { return s.starts[i] }

// PhaseEnd returns one past the last round of phase i.
func (s *Schedule) PhaseEnd(i int) int {
	if i+1 < len(s.starts) {
		return s.starts[i+1]
	}
	return s.total
}

// FirstPhaseFrom returns the index of the first phase that starts at or
// after round, or NumPhases() when every phase starts earlier. The phases
// starting exactly at round follow it in insertion order.
func (s *Schedule) FirstPhaseFrom(round int) int {
	i, _ := slices.BinarySearch(s.starts, round)
	return i
}

// PhaseAt maps a global round to (phase index, local round within phase).
// Rounds beyond the schedule map to (NumPhases(), round-Total()).
func (s *Schedule) PhaseAt(round int) (int, int) {
	if round >= s.total {
		return len(s.names), round - s.total
	}
	// Binary search the last phase with start <= round and nonzero span
	// covering it.
	lo, hi := 0, len(s.starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.starts[mid] <= round {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// The last phase with start <= round spans it: zero-length phases
	// sharing a start always precede the spanning phase in insertion order.
	idx := lo - 1
	return idx, round - s.starts[idx]
}
