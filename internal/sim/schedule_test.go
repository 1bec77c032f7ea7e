package sim

import "testing"

func TestScheduleBasics(t *testing.T) {
	s := &Schedule{}
	s.Add("a", 3)
	s.Add("b", 0) // zero-length local step
	s.Add("c", 2)
	if s.Total() != 5 || s.NumPhases() != 3 {
		t.Fatalf("total=%d phases=%d", s.Total(), s.NumPhases())
	}
	if s.PhaseName(1) != "b" {
		t.Fatal("names wrong")
	}
	if s.PhaseStart(0) != 0 || s.PhaseStart(1) != 3 || s.PhaseStart(2) != 3 {
		t.Fatal("starts wrong")
	}
	if s.PhaseEnd(0) != 3 || s.PhaseEnd(1) != 3 || s.PhaseEnd(2) != 5 {
		t.Fatal("ends wrong")
	}
	cases := []struct{ round, phase, local int }{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 2}, {3, 2, 0}, {4, 2, 1}, {5, 3, 0}, {7, 3, 2},
	}
	for _, c := range cases {
		p, l := s.PhaseAt(c.round)
		if p != c.phase || l != c.local {
			t.Errorf("PhaseAt(%d) = (%d,%d), want (%d,%d)", c.round, p, l, c.phase, c.local)
		}
	}
	// Phase b (zero-length) and c both start at round 3; nothing starts
	// after round 3.
	for round, want := range []int{0, 1, 1, 1, 3, 3} {
		if got := s.FirstPhaseFrom(round); got != want {
			t.Errorf("FirstPhaseFrom(%d) = %d, want %d", round, got, want)
		}
	}
}

func TestScheduleZeroPhaseBeforeFirst(t *testing.T) {
	s := &Schedule{}
	s.Add("setup", 0)
	s.Add("work", 4)
	p, l := s.PhaseAt(0)
	if p != 1 || l != 0 {
		t.Fatalf("PhaseAt(0) = (%d,%d), want work phase", p, l)
	}
}

func TestScheduleExtend(t *testing.T) {
	a := &Schedule{}
	a.Add("x", 2)
	a.Add("y", 0)
	a.Add("z", 3)
	b := &Schedule{}
	b.Add("pre", 1)
	b.Extend(a)
	if b.Total() != 6 || b.NumPhases() != 4 {
		t.Fatalf("total=%d phases=%d", b.Total(), b.NumPhases())
	}
	if b.PhaseStart(3) != 3 || b.PhaseEnd(3) != 6 {
		t.Fatal("extended phase bounds wrong")
	}
	if b.PhaseEnd(2) != 3 { // the zero-length "y"
		t.Fatal("zero-length phase lost")
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration accepted")
		}
	}()
	(&Schedule{}).Add("bad", -1)
}
