package core

// Round-complexity regression tests: the scheduled durations of the
// composed algorithms must match their closed forms exactly, guarding
// against silent complexity regressions during refactors.

import (
	"math"
	"sync"
	"testing"

	"math/rand"

	"repro/internal/graph"
	"repro/internal/sim"
)

// axrClosedForm reproduces the schedule arithmetic of NewAXR.
func axrClosedForm(p Params, r float64) int {
	capS := int(math.Floor(r))
	if capS < 1 {
		capS = 1
	}
	nx := sim.RoundsFor(p.XCap(), p.B)
	if nx < 1 {
		nx = 1
	}
	sv := sim.RoundsFor(capS+1, p.B)
	return 1 + nx + p.WhileIterations()*(2*sv+1)
}

func TestA3ScheduleClosedForm(t *testing.T) {
	for _, n := range []int{16, 64, 200, 512} {
		for _, b := range []int{1, 2, 4} {
			p := Params{N: n, Eps: 0.5, B: b}
			sched, _ := NewA3(p)
			if got, want := sched.Total(), axrClosedForm(p, p.GoodThreshold()); got != want {
				t.Fatalf("n=%d b=%d: A3 schedule %d, closed form %d", n, b, got, want)
			}
		}
	}
}

func TestFinderScheduleClosedForm(t *testing.T) {
	n, b := 128, 2
	segs, err := NewFinder(n, b, FinderOptions{Repetitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: n, Eps: EpsFindingPure, B: b}
	perRep := (sim.RoundsFor(p.A1SetCap(), b) + 1) + (axrClosedForm(p, p.GoodThreshold()) + 1)
	if got, want := SequenceRounds(segs), 3*perRep; got != want {
		t.Fatalf("finder rounds %d, closed form %d", got, want)
	}
}

func TestListerScheduleClosedForm(t *testing.T) {
	n, b := 128, 2
	reps := 4
	segs, err := NewLister(n, b, ListerOptions{RepetitionsOverride: reps})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: n, Eps: EpsListingPure, B: b}
	a2 := sim.RoundsFor(3, b) + sim.RoundsFor(p.A2EdgeCap(), b)
	perRep := (a2 + 1) + (axrClosedForm(p, p.GoodThreshold()) + 1)
	if got, want := SequenceRounds(segs), reps*perRep; got != want {
		t.Fatalf("lister rounds %d, closed form %d", got, want)
	}
}

// TestListerScheduleSublinearTrend: the scheduled rounds divided by n must
// shrink as n grows once n clears the constants — the "sublinear" claim
// itself, applied to the schedule.
func TestListerScheduleSublinearTrend(t *testing.T) {
	ratio := func(n int) float64 {
		segs, err := NewLister(n, 2, ListerOptions{RepetitionsOverride: 1})
		if err != nil {
			t.Fatal(err)
		}
		return float64(SequenceRounds(segs)) / float64(n)
	}
	// One repetition is O(n^{3/4} polylog)/n -> decreasing for large n.
	big, huge := ratio(1<<14), ratio(1<<18)
	if huge >= big {
		t.Fatalf("rounds/n not decreasing: %f at 2^14 vs %f at 2^18", big, huge)
	}
}

// TestPlanSumsToSequenceRounds: the transparent plan must add up to the
// engine budget exactly.
func TestPlanSumsToSequenceRounds(t *testing.T) {
	segs, err := NewLister(64, 2, ListerOptions{RepetitionsOverride: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, sp := range Plan(segs) {
		if sp.Rounds <= 0 || sp.Name == "" {
			t.Fatalf("bad plan row %+v", sp)
		}
		sum += sp.Rounds
	}
	if sum != SequenceRounds(segs) {
		t.Fatalf("plan sums to %d, SequenceRounds %d", sum, SequenceRounds(segs))
	}
}

// TestAXRHalvingObserved runs A(X,r) with the observer hook and checks the
// Lemma-3 mechanism live: |U| at least halves every iteration (with the
// full threshold r) until it reaches zero, and never grows.
func TestAXRHalvingObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.Gnp(40, 0.5, rng)
	p := Params{N: g.N(), Eps: 0.5, B: 2}
	var mu sync.Mutex
	sizes := make(map[int]int) // iteration -> |U| after step 4.4
	sched, mk := NewAXR(p, AXROptions{
		InX: func(id int) bool { return id%9 == 0 },
		Observe: func(id, iter int, stillInU bool) {
			mu.Lock()
			defer mu.Unlock()
			if stillInU {
				sizes[iter]++
			}
		},
	})
	res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOneSided(g, res); err != nil {
		t.Fatal(err)
	}
	prev := g.N()
	for iter := 0; iter < p.WhileIterations(); iter++ {
		cur := sizes[iter]
		if cur > prev/2 {
			t.Fatalf("iteration %d: |U| = %d did not halve from %d", iter, cur, prev)
		}
		prev = cur
	}
	if prev != 0 {
		t.Fatalf("U nonempty (%d) after the worst-case iterations", prev)
	}
}
