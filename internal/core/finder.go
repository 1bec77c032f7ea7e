package core

import (
	"fmt"
	"math"
)

// FinderOptions configures the Theorem-1 triangle finder.
type FinderOptions struct {
	// Eps overrides the heaviness exponent. Zero means EpsFindingPure
	// (n^eps = n^{1/3}; see params.go for the log-corrected variant).
	Eps float64
	// Repetitions amplifies the constant per-repetition success probability
	// (the theorem's constant c). Zero means 5.
	Repetitions int
	// LogCorrected selects the exact n^{1/3}/(log n)^{2/3} threshold of the
	// theorem statement instead of the pure exponent.
	LogCorrected bool
}

// NewFinder builds the Theorem-1 triangle finding algorithm: Repetitions
// rounds of (Algorithm A1; Algorithm A3). With the theorem's choice of eps
// this runs in O(n^{2/3} (log n)^{2/3}) rounds and, if G contains a
// triangle, outputs one with probability >= 1 - delta.
func NewFinder(n, b int, opt FinderOptions) ([]Segment, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = EpsFindingPure
		if opt.LogCorrected {
			eps = EpsFindingLogCorrected(n)
		}
	}
	reps := opt.Repetitions
	if reps <= 0 {
		reps = 5
	}
	p := Params{N: n, Eps: eps, B: b}
	var segs []Segment
	for i := 0; i < reps; i++ {
		s1, h1 := NewA1(p)
		segs = append(segs, Segment{Name: fmt.Sprintf("a1#%d", i), Sched: s1, Handler: h1})
		s3, h3 := NewA3(p)
		segs = append(segs, Segment{Name: fmt.Sprintf("a3#%d", i), Sched: s3, Handler: h3})
	}
	return segs, nil
}

// ListerOptions configures the Theorem-2 triangle lister.
type ListerOptions struct {
	// Eps overrides the heaviness exponent. Zero means EpsListingPure
	// (n^eps = n^{1/2}).
	Eps float64
	// RepetitionsOverride, when positive, fixes the repetition count
	// directly (used by ablations).
	RepetitionsOverride int
	// LogCorrected selects the exact n^{1/2}/(log n)^2 threshold.
	LogCorrected bool
}

// Repetitions returns the repetition count the options imply for an n-node
// network: RepetitionsOverride when positive, else the lister's
// ceil(c log n) with c = 2, that is ceil(2 log2(n+1)), and at least 1.
func (o ListerOptions) Repetitions(n int) int {
	if o.RepetitionsOverride > 0 {
		return o.RepetitionsOverride
	}
	return max(1, int(math.Ceil(2*math.Log2(float64(n)+1))))
}

// NewLister builds the Theorem-2 triangle listing algorithm: ceil(c log n)
// rounds of (Algorithm A2; Algorithm A3). With the theorem's choice of eps
// this runs in O(n^{3/4} log n) rounds and lists T(G) entirely with
// probability >= 1 - 1/n.
func NewLister(n, b int, opt ListerOptions) ([]Segment, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = EpsListingPure
		if opt.LogCorrected {
			eps = EpsListingLogCorrected(n)
		}
	}
	p := Params{N: n, Eps: eps, B: b}
	reps := opt.Repetitions(n)
	var segs []Segment
	for i := 0; i < reps; i++ {
		s2, h2, err := NewA2(p)
		if err != nil {
			return nil, fmt.Errorf("lister rep %d: %w", i, err)
		}
		segs = append(segs, Segment{Name: fmt.Sprintf("a2#%d", i), Sched: s2, Handler: h2})
		s3, h3 := NewA3(p)
		segs = append(segs, Segment{Name: fmt.Sprintf("a3#%d", i), Sched: s3, Handler: h3})
	}
	return segs, nil
}
