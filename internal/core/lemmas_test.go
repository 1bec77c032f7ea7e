package core

// Statistical validations of the paper's probabilistic lemmas, computed on
// the oracle side (no simulation): these pin the analysis itself, not just
// the protocols built on it.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func simCfg(seed int64) sim.Config { return sim.Config{Seed: seed} }

// sampleX draws X as in Lemma 2: each vertex independently w.p. 1/(9 n^eps).
func sampleX(n int, eps float64, rng *rand.Rand) graph.VertexSet {
	x := graph.NewVertexSet(n)
	p := 1 / (9 * math.Pow(float64(n), eps))
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			x.Add(v)
		}
	}
	return x
}

// TestLemmaTwoEmpirical: for a triangle that is not eps-heavy, its three
// edges lie in Delta(X) with probability at least 2/3 over the choice of X.
func TestLemmaTwoEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, eps := 60, 0.5
	g, planted := graph.PlantedTriangles(n, 6, rng)
	// Planted disjoint triangles have #(e) = 1 < n^eps: not heavy.
	_, light := graph.HeavyTriangles(g, eps)
	if len(light) != len(planted) {
		t.Fatalf("planted triangles unexpectedly heavy: %d light of %d", len(light), len(planted))
	}
	const trials = 400
	target := planted[0]
	hit := 0
	for i := 0; i < trials; i++ {
		x := sampleX(n, eps, rng)
		if graph.InDeltaX(g, x, target.A, target.B) &&
			graph.InDeltaX(g, x, target.A, target.C) &&
			graph.InDeltaX(g, x, target.B, target.C) {
			hit++
		}
	}
	rate := float64(hit) / trials
	// Proved floor 2/3; allow 3-sigma statistical slack.
	slack := 3 * math.Sqrt(2.0/3/trials)
	if rate < 2.0/3-slack {
		t.Fatalf("Lemma 2 rate %.3f below 2/3", rate)
	}
}

// TestLemmaThreeStatementTwo: with X as in Lemma 2, w.h.p. every pair in
// Delta(X) satisfies #({j,l}) < 27 n^eps log n (Statement (2) in the
// proof of Lemma 3).
func TestLemmaThreeStatementTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, eps := 40, 0.5
	g := graph.Gnp(n, 0.6, rng)
	bound := 27 * math.Pow(float64(n), eps) * math.Log(float64(n))
	violations := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		x := sampleX(n, eps, rng)
		bad := false
		for j := 0; j < n && !bad; j++ {
			for l := j + 1; l < n && !bad; l++ {
				if !g.HasEdge(j, l) {
					continue
				}
				if graph.InDeltaX(g, x, j, l) && float64(g.CommonNeighborCount(j, l)) >= bound {
					bad = true
				}
			}
		}
		if bad {
			violations++
		}
	}
	// The proof gives failure probability <= 1/n per sample; allow slack.
	if violations > trials/4 {
		t.Fatalf("Statement (2) violated in %d of %d samples", violations, trials)
	}
}

// notGoodCount computes, oracle-side, the number of nodes of U that are not
// r-good for (U, X) per Definition 1.
func notGoodCount(g *graph.Graph, u []int, x graph.VertexSet, r float64) int {
	inU := graph.NewVertexSet(g.N())
	for _, v := range u {
		inU.Add(v)
	}
	notGood := 0
	for _, j := range u {
		big := 0
		for _, k := range g.Neighbors(j) {
			if !inU.Has(int(k)) {
				continue
			}
			// S^X_U(j,k) = {l in U : {j,l} in Delta(X), {k,l} in E}.
			size := 0
			for _, l32 := range g.Neighbors(int(k)) {
				l := int(l32)
				if l != j && inU.Has(l) && graph.InDeltaX(g, x, j, l) {
					size++
				}
			}
			if float64(size) > r {
				big++
			}
		}
		if float64(big) > r {
			notGood++
		}
	}
	return notGood
}

// TestLemmaThreeHalving: with r at the Lemma-3 threshold, at most |U|/2
// nodes of any U are not r-good (tested for U = V and random subsets).
func TestLemmaThreeHalving(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, eps := 36, 0.5
	g := graph.Gnp(n, 0.5, rng)
	p := Params{N: n, Eps: eps}
	r := p.GoodThreshold()
	for trial := 0; trial < 10; trial++ {
		x := sampleX(n, eps, rng)
		// U = V.
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		if ng := notGoodCount(g, all, x, r); ng > n/2 {
			t.Fatalf("trial %d: %d of %d nodes not good for U=V", trial, ng, n)
		}
		// Random U.
		var u []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				u = append(u, v)
			}
		}
		if ng := notGoodCount(g, u, x, r); ng > len(u)/2 {
			t.Fatalf("trial %d: %d of %d nodes not good for random U", trial, ng, len(u))
		}
	}
}

// TestNotGoodCountMachinery exercises the oracle computation itself with a
// tiny r where not-good nodes actually exist, on a graph dense enough that
// S-sets overflow.
func TestNotGoodCountMachinery(t *testing.T) {
	g := graph.Complete(12)
	x := graph.NewVertexSet(12) // empty X: Delta(X) = all pairs
	all := make([]int, 12)
	for v := range all {
		all[v] = v
	}
	// In K12 with X empty: |S(j,k)| = 10 for every adjacent ordered pair
	// (every l except j and k). With r = 1 every node has 11 big neighbors:
	// all not good.
	if ng := notGoodCount(g, all, x, 1); ng != 12 {
		t.Fatalf("K12 r=1: notGood = %d, want 12", ng)
	}
	// With r = 11 >= |S| and >= degree: everyone good.
	if ng := notGoodCount(g, all, x, 11); ng != 0 {
		t.Fatalf("K12 r=11: notGood = %d, want 0", ng)
	}
}

// TestHeavyLightSplitCoverage: the Theorem-2 decomposition — A2's union
// (amplified) covers the heavy triangles while A3's union (amplified)
// covers the light ones — on a graph engineered to have both kinds.
func TestHeavyLightSplitCoverage(t *testing.T) {
	n, eps := 56, 0.5
	// Heavy: a planted edge in sqrt(n)*2 triangles. Light: disjoint planted
	// triangles on the remaining vertices (#(e)=1).
	w := int(math.Sqrt(float64(n))) * 2
	b := graph.NewBuilder(n)
	addEdge := func(u, v int) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	addEdge(0, 1)
	for i := 0; i < w; i++ {
		addEdge(0, 2+i)
		addEdge(1, 2+i)
	}
	base := 2 + w
	for base+2 < n {
		addEdge(base, base+1)
		addEdge(base, base+2)
		addEdge(base+1, base+2)
		base += 3
	}
	g := b.Build()
	heavy, light := graph.HeavyTriangles(g, eps)
	if len(heavy) == 0 || len(light) == 0 {
		t.Fatalf("bad construction: heavy=%d light=%d", len(heavy), len(light))
	}
	p := Params{N: n, Eps: eps, B: 2}

	a2Union := make(graph.TriangleSet)
	for seed := int64(0); seed < 10; seed++ {
		sched, mk, err := NewA2(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngineCache().RunSingle(g, sched, mk, simCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		for tr := range res.Union {
			a2Union.Add(tr)
		}
	}
	for _, tr := range heavy {
		if !a2Union.Has(tr) {
			t.Fatalf("heavy %v missed by amplified A2", tr)
		}
	}

	a3Union := make(graph.TriangleSet)
	for seed := int64(0); seed < 10; seed++ {
		sched, mk := NewA3(p)
		res, err := NewEngineCache().RunSingle(g, sched, mk, simCfg(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		for tr := range res.Union {
			a3Union.Add(tr)
		}
	}
	for _, tr := range light {
		if !a3Union.Has(tr) {
			t.Fatalf("light %v missed by amplified A3", tr)
		}
	}
}
