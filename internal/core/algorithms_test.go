package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// --- Algorithm A1 (Proposition 1) --------------------------------------

// TestA1FindsHeavyTriangleWithAmplification: on a planted heavy edge, the
// per-run success probability is Omega(1); across 12 independent runs a
// miss of every run is (1-c)^12, negligible.
func TestA1FindsHeavyTriangleWithAmplification(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	eps := 0.5
	w := 24 // #(e) = 24 >= n^0.5 = 8: the planted triangles are eps-heavy
	g := graph.PlantedHeavyEdge(n, w, 0, rng)
	p := Params{N: n, Eps: eps, B: 2}
	found := false
	for seed := int64(0); seed < 12 && !found; seed++ {
		sched, mk := NewA1(p)
		res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOneSided(g, res); err != nil {
			t.Fatal(err)
		}
		found = len(res.Union) > 0
	}
	if !found {
		t.Fatal("A1 missed an eps-heavy triangle in 12 independent runs")
	}
}

func TestA1OneSidedOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(30, 0.4, rng)
		p := Params{N: g.N(), Eps: 0.4, B: 2}
		sched, mk := NewA1(p)
		res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: seed + 100})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOneSided(g, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestA1RoundBudget: the schedule must be O(n^{1-eps}) = ceil(cap/B).
func TestA1RoundBudget(t *testing.T) {
	p := Params{N: 256, Eps: 0.5, B: 2}
	sched, _ := NewA1(p)
	if sched.Total() != 32 { // ceil(4*16 / 2)
		t.Fatalf("A1 schedule = %d rounds, want 32", sched.Total())
	}
}

func TestA1EmptyGraphProducesNothing(t *testing.T) {
	g := graph.Empty(20)
	p := Params{N: 20, Eps: 0.5, B: 2}
	sched, mk := NewA1(p)
	res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Union) != 0 || res.Metrics.WordsDelivered != 0 {
		t.Fatal("empty graph produced traffic or triangles")
	}
}

// --- Algorithm A2 (Proposition 2 / Figure 1) ---------------------------

// TestA2ListsAllHeavyTrianglesWithAmplification: every eps-heavy triangle
// must appear in the union of a handful of independent A2 runs.
func TestA2ListsAllHeavyTrianglesWithAmplification(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 48
	eps := 0.5
	g := graph.Gnp(n, 0.6, rng) // dense: most triangles are heavy
	p := Params{N: n, Eps: eps, B: 2}
	heavy, _ := graph.HeavyTriangles(g, eps)
	if len(heavy) == 0 {
		t.Fatal("test graph has no heavy triangles; pick denser parameters")
	}
	union := make(graph.TriangleSet)
	for seed := int64(0); seed < 10; seed++ {
		sched, mk, err := NewA2(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOneSided(g, res); err != nil {
			t.Fatal(err)
		}
		for tr := range res.Union {
			union.Add(tr)
		}
	}
	for _, tr := range heavy {
		if !union.Has(tr) {
			t.Fatalf("heavy triangle %v missed by 10 A2 runs (%d/%d found)",
				tr, len(union), len(heavy))
		}
	}
}

// TestA2DegenerateBucketCountListsEverything: eps small enough forces
// R = 1 buckets, so h(l) = 0 always and each node ships its whole
// neighborhood — A2 degenerates to the two-hop exchange and must list all
// triangles deterministically.
func TestA2DegenerateBucketCountListsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(26, 0.4, rng)
	p := Params{N: g.N(), Eps: 0.05, B: 2}
	if p.A2Buckets() != 1 {
		t.Fatalf("expected degenerate bucket count, got %d", p.A2Buckets())
	}
	sched, mk, err := NewA2(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyListing(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestA2ScheduleShape(t *testing.T) {
	p := Params{N: 256, Eps: 0.5, B: 2}
	sched, _, err := NewA2(p)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0: 3 hash words at B=2 -> 2 rounds; phase 1: cap 264 -> 132.
	if sched.NumPhases() != 2 || sched.PhaseEnd(0) != 2 || sched.Total() != 2+132 {
		t.Fatalf("schedule: phases=%d total=%d", sched.NumPhases(), sched.Total())
	}
}

// --- Algorithm A(X,r) (Figure 2 / Proposition 4) ------------------------

// TestAXRListsExactlyDeltaXTriangles is the deterministic Proposition-4
// contract: with Lemma-3-sized r, EVERY triangle with three edges in
// Delta(X) must be listed, for arbitrary X.
func TestAXRListsExactlyDeltaXTriangles(t *testing.T) {
	cases := []struct {
		name string
		mkG  func(rng *rand.Rand) *graph.Graph
		mkX  func(n int, rng *rand.Rand) graph.VertexSet
	}{
		{"gnp-sparse-emptyX", func(rng *rand.Rand) *graph.Graph { return graph.Gnp(30, 0.2, rng) },
			func(n int, rng *rand.Rand) graph.VertexSet { return graph.NewVertexSet(n) }},
		{"gnp-dense-randomX", func(rng *rand.Rand) *graph.Graph { return graph.Gnp(34, 0.5, rng) },
			func(n int, rng *rand.Rand) graph.VertexSet {
				x := graph.NewVertexSet(n)
				for v := 0; v < n; v++ {
					if rng.Float64() < 0.1 {
						x.Add(v)
					}
				}
				return x
			}},
		{"ba-spacedX", func(rng *rand.Rand) *graph.Graph { return graph.BarabasiAlbert(32, 4, rng) },
			func(n int, rng *rand.Rand) graph.VertexSet {
				x := graph.NewVertexSet(n)
				for v := 0; v < n; v += 5 {
					x.Add(v)
				}
				return x
			}},
		{"complete-fullX", func(rng *rand.Rand) *graph.Graph { return graph.Complete(16) },
			func(n int, rng *rand.Rand) graph.VertexSet {
				x := graph.NewVertexSet(n)
				for v := 0; v < n; v++ {
					x.Add(v)
				}
				return x
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			g := tc.mkG(rng)
			n := g.N()
			x := tc.mkX(n, rng)
			p := Params{N: n, Eps: 0.5, B: 2}
			sched, mk := NewAXR(p, AXROptions{InX: func(id int) bool { return x.Has(id) }})
			res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyOneSided(g, res); err != nil {
				t.Fatal(err)
			}
			want := graph.NewTriangleSet(graph.TrianglesInDeltaX(g, x))
			if !res.Union.ContainsAll(want) {
				missing := 0
				for tr := range want {
					if !res.Union.Has(tr) {
						missing++
					}
				}
				t.Fatalf("%d of %d Delta(X)-triangles missing", missing, len(want))
			}
		})
	}
}

// TestAXRTypeBTrianglesViaVPath constructs the one regime the other tests
// miss: a node j that IS r-good yet has TooBig neighbors, so its triangles
// can only be listed through step 4.3 (paper's triangle type (b)).
//
// Construction: a K10 cluster (S-sets of size 8-9 > r = 5 everywhere), a
// hub j adjacent to three cluster nodes, and five leaves hanging off j.
// Every cluster node has |V| >= 9 > r (not good), while j has exactly
// |V(j)| = 3 <= r (good): the cluster cannot ship S-sets about j's
// triangles, so {j, k_a, k_b} must be recovered by k_a receiving V(j) and
// intersecting it with its own neighborhood.
func TestAXRTypeBTrianglesViaVPath(t *testing.T) {
	const clusterSize = 10
	b := graph.NewBuilder(clusterSize + 6)
	for u := 0; u < clusterSize; u++ {
		for v := u + 1; v < clusterSize; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	j := clusterSize // the hub
	for _, k := range []int{0, 1, 2} {
		if err := b.AddEdge(j, k); err != nil {
			t.Fatal(err)
		}
	}
	for leaf := j + 1; leaf < clusterSize+6; leaf++ {
		if err := b.AddEdge(j, leaf); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p := Params{N: g.N(), Eps: 0.5, B: 2}
	sched, mk := NewAXR(p, AXROptions{R: 5, InX: func(int) bool { return false }})
	res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOneSided(g, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []graph.Triangle{
		graph.NewTriangle(j, 0, 1),
		graph.NewTriangle(j, 0, 2),
		graph.NewTriangle(j, 1, 2),
	} {
		if !res.Union.Has(want) {
			t.Fatalf("type-(b) triangle %v not listed (union size %d)", want, len(res.Union))
		}
	}
}

// TestAXRTooBigMarkersExercised forces tiny r so S-sets overflow and the
// TooBig/V(j) path runs; outputs must still be one-sided and, because the
// graph is small, the V-path should recover triangles.
func TestAXRTooBigMarkersExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(24, 0.6, rng)
	p := Params{N: g.N(), Eps: 0.5, B: 2}
	sched, mk := NewAXR(p, AXROptions{R: 2, InX: func(id int) bool { return false }})
	res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOneSided(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestAXRScheduleShape(t *testing.T) {
	p := Params{N: 64, Eps: 0.5, B: 2}
	sched, _ := NewAXR(p, AXROptions{R: 10, InX: func(int) bool { return false }})
	// 1 (xbit) + ceil(XCap/2) + iters * (ceil(11/2)*2 + 1).
	iters := p.WhileIterations()
	want := 1 + (p.XCap()+1)/2 + iters*(6*2+1)
	if sched.Total() != want {
		t.Fatalf("schedule %d rounds, want %d", sched.Total(), want)
	}
}

// --- Algorithm A3 (Proposition 3) ---------------------------------------

// TestA3FindsLightTrianglesWithAmplification: planted disjoint triangles
// have #(e) = 1 (not heavy for eps=0.5, n >= 4), so A3 alone must find
// each with constant probability per run.
func TestA3FindsLightTrianglesWithAmplification(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, planted := graph.PlantedTriangles(45, 5, rng)
	p := Params{N: g.N(), Eps: 0.5, B: 2}
	union := make(graph.TriangleSet)
	for seed := int64(0); seed < 10; seed++ {
		sched, mk := NewA3(p)
		res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOneSided(g, res); err != nil {
			t.Fatal(err)
		}
		for tr := range res.Union {
			union.Add(tr)
		}
	}
	for _, tr := range planted {
		if !union.Has(tr) {
			t.Fatalf("light triangle %v missed by 10 A3 runs", tr)
		}
	}
}

// --- Theorem 1 finder ----------------------------------------------------

func TestFinderAcrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		name    string
		g       *graph.Graph
		hasTris bool
	}{
		{"gnp-dense", graph.Gnp(40, 0.5, rng), true},
		{"complete", graph.Complete(18), true},
		{"bipartite", graph.RandomBipartite(20, 20, 0.5, rng), false},
		{"ring", graph.Ring(30), false},
		{"empty", graph.Empty(25), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			found, res, err := NewEngineCache().FindTriangles(tc.g, FinderOptions{Repetitions: 6}, sim.Config{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyOneSided(tc.g, res); err != nil {
				t.Fatal(err)
			}
			if tc.hasTris && !found {
				t.Fatal("triangle missed")
			}
			if !tc.hasTris && found {
				t.Fatal("impossible: found a triangle in a triangle-free graph")
			}
		})
	}
}

func TestFinderLogCorrectedOption(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.Gnp(36, 0.5, rng)
	found, res, err := NewEngineCache().FindTriangles(g, FinderOptions{LogCorrected: true, Repetitions: 4}, sim.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFinding(g, res); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("dense graph: triangle missed")
	}
}

// --- Theorem 2 lister ----------------------------------------------------

func TestListerAcrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	plantedG, _ := graph.PlantedTriangles(36, 6, rng)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-sparse", graph.Gnp(36, 0.15, rng)},
		{"gnp-dense", graph.Gnp(36, 0.6, rng)},
		{"ba", graph.BarabasiAlbert(36, 4, rng)},
		{"complete", graph.Complete(14)},
		{"planted", plantedG},
		{"chords", graph.RingWithChords(36, 20, rng)},
		{"empty", graph.Empty(16)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := NewEngineCache().ListAllTriangles(tc.g, ListerOptions{}, sim.Config{Seed: 15})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyListing(tc.g, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestListerRepetitionOptions(t *testing.T) {
	o := ListerOptions{}
	if o.Repetitions(64) != 13 { // ceil(2*log2(65))
		t.Fatalf("default reps(64) = %d", o.Repetitions(64))
	}
	if (ListerOptions{RepetitionsOverride: 3}).Repetitions(64) != 3 {
		t.Fatal("override ignored")
	}
	if (ListerOptions{}).Repetitions(0) != 1 {
		t.Fatal("reps must be >= 1")
	}
}

func TestListerLogCorrectedOption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.Gnp(30, 0.5, rng)
	res, err := NewEngineCache().ListAllTriangles(g, ListerOptions{LogCorrected: true}, sim.Config{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyListing(g, res); err != nil {
		t.Fatal(err)
	}
}

// TestListerOddBandwidth forces every record type (3-word hash functions,
// header-prefixed S/V sets, single-word bits) through non-divisible chunk
// boundaries.
func TestListerOddBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	g := graph.Gnp(24, 0.5, rng)
	res, err := NewEngineCache().ListAllTriangles(g, ListerOptions{RepetitionsOverride: 5},
		sim.Config{Seed: 26, BandwidthWords: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyListing(g, res); err != nil {
		t.Fatal(err)
	}
}

// --- Verification helpers ------------------------------------------------

func TestVerifyOneSidedCatchesFabrication(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := graph.Gnp(10, 0.3, rng)
	res := Result{Outputs: [][]graph.Triangle{{graph.NewTriangle(0, 1, 2)}}}
	// Find a non-triangle triple to fabricate.
	if g.HasEdge(0, 1) && g.HasEdge(0, 2) && g.HasEdge(1, 2) {
		t.Skip("random graph happens to contain {0,1,2}")
	}
	if err := VerifyOneSided(g, res); err == nil {
		t.Fatal("fabricated triangle accepted")
	}
}

func TestVerifyListingCatchesOmission(t *testing.T) {
	g := graph.Complete(4) // 4 triangles
	res := Result{
		Outputs: [][]graph.Triangle{{graph.NewTriangle(0, 1, 2)}},
		Union:   graph.NewTriangleSet([]graph.Triangle{graph.NewTriangle(0, 1, 2)}),
	}
	if err := VerifyListing(g, res); err == nil {
		t.Fatal("incomplete listing accepted")
	}
}

func TestVerifyFindingRequiresOutputOnTriangles(t *testing.T) {
	g := graph.Complete(3)
	res := Result{Outputs: [][]graph.Triangle{nil, nil, nil}, Union: make(graph.TriangleSet)}
	if err := VerifyFinding(g, res); err == nil {
		t.Fatal("empty finding output on a triangle accepted")
	}
}

// --- Engine parity -------------------------------------------------------

// TestSequentialParallelParity: the sharded engine must produce byte-for-
// byte identical outputs and communication metrics for the same seed.
func TestSequentialParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Gnp(28, 0.4, rng)
	run := func(shards int) Result {
		res, err := NewEngineCache().ListAllTriangles(g, ListerOptions{RepetitionsOverride: 3},
			sim.Config{Seed: 18, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(0)
	par := run(4)
	if !seq.Union.Equal(par.Union) {
		t.Fatalf("outputs differ: %d vs %d", len(seq.Union), len(par.Union))
	}
	if seq.Metrics.WordsDelivered != par.Metrics.WordsDelivered ||
		seq.Metrics.MessagesDelivered != par.Metrics.MessagesDelivered ||
		seq.Metrics.Rounds != par.Metrics.Rounds {
		t.Fatalf("metrics differ: %+v vs %+v", seq.Metrics, par.Metrics)
	}
	for v := range seq.Outputs {
		if len(seq.Outputs[v]) != len(par.Outputs[v]) {
			t.Fatalf("node %d output lengths differ", v)
		}
		for i := range seq.Outputs[v] {
			if seq.Outputs[v][i] != par.Outputs[v][i] {
				t.Fatalf("node %d output %d differs", v, i)
			}
		}
	}
}

// TestDeterminismAcrossRuns: identical seeds give identical runs.
func TestDeterminismAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := graph.Gnp(24, 0.5, rng)
	a, err := NewEngineCache().ListAllTriangles(g, ListerOptions{RepetitionsOverride: 2}, sim.Config{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngineCache().ListAllTriangles(g, ListerOptions{RepetitionsOverride: 2}, sim.Config{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Union.Equal(b.Union) || a.Metrics.WordsDelivered != b.Metrics.WordsDelivered {
		t.Fatal("same seed produced different runs")
	}
	c, err := NewEngineCache().ListAllTriangles(g, ListerOptions{RepetitionsOverride: 2}, sim.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.WordsDelivered == c.Metrics.WordsDelivered && a.Union.Equal(c.Union) {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

// --- Bandwidth sensitivity ----------------------------------------------

func TestBandwidthScalesSchedule(t *testing.T) {
	p2 := Params{N: 128, Eps: 0.5, B: 2}
	p8 := Params{N: 128, Eps: 0.5, B: 8}
	s2, _ := NewA1(p2)
	s8, _ := NewA1(p8)
	if s8.Total() >= s2.Total() {
		t.Fatalf("B=8 schedule (%d) not shorter than B=2 (%d)", s8.Total(), s2.Total())
	}
	// Correctness must be bandwidth-independent.
	rng := rand.New(rand.NewSource(22))
	g := graph.Gnp(26, 0.5, rng)
	for _, b := range []int{1, 2, 4, 8} {
		res, err := NewEngineCache().ListAllTriangles(g, ListerOptions{RepetitionsOverride: 4},
			sim.Config{Seed: 23, BandwidthWords: b})
		if err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
		if err := VerifyOneSided(g, res); err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
	}
}
