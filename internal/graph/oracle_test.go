package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestForwardMatchesBruteForce is the oracle-vs-oracle property: the
// O(m^{3/2}) forward algorithm must agree with the O(n^3) brute force on
// random graphs of every density.
func TestForwardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(30)
		p := rng.Float64()
		g := Gnp(n, p, rng)
		fast := NewTriangleSet(ListTriangles(g))
		slow := NewTriangleSet(ListTrianglesBrute(g))
		if !fast.Equal(slow) {
			t.Fatalf("n=%d p=%.2f: forward %d vs brute %d", n, p, len(fast), len(slow))
		}
	}
}

func TestListTrianglesNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Gnp(40, 0.5, rng)
	ts := ListTriangles(g)
	if len(ts) != len(NewTriangleSet(ts)) {
		t.Fatal("duplicates in forward output")
	}
	for _, tr := range ts {
		if !tr.Valid() {
			t.Fatalf("invalid triangle %v", tr)
		}
	}
}

func TestTrianglesOf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Gnp(30, 0.4, rng)
	all := ListTriangles(g)
	for v := 0; v < g.N(); v++ {
		var want []Triangle
		for _, tr := range all {
			if tr.Contains(v) {
				want = append(want, tr)
			}
		}
		got := TrianglesOf(g, v)
		if !NewTriangleSet(got).Equal(NewTriangleSet(want)) {
			t.Fatalf("TrianglesOf(%d): got %d want %d", v, len(got), len(want))
		}
	}
}

func TestEdgeTriangleCountsSumRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Gnp(35, 0.4, rng)
	counts := EdgeTriangleCounts(g)
	if len(counts) != g.M() {
		t.Fatalf("counts for %d edges, graph has %d", len(counts), g.M())
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 3*CountTriangles(g) {
		t.Fatalf("sum #(e) = %d, want 3t = %d", sum, 3*CountTriangles(g))
	}
	// Spot check against CommonNeighborCount.
	for _, e := range g.Edges()[:10] {
		if counts[e] != g.CommonNeighborCount(e.U, e.V) {
			t.Fatalf("#(%v) = %d, want %d", e, counts[e], g.CommonNeighborCount(e.U, e.V))
		}
	}
}

func TestHeavyTrianglesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Gnp(40, 0.5, rng)
	for _, eps := range []float64{0, 0.3, 0.5, 0.9, 1} {
		heavy, light := HeavyTriangles(g, eps)
		if len(heavy)+len(light) != CountTriangles(g) {
			t.Fatalf("eps=%.1f: partition sizes wrong", eps)
		}
		thr := HeavyThreshold(g.N(), eps)
		counts := EdgeTriangleCounts(g)
		for _, tr := range heavy {
			ok := false
			for _, e := range tr.Edges() {
				if float64(counts[e]) >= thr {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("eps=%.1f: %v marked heavy with no heavy edge", eps, tr)
			}
		}
		for _, tr := range light {
			for _, e := range tr.Edges() {
				if float64(counts[e]) >= thr {
					t.Fatalf("eps=%.1f: light %v has heavy edge %v", eps, tr, e)
				}
			}
		}
	}
	// eps=0 means threshold 1: every triangle's edges have >= 1 triangle.
	heavy, light := HeavyTriangles(g, 0)
	if len(light) != 0 || len(heavy) != CountTriangles(g) {
		t.Fatal("eps=0 must classify all triangles heavy")
	}
}

func TestInDeltaXAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Gnp(25, 0.4, rng)
	x := NewVertexSet(g.N())
	for v := 0; v < g.N(); v++ {
		if rng.Float64() < 0.2 {
			x.Add(v)
		}
	}
	for j := 0; j < g.N(); j++ {
		for l := 0; l < g.N(); l++ {
			if j == l {
				if InDeltaX(g, x, j, l) {
					t.Fatal("self pair in Delta(X)")
				}
				continue
			}
			// Brute definition: {j,l} not in union of E(N(x)).
			want := true
			for _, xv := range x.Members() {
				if g.HasEdge(xv, j) && g.HasEdge(xv, l) {
					want = false
					break
				}
			}
			if got := InDeltaX(g, x, j, l); got != want {
				t.Fatalf("InDeltaX(%d,%d) = %v, want %v", j, l, got, want)
			}
		}
	}
}

func TestTrianglesInDeltaXEmptyAndFullX(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Gnp(25, 0.5, rng)
	empty := NewVertexSet(g.N())
	if got := len(TrianglesInDeltaX(g, empty)); got != CountTriangles(g) {
		t.Fatalf("X=empty: got %d, want all %d", got, CountTriangles(g))
	}
	full := NewVertexSet(g.N())
	for v := 0; v < g.N(); v++ {
		full.Add(v)
	}
	// With X = V, any triangle edge {a,b} has common neighbor c in X.
	if got := len(TrianglesInDeltaX(g, full)); got != 0 {
		t.Fatalf("X=V: got %d Delta-triangles, want 0", got)
	}
}

func TestVertexSet(t *testing.T) {
	s := NewVertexSet(10)
	if s.Size() != 0 || s.Has(3) || s.Has(-1) || s.Has(99) {
		t.Fatal("empty set wrong")
	}
	s.Add(3)
	s.Add(7)
	s.Add(3)
	if s.Size() != 2 || !s.Has(3) || !s.Has(7) {
		t.Fatal("membership wrong")
	}
	m := s.Members()
	if len(m) != 2 || m[0] != 3 || m[1] != 7 {
		t.Fatalf("Members = %v", m)
	}
}

func TestTriangleSetOps(t *testing.T) {
	a := NewTriangleSet([]Triangle{NewTriangle(1, 2, 3), NewTriangle(2, 3, 4)})
	b := NewTriangleSet([]Triangle{NewTriangle(3, 2, 1)})
	if !a.ContainsAll(b) || b.ContainsAll(a) {
		t.Fatal("ContainsAll wrong")
	}
	if a.Equal(b) {
		t.Fatal("Equal wrong")
	}
	b.Add(NewTriangle(4, 3, 2))
	if !a.Equal(b) {
		t.Fatal("Equal after add wrong")
	}
	sl := a.Slice()
	if len(sl) != 2 || sl[0] != NewTriangle(1, 2, 3) {
		t.Fatalf("Slice = %v", sl)
	}
}

func TestPEdges(t *testing.T) {
	ts := []Triangle{NewTriangle(1, 2, 3), NewTriangle(2, 3, 4)}
	p := PEdges(ts)
	if len(p) != 5 { // {1,2},{1,3},{2,3},{2,4},{3,4}
		t.Fatalf("|P| = %d, want 5", len(p))
	}
	if _, ok := p[NewEdge(2, 3)]; !ok {
		t.Fatal("shared edge missing")
	}
	if len(PEdges(nil)) != 0 {
		t.Fatal("PEdges(nil) nonempty")
	}
}

// TestRivinPropertyOnRandomGraphs checks Lemma 4 on arbitrary random
// graphs: m >= sqrt(2)/3 t^{2/3} must hold for every real graph.
func TestRivinPropertyOnRandomGraphs(t *testing.T) {
	f := func(seed int64, nn, pp uint8) bool {
		n := 4 + int(nn)%40
		p := float64(pp%100) / 100
		g := Gnp(n, p, rand.New(rand.NewSource(seed)))
		return CheckRivin(g.M(), CountTriangles(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRivinLowerBoundValues(t *testing.T) {
	if RivinLowerBound(0) != 0 {
		t.Fatal("t=0")
	}
	// K4: 4 triangles, 6 edges; bound = sqrt2/3*4^{2/3} ~ 1.19.
	if !CheckRivin(6, 4) {
		t.Fatal("K4 fails Rivin")
	}
	// Impossibly triangle-rich graph must fail.
	if CheckRivin(3, 1000) {
		t.Fatal("3 edges cannot host 1000 triangles")
	}
	want := math.Sqrt2 / 3 * math.Pow(8, 2.0/3.0)
	if math.Abs(RivinLowerBound(8)-want) > 1e-12 {
		t.Fatal("formula drift")
	}
}

func TestTrianglesAmongEdges(t *testing.T) {
	edges := []Edge{
		NewEdge(10, 20), NewEdge(20, 30), NewEdge(10, 30), // triangle
		NewEdge(30, 40), // dangling
		NewEdge(10, 20), // duplicate
	}
	ts := TrianglesAmongEdges(edges)
	if len(ts) != 1 || ts[0] != NewTriangle(10, 20, 30) {
		t.Fatalf("got %v", ts)
	}
	if TrianglesAmongEdges(nil) != nil {
		t.Fatal("nil edges should give nil")
	}
}

func TestTrianglesAmongEdgesMatchesSubgraphOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := Gnp(30, 0.3, rng)
	edges := g.Edges()
	got := NewTriangleSet(TrianglesAmongEdges(edges))
	want := NewTriangleSet(ListTriangles(g))
	if !got.Equal(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
}

// trianglesAmongEdgesRef is the map-based reference for
// TrianglesAmongEdges: it compresses ids through a map, deduplicates edges
// in a map, and lists the triangles of the built graph with the oracle.
func trianglesAmongEdgesRef(edges []Edge) []Triangle {
	if len(edges) == 0 {
		return nil
	}
	ids := make(map[int]int)
	var orig []int
	idOf := func(v int) int {
		if x, ok := ids[v]; ok {
			return x
		}
		x := len(orig)
		ids[v] = x
		orig = append(orig, v)
		return x
	}
	seen := make(map[Edge]struct{}, len(edges))
	for _, e := range edges {
		seen[NewEdge(idOf(e.U), idOf(e.V))] = struct{}{}
	}
	b := NewBuilder(len(orig))
	for e := range seen {
		// The Builder rejects self-loops; every other compressed edge is
		// in range.
		_ = b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	ts := ListTriangles(g)
	out := make([]Triangle, 0, len(ts))
	for _, t := range ts {
		out = append(out, NewTriangle(orig[t.A], orig[t.B], orig[t.C]))
	}
	SortTriangles(out)
	return out
}

// fuzzEdges decodes data into an edge list: after a scale byte, each byte
// pair is one edge, in either orientation. A byte names an id in [-8, 16)
// times the scale, so the ids are negative, zero and positive, as large as
// 255·2^33+1 times 15, and collide often enough to close triangles.
func fuzzEdges(data []byte) []Edge {
	if len(data) == 0 {
		return nil
	}
	scale := 1 + int(data[0])<<33
	id := func(b byte) int { return (int(b)%24 - 8) * scale }
	var edges []Edge
	for i := 1; i+1 < len(data); i += 2 {
		edges = append(edges, Edge{U: id(data[i]), V: id(data[i+1])})
	}
	return edges
}

// FuzzTrianglesAmongEdges pins the sort-based local lister to the
// map-based reference: the same triangles in the same order.
func FuzzTrianglesAmongEdges(f *testing.F) {
	f.Add([]byte{0, 8, 9, 9, 10, 8, 10})                 // one triangle
	f.Add([]byte{0, 8, 9, 9, 8, 9, 10, 10, 8, 8, 9})     // duplicates, both orientations
	f.Add([]byte{0, 8, 8, 8, 9, 9, 9, 9, 10, 10, 8, 10}) // self-loops
	f.Add([]byte{0, 0, 1, 1, 2, 0, 2, 2, 3, 3, 0, 1, 3}) // negative ids
	f.Add([]byte{255, 8, 23, 23, 9, 9, 8, 0, 23})        // ids far above any n
	f.Add([]byte{3, 8, 9, 8, 10, 8, 11, 9, 10, 9, 11, 10, 11, 11, 12, 12, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		edges := fuzzEdges(data)
		want := trianglesAmongEdgesRef(edges)
		got := TrianglesAmongEdges(edges)
		if !slices.Equal(got, want) {
			t.Fatalf("TrianglesAmongEdges(%v) = %v, reference %v", edges, got, want)
		}
	})
}

// TestTrianglesAmongEdgesAllocs: a warm call allocates only its result.
func TestTrianglesAmongEdgesAllocs(t *testing.T) {
	edges := Gnp(40, 0.3, rand.New(rand.NewSource(9))).Edges()
	if len(TrianglesAmongEdges(edges)) == 0 {
		t.Fatal("no triangles to list")
	}
	if a := testing.AllocsPerRun(20, func() { TrianglesAmongEdges(edges) }); a > 1 {
		t.Fatalf("%.1f allocations per warm call, want at most 1", a)
	}
}

// BenchmarkTrianglesAmongEdges lists the triangles of every edge of a
// graph: gnp(48, 0.2) is about the edge set one Dolev node lists in the
// serve workload, and gnp(160, 0.5) the dense regime.
func BenchmarkTrianglesAmongEdges(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		p    float64
	}{{"gnp48", 48, 0.2}, {"gnp160", 160, 0.5}} {
		edges := Gnp(tc.n, tc.p, rand.New(rand.NewSource(1))).Edges()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TrianglesAmongEdges(edges)
			}
		})
	}
}
