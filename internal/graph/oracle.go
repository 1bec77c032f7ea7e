package graph

import (
	"math"
	"slices"
	"sync"
)

// ListTrianglesBrute enumerates T(G) by checking all O(n^3) triples. It is a
// test oracle for the oracle.
func ListTrianglesBrute(g *Graph) []Triangle {
	var out []Triangle
	n := g.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					out = append(out, Triangle{A: a, B: b, C: c})
				}
			}
		}
	}
	return out
}

// TrianglesOf returns the triangles of T(G) containing vertex v (the local
// listing requirement of Proposition 5).
func TrianglesOf(g *Graph, v int) []Triangle {
	var out []Triangle
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if g.HasEdge(int(nbrs[i]), int(nbrs[j])) {
				out = append(out, NewTriangle(v, int(nbrs[i]), int(nbrs[j])))
			}
		}
	}
	return out
}

// EdgeTriangleCounts returns the paper's #(e) for every edge: the number of
// triangles containing e. Edges in no triangle are present with count 0.
func EdgeTriangleCounts(g *Graph) map[Edge]int {
	return edgeTriangleCountsOf(g, ListTriangles(g))
}

// edgeTriangleCountsOf derives the per-edge counts from an already-computed
// triangle list, so callers that need both pay for one oracle pass.
func edgeTriangleCountsOf(g *Graph, ts []Triangle) map[Edge]int {
	counts := make(map[Edge]int, g.M())
	for _, e := range g.Edges() {
		counts[e] = 0
	}
	for _, t := range ts {
		for _, e := range t.Edges() {
			counts[e]++
		}
	}
	return counts
}

// HeavyThreshold returns n^eps, the triangle-multiplicity threshold defining
// epsilon-heavy triangles.
func HeavyThreshold(n int, eps float64) float64 {
	return math.Pow(float64(n), eps)
}

// HeavyTriangles partitions T(G) into the epsilon-heavy set T_eps(G) (some
// edge of the triangle lies in >= n^eps triangles) and its complement.
func HeavyTriangles(g *Graph, eps float64) (heavy, light []Triangle) {
	ts := ListTriangles(g)
	counts := edgeTriangleCountsOf(g, ts)
	thr := HeavyThreshold(g.N(), eps)
	for _, t := range ts {
		isHeavy := false
		for _, e := range t.Edges() {
			if float64(counts[e]) >= thr {
				isHeavy = true
				break
			}
		}
		if isHeavy {
			heavy = append(heavy, t)
		} else {
			light = append(light, t)
		}
	}
	return heavy, light
}

// VertexSet is a membership bitmap over [0, n).
type VertexSet []bool

// NewVertexSet returns an empty set over [0, n).
func NewVertexSet(n int) VertexSet { return make(VertexSet, n) }

// Add inserts v.
func (s VertexSet) Add(v int) { s[v] = true }

// Has reports membership.
func (s VertexSet) Has(v int) bool { return v >= 0 && v < len(s) && s[v] }

// Members returns the sorted member list.
func (s VertexSet) Members() []int {
	var out []int
	for v, in := range s {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// Size returns |s|.
func (s VertexSet) Size() int {
	c := 0
	for _, in := range s {
		if in {
			c++
		}
	}
	return c
}

// InDeltaX reports whether the pair {j, l} lies in Delta(X) = E(V) minus the
// union over x in X of E(N(x)): that is, whether j and l have no common
// neighbor inside X. Pairs need not be edges of G. A vertex is never
// "in Delta" with itself.
func InDeltaX(g *Graph, x VertexSet, j, l int) bool {
	if j == l {
		return false
	}
	// Scan the shorter adjacency for common X-neighbors.
	a, b := g.Neighbors(j), g.Neighbors(l)
	if len(a) > len(b) {
		a, b = b, a
	}
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		switch {
		case a[i] < b[k]:
			i++
		case a[i] > b[k]:
			k++
		default:
			if x.Has(int(a[i])) {
				return false
			}
			i++
			k++
		}
	}
	return true
}

// TrianglesInDeltaX returns the triangles of G whose three edges all lie in
// Delta(X) — exactly the triangles Algorithm A(X, r) must list
// (Proposition 4).
func TrianglesInDeltaX(g *Graph, x VertexSet) []Triangle {
	var out []Triangle
	for _, t := range ListTriangles(g) {
		if InDeltaX(g, x, t.A, t.B) && InDeltaX(g, x, t.A, t.C) && InDeltaX(g, x, t.B, t.C) {
			out = append(out, t)
		}
	}
	return out
}

// TriangleSet is a set of triangles with canonical keys.
type TriangleSet map[Triangle]struct{}

// NewTriangleSet builds a set from a slice.
func NewTriangleSet(ts []Triangle) TriangleSet {
	s := make(TriangleSet, len(ts))
	for _, t := range ts {
		s[t] = struct{}{}
	}
	return s
}

// Add inserts t.
func (s TriangleSet) Add(t Triangle) { s[t] = struct{}{} }

// Has reports membership.
func (s TriangleSet) Has(t Triangle) bool {
	_, ok := s[t]
	return ok
}

// Equal reports set equality.
func (s TriangleSet) Equal(o TriangleSet) bool {
	if len(s) != len(o) {
		return false
	}
	for t := range s {
		if !o.Has(t) {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every triangle of o is in s.
func (s TriangleSet) ContainsAll(o TriangleSet) bool {
	for t := range o {
		if !s.Has(t) {
			return false
		}
	}
	return true
}

// Slice returns the members sorted by (A, B, C).
func (s TriangleSet) Slice() []Triangle {
	out := make([]Triangle, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	SortTriangles(out)
	return out
}

// TrianglesAmongEdges lists the triangles of the graph formed by the given
// edge multiset: duplicates and self-loops are ignored, and vertex ids are
// arbitrary integers. Results use the original ids, sorted canonically; nil
// when there are none.
//
// It is the local listing step of A2 and of the Dolev-Lenzen-Peled lister,
// run once per node. The ids are compressed by sorting, which keeps their
// order, so a triangle u < v < w of the compressed graph is the canonical
// triangle of the original ids. Each compressed edge is oriented from its
// lower to its higher endpoint into a small forward CSR, and the triangles
// through u and its forward neighbour v are the forward neighbours of v
// that follow v in u's row: visiting u, then v, in ascending order and
// intersecting ascending rows emits them in canonical order. The working
// set comes from a pool, so a warm call allocates only its result.
func TrianglesAmongEdges(edges []Edge) []Triangle {
	s := localPool.Get().(*localScratch)
	defer localPool.Put(s)
	ids := s.ids[:0]
	for _, e := range edges {
		if e.U != e.V {
			ids = append(ids, e.U, e.V)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	s.ids = ids
	if len(ids) < 3 {
		return nil
	}
	// Compressed edges as lower<<32 | higher: sorted, they are the forward
	// rows in order, each row ascending.
	keys := s.keys[:0]
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		u, _ := slices.BinarySearch(ids, e.U)
		v, _ := slices.BinarySearch(ids, e.V)
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(u)<<32|uint64(v))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	s.keys = keys
	offs := resizeI32(s.offs, len(ids)+1)
	clear(offs)
	tgts := resizeI32(s.tgts, len(keys))
	for i, k := range keys {
		offs[k>>32+1]++
		tgts[i] = int32(uint32(k))
	}
	for u := range ids {
		offs[u+1] += offs[u]
	}
	s.offs, s.tgts = offs, tgts
	out, common := s.out[:0], s.common
	for u := range ids {
		row := tgts[offs[u]:offs[u+1]]
		for i, v := range row {
			common = adaptiveInto(row[i+1:], tgts[offs[v]:offs[v+1]], common[:0])
			for _, w := range common {
				out = append(out, Triangle{A: ids[u], B: ids[v], C: ids[w]})
			}
		}
	}
	s.out, s.common = out, common
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

// localScratch is TrianglesAmongEdges' working set. Every call takes its
// own from localPool, so concurrent calls (shard workers) never share one.
type localScratch struct {
	ids    []int    // the distinct endpoint ids, ascending
	keys   []uint64 // the distinct compressed edges, lower<<32 | higher
	offs   []int32  // forward CSR offsets, by compressed id
	tgts   []int32  // forward CSR targets: higher compressed ids, ascending
	common []int32  // one intersection's result
	out    []Triangle
}

var localPool = sync.Pool{New: func() any { return new(localScratch) }}

// PEdges returns P(R): the set of edges covered by some triangle in R
// (Section 2). The information-theoretic lower bound of Theorem 3 is driven
// by |P(T_w)|.
func PEdges(ts []Triangle) map[Edge]struct{} {
	out := make(map[Edge]struct{}, 3*len(ts))
	for _, t := range ts {
		for _, e := range t.Edges() {
			out[e] = struct{}{}
		}
	}
	return out
}

// RivinLowerBound returns sqrt(2)/3 * t^{2/3}, the minimum number of edges a
// graph with t triangles can have (Lemma 4, due to Rivin).
func RivinLowerBound(t int) float64 {
	return math.Sqrt2 / 3 * math.Pow(float64(t), 2.0/3.0)
}

// CheckRivin reports whether a graph with m edges and t triangles satisfies
// Lemma 4. Every real graph must.
func CheckRivin(m, t int) bool {
	return float64(m) >= RivinLowerBound(t)-1e-9
}
