// Package graph provides the undirected-graph substrate used throughout the
// repository: compact adjacency storage, synthetic graph generators, an exact
// centralized triangle oracle, per-edge triangle counts, epsilon-heaviness
// classification, and the Delta(X) predicate from Izumi & Le Gall (PODC'17).
//
// All node identifiers are integers in [0, n), matching the paper's
// assumption I = V = [0, n-1].
//
// Graphs are stored in compressed sparse row (CSR) form: a single offsets
// array and a single targets array shared by all vertices. Adjacency queries
// return subslices of the targets slab, so iterating a neighborhood touches
// one contiguous cache-friendly region and performs no allocation.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Edge is an unordered pair of distinct vertices, stored with U < V.
type Edge struct {
	U, V int
}

// NewEdge returns the canonical (sorted) form of the edge {a, b}.
func NewEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Contains reports whether vertex x is an endpoint of e.
func (e Edge) Contains(x int) bool { return e.U == x || e.V == x }

// Other returns the endpoint of e that is not x. It returns -1 when x is not
// an endpoint.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return -1
	}
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Triangle is an unordered triple of distinct vertices, stored with
// A < B < C.
type Triangle struct {
	A, B, C int
}

// NewTriangle returns the canonical (sorted) form of the triple {a, b, c}.
func NewTriangle(a, b, c int) Triangle {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return Triangle{A: a, B: b, C: c}
}

// Edges returns the three edges of the triangle in canonical order.
func (t Triangle) Edges() [3]Edge {
	return [3]Edge{
		{U: t.A, V: t.B},
		{U: t.A, V: t.C},
		{U: t.B, V: t.C},
	}
}

// Contains reports whether vertex x is one of the triangle's vertices.
func (t Triangle) Contains(x int) bool { return t.A == x || t.B == x || t.C == x }

// ContainsEdge reports whether e is one of the triangle's three edges
// (the paper's "e in t" relation).
func (t Triangle) ContainsEdge(e Edge) bool {
	for _, te := range t.Edges() {
		if te == e {
			return true
		}
	}
	return false
}

// Valid reports whether the triple has three distinct, sorted vertices.
func (t Triangle) Valid() bool { return t.A < t.B && t.B < t.C && t.A >= 0 }

// CompareTriangles is the canonical (A, B, C) lexicographic order — the
// one comparator behind every sorted triangle listing in the repository.
func CompareTriangles(a, b Triangle) int {
	if a.A != b.A {
		return cmp.Compare(a.A, b.A)
	}
	if a.B != b.B {
		return cmp.Compare(a.B, b.B)
	}
	return cmp.Compare(a.C, b.C)
}

// SortTriangles sorts ts in the canonical (A, B, C) order.
func SortTriangles(ts []Triangle) { slices.SortFunc(ts, CompareTriangles) }

// String implements fmt.Stringer.
func (t Triangle) String() string { return fmt.Sprintf("{%d,%d,%d}", t.A, t.B, t.C) }

// Graph is an immutable simple undirected graph with vertices [0, n), stored
// as CSR arrays. Per-vertex adjacency is sorted ascending, enabling O(log d)
// membership tests and linear-time sorted intersections.
type Graph struct {
	n    int
	m    int
	offs []int32 // len n+1; adjacency of v is tgts[offs[v]:offs[v+1]]
	tgts []int32 // len 2m; neighbor ids, sorted within each vertex range
}

// MaxEdges is the largest undirected edge count an in-memory Graph can
// hold: CSR offsets are int32, so the targets slab caps at 2^31-1 directed
// slots, i.e. floor((2^31-1)/2) undirected edges. The on-disk .csrbin
// format accepts 64-bit offsets; crossing this boundary is reported as
// ErrGraphTooLarge wherever a file or builder would exceed it.
const MaxEdges = (1<<31 - 1) / 2

// ErrGraphTooLarge reports that a graph exceeds the in-memory int32 edge
// space. Use errors.Is to detect it under the wrapped, context-carrying
// errors the builders and loaders return.
var ErrGraphTooLarge = fmt.Errorf("graph exceeds the int32 CSR edge space (max %d undirected edges)", MaxEdges)

// checkEdgeSpace reports ErrGraphTooLarge when a graph of m undirected
// edges would not fit the int32 edge space. Every constructor and loader
// guards through it on a length alone, before allocating or reading an
// element, so the boundary is testable with plain integers.
func checkEdgeSpace(m int64) error {
	if m > MaxEdges {
		return fmt.Errorf("%d undirected edges: %w", m, ErrGraphTooLarge)
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self-loops are rejected at Finalize time (AddEdge reports them too).
type Builder struct {
	n     int
	edges map[Edge]struct{}
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[Edge]struct{})}
}

// AddEdge inserts the undirected edge {a, b}. It returns an error for
// self-loops or out-of-range endpoints; duplicate insertions are idempotent.
func (b *Builder) AddEdge(a, c int) error {
	if a == c {
		return fmt.Errorf("self-loop at vertex %d", a)
	}
	if a < 0 || a >= b.n || c < 0 || c >= b.n {
		return fmt.Errorf("edge {%d,%d} out of range [0,%d)", a, c, b.n)
	}
	e := NewEdge(a, c)
	if _, dup := b.edges[e]; !dup {
		if err := checkEdgeSpace(int64(len(b.edges)) + 1); err != nil {
			return fmt.Errorf("adding edge {%d,%d}: %w", a, c, err)
		}
	}
	b.edges[e] = struct{}{}
	return nil
}

// HasEdge reports whether the edge has already been added.
func (b *Builder) HasEdge(a, c int) bool {
	_, ok := b.edges[NewEdge(a, c)]
	return ok
}

// EdgeCount returns the number of distinct edges added so far.
func (b *Builder) EdgeCount() int { return len(b.edges) }

// Build finalizes the Builder into an immutable CSR Graph.
func (b *Builder) Build() *Graph {
	offs := make([]int32, b.n+1)
	for e := range b.edges {
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for v := 0; v < b.n; v++ {
		offs[v+1] += offs[v]
	}
	tgts := make([]int32, 2*len(b.edges))
	fill := make([]int32, b.n)
	for e := range b.edges {
		tgts[offs[e.U]+fill[e.U]] = int32(e.V)
		fill[e.U]++
		tgts[offs[e.V]+fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	g := &Graph{n: b.n, m: len(b.edges), offs: offs, tgts: tgts}
	for v := 0; v < b.n; v++ {
		slices.Sort(g.Neighbors(v))
	}
	return g
}

// FromEdges builds a graph on n vertices from an edge slice.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// FromSortedEdges builds a graph on n vertices from an edge slice that is
// already in canonical order: each edge with U < V, the slice sorted
// strictly ascending by (U, V) — so duplicates are adjacent and detected by
// a single comparison. This is the allocation-lean construction path for
// producers that emit edges in order (generators, sorted file ingest): a
// two-pass count+fill over the slice with one per-edge range check, no
// per-edge map entry and no per-row sort (each row is filled ascending by
// construction). Building n=10^6 with m=4*10^6 this way costs two linear
// scans instead of an O(m) hash map.
func FromSortedEdges(n int, edges []Edge) (*Graph, error) {
	if err := checkEdgeSpace(int64(len(edges))); err != nil {
		return nil, fmt.Errorf("graph: FromSortedEdges: %w", err)
	}
	offs := make([]int32, n+1)
	for i, e := range edges {
		if e.U >= e.V {
			if e.U == e.V {
				return nil, fmt.Errorf("graph: FromSortedEdges edge %d is a self-loop at %d", i, e.U)
			}
			return nil, fmt.Errorf("graph: FromSortedEdges edge %d = {%d,%d} not canonical (U < V)", i, e.U, e.V)
		}
		if e.U < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: FromSortedEdges edge %d = {%d,%d} out of range [0,%d)", i, e.U, e.V, n)
		}
		if i > 0 {
			prev := edges[i-1]
			if e.U < prev.U || (e.U == prev.U && e.V <= prev.V) {
				if e == prev {
					return nil, fmt.Errorf("graph: FromSortedEdges duplicate edge {%d,%d} at index %d", e.U, e.V, i)
				}
				return nil, fmt.Errorf("graph: FromSortedEdges edge %d = {%d,%d} out of order after {%d,%d}", i, e.U, e.V, prev.U, prev.V)
			}
		}
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	// Fill pass. Rows for U fill ascending because edges arrive sorted by
	// (U, V); rows for V fill ascending because for a fixed V the partners U
	// arrive in ascending U order. The two interleave within one row: all of
	// v's smaller partners (edges where v is the V side) arrive before v's
	// own (U side) run starts, since every such edge has U < v.
	tgts := make([]int32, 2*len(edges))
	fill := make([]int32, n)
	for _, e := range edges {
		tgts[offs[e.U]+fill[e.U]] = int32(e.V)
		fill[e.U]++
		tgts[offs[e.V]+fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	return &Graph{n: n, m: len(edges), offs: offs, tgts: tgts}, nil
}

// FromCSR builds a Graph directly from CSR slabs, taking ownership of the
// slices (the caller must not modify them afterwards). offsets must have
// length n+1 and targets length offsets[n], with each row strictly sorted
// and the whole structure symmetric and loop-free; the invariants are
// checked and a violation is returned as an error. This is the fast path
// for producers that already hold sorted adjacency — e.g. the dynamic-graph
// subsystem's epoch snapshots — and skips the Builder's edge map entirely.
func FromCSR(n int, offsets, targets []int32) (*Graph, error) {
	if n < 0 || len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: FromCSR offsets length %d for n=%d", len(offsets), n)
	}
	if len(targets)%2 != 0 {
		return nil, fmt.Errorf("graph: FromCSR odd target count %d", len(targets))
	}
	if err := checkEdgeSpace(int64(len(targets) / 2)); err != nil {
		return nil, fmt.Errorf("graph: FromCSR: %w", err)
	}
	g := &Graph{n: n, m: len(targets) / 2, offs: offsets, tgts: targets}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: FromCSR: %w", err)
	}
	return g, nil
}

// FromCSRUnchecked is FromCSR without the O(m log d) invariant check, for
// producers that maintain sortedness and symmetry structurally — the
// dynamic-graph subsystem emits one snapshot per churn epoch and keeps
// both invariants on every single-edge update. A caller that hands over a
// malformed CSR gets undefined behavior from every consumer; when in any
// doubt, use FromCSR.
func FromCSRUnchecked(n int, offsets, targets []int32) *Graph {
	return &Graph{n: n, m: len(targets) / 2, offs: offsets, tgts: targets}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.offs[v+1] - g.offs[v]) }

// MaxDegree returns the maximum degree d_max (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := int32(0)
	for v := 0; v < g.n; v++ {
		if dv := g.offs[v+1] - g.offs[v]; dv > d {
			d = dv
		}
	}
	return int(d)
}

// Neighbors returns the sorted adjacency of v as a subslice of the CSR
// targets slab. The returned slice is shared with the graph's internal
// storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.tgts[g.offs[v]:g.offs[v+1]] }

// CSR exposes the raw CSR arrays (offsets of length n+1, targets of length
// 2m). Consumers such as the simulator index flat per-edge state by
// offsets[v]+i. The slices are shared and must not be modified.
func (g *Graph) CSR() (offsets, targets []int32) { return g.offs, g.tgts }

// HasEdge reports whether {a, b} is an edge, in O(log deg) time.
func (g *Graph) HasEdge(a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	// Search the shorter list.
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	_, ok := slices.BinarySearch(g.Neighbors(a), int32(b))
	return ok
}

// Edges returns all edges in canonical order (sorted by (U, V)).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				out = append(out, Edge{U: u, V: int(v)})
			}
		}
	}
	return out
}

// CommonNeighbors returns the sorted intersection N(a) cap N(b).
func (g *Graph) CommonNeighbors(a, b int) []int32 {
	return IntersectSorted(g.Neighbors(a), g.Neighbors(b))
}

// CommonNeighborCount returns |N(a) cap N(b)| without allocating.
func (g *Graph) CommonNeighborCount(a, b int) int {
	la, lb := g.Neighbors(a), g.Neighbors(b)
	i, j, c := 0, 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// Validate checks internal invariants (monotone offsets, sorted adjacency,
// symmetry, no loops). It is primarily a test helper for hand-constructed
// graphs.
func (g *Graph) Validate() error {
	if len(g.offs) != g.n+1 || g.offs[0] != 0 || int(g.offs[g.n]) != len(g.tgts) {
		return errors.New("malformed CSR offsets")
	}
	count := 0
	for v := 0; v < g.n; v++ {
		if g.offs[v] > g.offs[v+1] {
			return fmt.Errorf("offsets not monotone at %d", v)
		}
		lst := g.Neighbors(v)
		for i, u := range lst {
			if int(u) == v {
				return fmt.Errorf("self-loop at %d", v)
			}
			if u < 0 || int(u) >= g.n {
				return fmt.Errorf("neighbor %d of %d out of range", u, v)
			}
			if i > 0 && lst[i-1] >= u {
				return fmt.Errorf("adjacency of %d not strictly sorted", v)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("asymmetric edge {%d,%d}", v, u)
			}
			count++
		}
	}
	if count != 2*g.m {
		return errors.New("edge count mismatch")
	}
	return nil
}

// Subgraph returns the induced subgraph on the given vertex set, together
// with the mapping from new vertex index to original vertex id.
func (g *Graph) Subgraph(vs []int) (*Graph, []int) {
	keep := make(map[int]int, len(vs))
	orig := make([]int, 0, len(vs))
	for _, v := range vs {
		if _, dup := keep[v]; dup {
			continue
		}
		keep[v] = len(orig)
		orig = append(orig, v)
	}
	b := NewBuilder(len(orig))
	for _, v := range orig {
		for _, u := range g.Neighbors(v) {
			if nu, ok := keep[int(u)]; ok && keep[v] < nu {
				// Safe: both endpoints kept and distinct.
				_ = b.AddEdge(keep[v], nu)
			}
		}
	}
	return b.Build(), orig
}

// IntersectSorted returns the intersection of two ascending-sorted slices.
func IntersectSorted[E ~int | ~int32 | ~int64](a, b []E) []E {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]E, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
