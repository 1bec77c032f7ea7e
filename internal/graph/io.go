package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteEdgeList serializes g in a plain text format:
//
//	n <numVertices>
//	<u> <v>        (one line per edge, u < v, sorted)
//
// Lines beginning with '#' are comments.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Edges may appear
// in any order; duplicate edge lines are idempotent (either orientation).
// Ingest is streamed straight into an edge slice and finalized through
// FromSortedEdges — no per-edge map entry — so large text files build in two
// linear passes after one sort. Malformed lines, including a second "n"
// header after edges have started, are reported with their line number.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	n := -1
	headerLine := 0
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fields := strings.Fields(txt)
		if n < 0 {
			if len(fields) != 2 || fields[0] != "n" {
				return nil, fmt.Errorf("line %d: expected header \"n <count>\", got %q", line, txt)
			}
			c, err := strconv.Atoi(fields[1])
			if err != nil || c < 0 {
				return nil, fmt.Errorf("line %d: bad vertex count %q", line, fields[1])
			}
			n = c
			headerLine = line
			continue
		}
		if fields[0] == "n" {
			return nil, fmt.Errorf("line %d: second \"n\" header (first at line %d)", line, headerLine)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: expected \"u v\", got %q", line, txt)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad endpoint %q", line, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad endpoint %q", line, fields[1])
		}
		if u == v {
			return nil, fmt.Errorf("line %d: self-loop at vertex %d", line, u)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("line %d: edge {%d,%d} out of range [0,%d)", line, u, v, n)
		}
		if err := checkEdgeSpace(int64(len(edges)) + 1); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		edges = append(edges, NewEdge(u, v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("empty input: missing \"n <count>\" header")
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	return FromSortedEdges(n, slices.Compact(edges))
}

// BFSDepths returns the hop distance from src to every vertex (-1 when
// unreachable).
func BFSDepths(g *Graph, src int) []int {
	depth := make([]int, g.N())
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if depth[u] == -1 {
				depth[u] = depth[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return depth
}

// Diameter returns the largest finite hop distance between any two vertices
// (0 for empty or singleton graphs; disconnected pairs are ignored). It
// runs a BFS per vertex, so it is an oracle for test-sized graphs.
func Diameter(g *Graph) int {
	d := 0
	for v := 0; v < g.N(); v++ {
		for _, dep := range BFSDepths(g, v) {
			if dep > d {
				d = dep
			}
		}
	}
	return d
}

// Connected reports whether g has a single connected component (trivially
// true for n <= 1).
func Connected(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	for _, dep := range BFSDepths(g, 0) {
		if dep == -1 {
			return false
		}
	}
	return true
}

// DegreeStats summarizes the degree distribution of a graph.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// Degrees computes the degree statistics of g.
func Degrees(g *Graph) DegreeStats {
	if g.N() == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: g.Degree(0), Max: g.Degree(0)}
	sum := 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		sum += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(sum) / float64(g.N())
	return st
}
