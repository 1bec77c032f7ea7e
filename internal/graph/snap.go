package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// ReadSNAPEdgeList parses the SNAP edge-list dialect: no header, one edge
// per line as whitespace-separated endpoint IDs (extra columns — weights,
// timestamps — are ignored), '#' or '%' comment lines anywhere, arbitrary
// non-contiguous 64-bit node IDs. IDs are relabeled densely in ascending
// original-ID order, so the result is independent of line order; the
// returned labels slice maps each dense vertex back to its original ID
// (labels[v] is vertex v's ID in the input). Self-loops are dropped and
// duplicate edges (either orientation) are deduplicated, both silently —
// real SNAP dumps contain them. Vertices appearing only in self-loops are
// dropped with their loops.
func ReadSNAPEdgeList(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	type pair struct{ u, v int64 }
	var pairs []pair
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || txt[0] == '#' || txt[0] == '%' {
			continue
		}
		fields := strings.Fields(txt)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("line %d: expected \"u v\", got %q", line, txt)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad endpoint %q", line, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad endpoint %q", line, fields[1])
		}
		if u == v {
			continue
		}
		// A SNAP file may list each edge once per direction, so 2·MaxEdges
		// raw pairs can still deduplicate into the edge space.
		if err := checkEdgeSpace((int64(len(pairs)) + 2) / 2); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		pairs = append(pairs, pair{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	labels := make([]int64, 0, 2*len(pairs))
	for _, p := range pairs {
		labels = append(labels, p.u, p.v)
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	dense := make(map[int64]int, len(labels))
	for i, id := range labels {
		dense[id] = i
	}
	edges := make([]Edge, 0, len(pairs))
	for _, p := range pairs {
		edges = append(edges, NewEdge(dense[p.u], dense[p.v]))
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	edges = slices.Compact(edges)
	g, err := FromSortedEdges(len(labels), edges)
	if err != nil {
		return nil, nil, err
	}
	return g, labels, nil
}

// WriteSNAPEdgeList serializes g in the SNAP dialect: a comment header and
// one tab-separated edge per line, using the graph's dense vertex IDs. The
// format has no vertex-count header, so isolated vertices are not
// representable; g must have none (every generator output read back through
// ReadSNAPEdgeList does).
func WriteSNAPEdgeList(w io.Writer, g *Graph) error {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			return fmt.Errorf("graph: SNAP edge-list format cannot represent isolated vertex %d", v)
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Undirected graph: n %d m %d\n# FromNodeId\tToNodeId\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeListAuto reads a text edge list in either the repository format
// (leading "n <count>" header; ReadEdgeList) or the SNAP dialect
// (headerless; ReadSNAPEdgeList, original IDs discarded), sniffing the
// first data line within a 1 MiB window. Inputs with no data line in the
// window go to the strict repository reader for its error reporting.
func ReadEdgeListAuto(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head, err := br.Peek(1 << 20)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return nil, err
	}
	if sniffSNAP(head) {
		g, _, err := ReadSNAPEdgeList(br)
		return g, err
	}
	return ReadEdgeList(br)
}

// sniffSNAP reports whether the first non-blank, non-comment line in head
// looks like a headerless SNAP edge row rather than the repository
// format's "n <count>" header.
func sniffSNAP(head []byte) bool {
	for len(head) > 0 {
		var ln []byte
		if i := bytes.IndexByte(head, '\n'); i >= 0 {
			ln, head = head[:i], head[i+1:]
		} else {
			ln, head = head, nil
		}
		txt := bytes.TrimSpace(ln)
		if len(txt) == 0 || txt[0] == '#' || txt[0] == '%' {
			continue
		}
		fields := bytes.Fields(txt)
		return !(len(fields) == 2 && string(fields[0]) == "n")
	}
	return false
}
