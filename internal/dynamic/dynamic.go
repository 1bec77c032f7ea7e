// Package dynamic is the dynamic-graph subsystem: batched edge churn over a
// fixed vertex set, epoch-numbered immutable CSR snapshots compatible with
// every graph.Graph consumer, and an incremental triangle oracle that
// maintains the rank-oriented forward orientation of the static oracle
// (internal/graph/listing.go) under updates, enumerating per-batch triangle
// deltas — born and died triangles — instead of re-listing from scratch.
//
// The contract mirrors real streaming deployments: edges arrive and expire
// continuously (sliding windows, flips, organic growth), and consumers want
// both a point-in-time immutable view (Snapshot, for the simulator) and the
// exact triangle delta per update batch (IncrementalOracle.Apply) without
// paying the O(m^{3/2}) static recompute on every epoch.
package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Batch is one atomic update: a set of edge deletions applied before a set
// of insertions. Within a batch each undirected edge may appear at most
// once across both lists; deleted edges must be present and inserted edges
// absent. Endpoints are canonicalized (U < V) on application.
type Batch struct {
	Delete []graph.Edge
	Insert []graph.Edge
}

// Empty reports whether the batch carries no updates.
func (b Batch) Empty() bool { return len(b.Delete) == 0 && len(b.Insert) == 0 }

// DynamicGraph is a mutable simple undirected graph over the fixed vertex
// set [0, n). Updates are applied in batches, each bumping the epoch
// counter; Snapshot freezes the current state into an immutable CSR
// graph.Graph that shares nothing with the mutable adjacency, so earlier
// snapshots stay valid forever.
type DynamicGraph struct {
	n     int
	m     int
	epoch uint64
	adj   [][]int32 // per-vertex sorted neighbor ids

	seen map[graph.Edge]struct{} // batch-dedup scratch, reused across Apply
}

// New returns an edgeless dynamic graph on n vertices at epoch 0.
func New(n int) *DynamicGraph {
	return &DynamicGraph{n: n, adj: make([][]int32, n)}
}

// FromGraph returns a dynamic graph initialized to g's edge set (epoch 0).
// The adjacency is copied; g is not retained.
func FromGraph(g *graph.Graph) *DynamicGraph {
	d := New(g.N())
	d.m = g.M()
	for v := 0; v < g.N(); v++ {
		d.adj[v] = append([]int32(nil), g.Neighbors(v)...)
	}
	return d
}

// N returns the (fixed) vertex count.
func (d *DynamicGraph) N() int { return d.n }

// M returns the current edge count.
func (d *DynamicGraph) M() int { return d.m }

// Epoch returns the number of batches applied so far.
func (d *DynamicGraph) Epoch() uint64 { return d.epoch }

// Degree returns the current degree of v.
func (d *DynamicGraph) Degree(v int) int { return len(d.adj[v]) }

// HasEdge reports whether {a, b} is currently an edge.
func (d *DynamicGraph) HasEdge(a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= d.n || b >= d.n {
		return false
	}
	if len(d.adj[a]) > len(d.adj[b]) {
		a, b = b, a
	}
	_, ok := slices.BinarySearch(d.adj[a], int32(b))
	return ok
}

// Neighbors returns the current sorted adjacency of v. The slice aliases
// the mutable store and is invalidated by the next Apply; copy to keep.
func (d *DynamicGraph) Neighbors(v int) []int32 { return d.adj[v] }

// Apply validates and applies one batch (deletions first, then
// insertions) and bumps the epoch. On error the graph is unchanged.
func (d *DynamicGraph) Apply(b Batch) error {
	dels, ins, err := d.canonBatch(b)
	if err != nil {
		return err
	}
	for _, e := range dels {
		d.deleteEdge(e.U, e.V)
	}
	for _, e := range ins {
		d.insertEdge(e.U, e.V)
	}
	d.epoch++
	return nil
}

// canonBatch canonicalizes and validates a batch against the current
// state: endpoints sorted, every edge distinct across both lists, deletes
// present, inserts absent, no loops, all endpoints in range.
func (d *DynamicGraph) canonBatch(b Batch) (dels, ins []graph.Edge, err error) {
	if d.seen == nil {
		d.seen = make(map[graph.Edge]struct{}, len(b.Delete)+len(b.Insert))
	}
	clear(d.seen)
	seen := d.seen
	check := func(e graph.Edge, kind string) (graph.Edge, error) {
		if e.U == e.V {
			return e, fmt.Errorf("dynamic: %s self-loop at %d", kind, e.U)
		}
		ce := graph.NewEdge(e.U, e.V)
		if ce.U < 0 || ce.V >= d.n {
			return e, fmt.Errorf("dynamic: %s edge %v out of range [0,%d)", kind, e, d.n)
		}
		if _, dup := seen[ce]; dup {
			return e, fmt.Errorf("dynamic: edge %v appears twice in one batch", ce)
		}
		seen[ce] = struct{}{}
		return ce, nil
	}
	dels = make([]graph.Edge, 0, len(b.Delete))
	for _, e := range b.Delete {
		ce, err := check(e, "delete")
		if err != nil {
			return nil, nil, err
		}
		if !d.HasEdge(ce.U, ce.V) {
			return nil, nil, fmt.Errorf("dynamic: delete of absent edge %v", ce)
		}
		dels = append(dels, ce)
	}
	ins = make([]graph.Edge, 0, len(b.Insert))
	for _, e := range b.Insert {
		ce, err := check(e, "insert")
		if err != nil {
			return nil, nil, err
		}
		if d.HasEdge(ce.U, ce.V) {
			return nil, nil, fmt.Errorf("dynamic: insert of present edge %v", ce)
		}
		ins = append(ins, ce)
	}
	return dels, ins, nil
}

// insertEdge adds {u, v} to both sorted adjacency rows. The edge must be
// absent (guaranteed by canonBatch).
func (d *DynamicGraph) insertEdge(u, v int) {
	d.adj[u] = insertSorted(d.adj[u], int32(v))
	d.adj[v] = insertSorted(d.adj[v], int32(u))
	d.m++
}

// deleteEdge removes {u, v} from both rows. The edge must be present.
func (d *DynamicGraph) deleteEdge(u, v int) {
	d.adj[u] = removeSorted(d.adj[u], int32(v))
	d.adj[v] = removeSorted(d.adj[v], int32(u))
	d.m--
}

// Snapshot freezes the current state into an immutable CSR graph.Graph,
// returning it with the epoch it captures. The snapshot shares no storage
// with the dynamic graph: later batches never disturb it, so simulator
// engines and oracles can hold it across epochs (and core.EngineCache can
// re-point pooled engines at a newer one with Engine.Rebind).
func (d *DynamicGraph) Snapshot() (*graph.Graph, uint64) {
	offs := make([]int32, d.n+1)
	for v := 0; v < d.n; v++ {
		offs[v+1] = offs[v] + int32(len(d.adj[v]))
	}
	tgts := make([]int32, offs[d.n])
	for v := 0; v < d.n; v++ {
		copy(tgts[offs[v]:offs[v+1]], d.adj[v])
	}
	// The mutable adjacency maintains sortedness and symmetry on every
	// single-edge update, so the unchecked constructor is safe here and
	// keeps per-epoch snapshots O(n + m) with no validation pass.
	return graph.FromCSRUnchecked(d.n, offs, tgts), d.epoch
}

// Edges returns the current edge set in canonical order. Mostly a test
// convenience; hot paths use Neighbors/Snapshot.
func (d *DynamicGraph) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, d.m)
	for u := 0; u < d.n; u++ {
		for _, v := range d.adj[u] {
			if int32(u) < v {
				out = append(out, graph.Edge{U: u, V: int(v)})
			}
		}
	}
	return out
}

// insertSorted inserts x into ascending-sorted s (x must be absent).
func insertSorted(s []int32, x int32) []int32 {
	i, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, i, x)
}

// removeSorted removes x from ascending-sorted s (x must be present).
func removeSorted(s []int32, x int32) []int32 {
	i, _ := slices.BinarySearch(s, x)
	return slices.Delete(s, i, i+1)
}
