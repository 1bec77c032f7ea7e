// Package baseline implements the comparison algorithms of the paper's
// Table 1 and introduction: the trivial Theta(d_max)-round two-hop
// aggregation lister, the local lister of Proposition 5, and the
// deterministic CONGEST-clique listing algorithm of Dolev, Lenzen & Peled
// (DISC'12) in both its n^{1/3}-group and degree-aware variants.
package baseline

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// NewTwoHop builds the trivial CONGEST lister: every node streams its full
// neighborhood to all neighbors, so after ceil(d_max/B) rounds every node
// knows its two-hop edges and can output every triangle it participates in.
// Round complexity: Theta(d_max) — linear for dense graphs, which is the
// inefficiency Theorems 1 and 2 beat. Every triangle a node outputs
// contains it, so the same algorithm is also the local lister of
// Proposition 5.
//
// Node v outputs {v, j, l} when neighbour j sends a word l above j that is
// also v's neighbour, so a fault-free run outputs each of v's triangles at
// v once. The order test comes first, so the membership probe, a binary
// search of v's neighbour list, runs only for words above their sender:
// about half.
//
// maxDegree is the schedule bound every node is assumed to know (a standard
// assumption; computing it distributedly costs O(D) extra rounds). Every
// node of a job shares one handler.
func NewTwoHop(b, maxDegree int) (*sim.Schedule, func(id int) core.PhaseHandler) {
	sched := &sim.Schedule{}
	dur := sim.RoundsFor(maxDegree, b)
	if dur < 1 {
		dur = 1
	}
	sched.Add("twohop-exchange", dur)
	h := &twoHopHandler{}
	return sched, func(int) core.PhaseHandler { return h }
}

// twoHopHandler is the two-hop lister's node logic; it holds no state.
type twoHopHandler struct{}

// Start broadcasts the node's neighbour list.
func (h *twoHopHandler) Start(ctx *sim.Context, phase int) { core.BroadcastNeighbors(ctx) }

// Receive outputs {me, j, l} for each word l above its sender j that closes
// a triangle. Duplicates are allowed by the listing definition, but the
// (j,l)/(l,j) double report is suppressed to keep outputs tight.
func (h *twoHopHandler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	me := ctx.ID()
	for _, w := range d.Words {
		if l := int(w); d.From < l && l != me && ctx.HasInputEdge(l) {
			ctx.Output(graph.NewTriangle(me, d.From, l))
		}
	}
}

func (h *twoHopHandler) Finish(ctx *sim.Context) {}
