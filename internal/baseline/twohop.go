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
// maxDegree is the schedule bound every node is assumed to know (a standard
// assumption; computing it distributedly costs O(D) extra rounds). Every
// node of a job shares one handler.
func NewTwoHop(b, maxDegree int) (*sim.Schedule, func(id int) sim.Node) {
	sched := &sim.Schedule{}
	dur := sim.RoundsFor(maxDegree, b)
	if dur < 1 {
		dur = 1
	}
	sched.Add("twohop-exchange", dur)
	h := &twoHopHandler{}
	mk := func(id int) sim.Node {
		return core.NewPhasedNode(sched, h)
	}
	return sched, mk
}

// twoHopHandler is the two-hop lister's node logic; it holds no state.
type twoHopHandler struct{}

// Start broadcasts the node's neighbour list in pieces of at most 64 words
// converted on the stack. The engine stores each piece's words right after
// the previous piece's, so every channel queues the list as one span, just
// as one Broadcast of the whole list would.
func (h *twoHopHandler) Start(ctx *sim.Context, phase int) {
	var buf [64]sim.Word
	nbrs := ctx.InputNeighbors()
	for len(nbrs) > 0 {
		piece := buf[:min(len(nbrs), len(buf))]
		for i := range piece {
			piece[i] = sim.Word(nbrs[i])
		}
		ctx.Broadcast(piece...)
		nbrs = nbrs[len(piece):]
	}
}

func (h *twoHopHandler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	me := ctx.ID()
	for _, w := range d.Words {
		l := int(w)
		if l == me || !ctx.HasInputEdge(l) {
			continue
		}
		t := graph.NewTriangle(me, d.From, l)
		// t always contains me. Duplicates are allowed by the listing
		// definition, but the (j,l)/(l,j) double report is suppressed to
		// keep outputs tight.
		if d.From < l {
			ctx.Output(t)
		}
	}
}

func (h *twoHopHandler) Finish(ctx *sim.Context) {}
