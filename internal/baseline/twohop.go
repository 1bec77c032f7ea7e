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

// TwoHopMode selects which triangles each node outputs in the two-hop
// aggregation algorithm.
type TwoHopMode int

const (
	// TwoHopGlobal outputs every triangle a node sees (global listing; the
	// trivial baseline the paper's introduction measures against).
	TwoHopGlobal TwoHopMode = iota + 1
	// TwoHopLocal restricts each node's output to triangles containing it —
	// the "local listing" task of Proposition 5. (The two modes coincide
	// here: a node only ever sees triangles through its own incident edges.)
	TwoHopLocal
)

// NewTwoHop builds the trivial CONGEST lister: every node streams its full
// neighborhood to all neighbors, so after ceil(d_max/B) rounds every node
// knows its two-hop edges and can output every triangle it participates in.
// Round complexity: Theta(d_max) — linear for dense graphs, which is the
// inefficiency Theorems 1 and 2 beat.
//
// maxDegree is the schedule bound every node is assumed to know (a standard
// assumption; computing it distributedly costs O(D) extra rounds). Every
// node of a job shares one handler.
func NewTwoHop(n, b, maxDegree int, mode TwoHopMode) (*sim.Schedule, func(id int) sim.Node) {
	sched := &sim.Schedule{}
	dur := sim.RoundsFor(maxDegree, b)
	if dur < 1 {
		dur = 1
	}
	sched.Add("twohop-exchange", dur)
	h := &twoHopHandler{mode: mode}
	mk := func(id int) sim.Node {
		return core.NewPhasedNode(sched, h)
	}
	return sched, mk
}

type twoHopHandler struct {
	mode TwoHopMode
}

func (h *twoHopHandler) Start(ctx *sim.Context, phase int) {
	nbrs := ctx.InputNeighbors()
	words := make([]sim.Word, len(nbrs))
	for i, v := range nbrs {
		words[i] = sim.Word(v)
	}
	if len(words) == 0 {
		return
	}
	ctx.Broadcast(words...)
}

func (h *twoHopHandler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	me := ctx.ID()
	for _, w := range d.Words {
		l := int(w)
		if l == me || !ctx.HasInputEdge(l) {
			continue
		}
		t := graph.NewTriangle(me, d.From, l)
		// Both modes output t: it always contains me. Deduplicate locally by
		// outputting only when me < d.From in local mode is unnecessary —
		// duplicates are allowed by the listing definition — but we suppress
		// the (j,l)/(l,j) double report to keep outputs tight.
		if d.From < l {
			ctx.Output(t)
		}
	}
}

func (h *twoHopHandler) Finish(ctx *sim.Context) {}
