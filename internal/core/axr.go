package core

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/sim"
)

// AXROptions configures Algorithm A(X,r) (Figure 2).
type AXROptions struct {
	// R is the good-node threshold r. Zero means Params.GoodThreshold().
	R float64
	// InX tells each node whether it belongs to X. Nil means every node
	// samples membership itself with probability 1/(9 n^eps) — which turns
	// A(X,r) into Algorithm A3 (Proposition 3).
	InX func(id int) bool
	// Observe, when non-nil, is called at the end of every while-loop
	// iteration (step 4.4) with the node's membership in U after the good
	// nodes left. Used by tests and ablations to watch the Lemma-3 halving;
	// it must be safe for concurrent calls when the parallel engine runs.
	Observe func(id, iteration int, stillInU bool)
}

// NewAXR builds Algorithm A(X,r) (Figure 2, Proposition 4): it lists every
// triangle of G whose three edges lie in Delta(X), in
// O(|X| + r log n) rounds, via the good-node halving loop.
//
// Phase layout (paper step -> phase):
//
//	step 1  -> phase 0 ("x-bit", 1 round)
//	step 2  -> phase 1 ("nx", ceil(|X|cap / B) rounds)
//	step 4.1-> phase 2+3i ("s", ceil((r+1)/B) rounds)   \
//	step 4.2+4.3-> phase 3+3i ("v", ceil((r+1)/B) rounds) | per iteration i
//	step 4.4+4.5-> phase 4+3i ("u", 1 round)             /
//
// The while loop runs its proved worst-case floor(log2 n)+1 iterations;
// nodes that have left U stay silent (silence is free in CONGEST).
func NewAXR(p Params, opt AXROptions) (*sim.Schedule, func(id int) PhaseHandler) {
	r := opt.R
	if r <= 0 {
		r = p.GoodThreshold()
	}
	capS := int(math.Floor(r))
	if capS < 1 {
		capS = 1
	}
	iters := p.WhileIterations()
	sched := &sim.Schedule{}
	sched.Add("ax-xbit", 1)
	nxDur := sim.RoundsFor(p.XCap(), p.B)
	if nxDur < 1 {
		nxDur = 1
	}
	sched.Add("ax-nx", nxDur)
	svDur := sim.RoundsFor(capS+1, p.B)
	for i := 0; i < iters; i++ {
		sched.Add("ax-s", svDur)
		sched.Add("ax-v", svDur)
		sched.Add("ax-u", 1)
	}
	h := func(int) PhaseHandler {
		return &axrHandler{
			p:       p,
			r:       r,
			capS:    capS,
			iters:   iters,
			inX:     opt.InX,
			observe: opt.Observe,
			nxOf:    make(map[int][]int),
		}
	}
	return sched, h
}

type axrHandler struct {
	p       Params
	r       float64
	capS    int
	iters   int
	inX     func(id int) bool
	observe func(id, iteration int, stillInU bool)
	curIter int

	// Protocol state.
	selfX  bool
	xBit   map[int]bool  // neighbor -> in X (step 1)
	nxOf   map[int][]int // neighbor k -> N(k) cap X, sorted (step 2)
	inU    bool
	uBit   []bool   // per neighbor index: neighbor in U
	delta  [][]bool // delta[ji][li]: {nbr j, nbr l} in Delta(X) (by index)
	sAsm   *HeaderAssembler
	vAsm   *HeaderAssembler
	tooBig []int // senders k with |S(me,k)| > r this iteration (= V(me))
}

func (h *axrHandler) Start(ctx *sim.Context, phase int) {
	switch {
	case phase == 0:
		h.startXBit(ctx)
	case phase == 1:
		h.startNX(ctx)
	default:
		switch (phase - 2) % 3 {
		case 0:
			h.startS(ctx)
		case 1:
			h.startV(ctx)
		case 2:
			h.startU(ctx)
		}
	}
}

func (h *axrHandler) startXBit(ctx *sim.Context) {
	if h.inX != nil {
		h.selfX = h.inX(ctx.ID())
	} else {
		h.selfX = ctx.RNG().Float64() < h.p.XSampleProb()
	}
	h.xBit = make(map[int]bool, ctx.CommDegree())
	h.inU = true
	h.uBit = make([]bool, ctx.CommDegree())
	for i := range h.uBit {
		h.uBit[i] = true
	}
	var w sim.Word
	if h.selfX {
		w = 1
	}
	ctx.Broadcast(w)
}

func (h *axrHandler) startNX(ctx *sim.Context) {
	// N(me) cap X is known: all step-1 bits arrived in the first round of
	// this phase, before Start.
	var nx []sim.Word
	for _, nbr := range ctx.InputNeighbors() {
		if h.xBit[int(nbr)] {
			nx = append(nx, sim.Word(nbr))
			if len(nx) >= h.p.XCap() {
				// Oversized X: truncate (the paper aborts the attempt; both
				// preserve one-sided correctness, see DESIGN.md).
				break
			}
		}
	}
	if len(nx) > 0 {
		ctx.Broadcast(nx...)
	}
}

// startS begins iteration step 4.1: send S^X_U(j, me) to each neighbor j in
// U, or the TooBig marker when |S| > r.
func (h *axrHandler) startS(ctx *sim.Context) {
	if h.delta == nil {
		h.computeDelta(ctx)
	}
	h.sAsm = NewHeaderAssembler()
	h.vAsm = NewHeaderAssembler()
	h.tooBig = h.tooBig[:0]
	if !h.inU {
		return
	}
	nbrs := ctx.CommNeighbors()
	for ji, j := range nbrs {
		if !h.uBit[ji] || !ctx.HasInputEdge(int(j)) {
			continue
		}
		// S(j, me) = {l in U : {j,l} in Delta(X) and {me,l} in E}.
		var set []sim.Word
		over := false
		for li, l := range nbrs {
			if li == ji || !h.uBit[li] || !ctx.HasInputEdge(int(l)) {
				continue
			}
			if h.delta[ji][li] {
				set = append(set, sim.Word(l))
				if len(set) > h.capS {
					over = true
					break
				}
			}
		}
		switch {
		case over:
			ctx.Send(ji, TooBig)
		case len(set) > 0:
			hdr := []sim.Word{sim.Word(len(set))}
			ctx.Send(ji, append(hdr, set...)...)
		}
	}
}

// startV begins steps 4.2 and 4.3: decide r-goodness from the TooBig marks
// (|V(me)| <= r), and when good send V(me) to every neighbor in U.
func (h *axrHandler) startV(ctx *sim.Context) {
	if !h.inU {
		return
	}
	good := float64(len(h.tooBig)) <= h.r
	if !good || len(h.tooBig) == 0 {
		return
	}
	sort.Ints(h.tooBig)
	payload := make([]sim.Word, 0, len(h.tooBig)+1)
	payload = append(payload, sim.Word(len(h.tooBig)))
	for _, k := range h.tooBig {
		payload = append(payload, sim.Word(k))
	}
	for li, l := range ctx.CommNeighbors() {
		if h.uBit[li] && ctx.HasInputEdge(int(l)) {
			ctx.Send(li, payload...)
		}
	}
}

// startU begins steps 4.4 and 4.5: good nodes leave U; everyone announces
// membership.
func (h *axrHandler) startU(ctx *sim.Context) {
	if h.inU && float64(len(h.tooBig)) <= h.r {
		h.inU = false
	}
	if h.observe != nil {
		h.observe(ctx.ID(), h.curIter, h.inU)
	}
	h.curIter++
	var w sim.Word
	if h.inU {
		w = 1
	}
	ctx.Broadcast(w)
}

func (h *axrHandler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	switch {
	case phase == 0:
		h.xBit[d.From] = d.Words[len(d.Words)-1] == 1
	case phase == 1:
		lst := h.nxOf[d.From]
		for _, w := range d.Words {
			lst = append(lst, int(w))
		}
		h.nxOf[d.From] = lst
	default:
		switch (phase - 2) % 3 {
		case 0:
			h.receiveS(ctx, d)
		case 1:
			h.receiveV(ctx, d)
		case 2:
			idx := ctx.NbrIndexOf(d.From)
			if idx >= 0 {
				h.uBit[idx] = d.Words[len(d.Words)-1] == 1
			}
		}
	}
}

// receiveS handles step 4.1 data: S(me, k) sets (list triangles through
// them) and TooBig marks (accumulate V(me)).
func (h *axrHandler) receiveS(ctx *sim.Context, d sim.Delivery) {
	h.sAsm.Feed(d, func(from int, tooBig bool, body []sim.Word) {
		if tooBig {
			h.tooBig = append(h.tooBig, from)
			return
		}
		for _, w := range body {
			l := int(w)
			// Triangle {me, from, l}: {me,from} incident, {from,l} sender-
			// certified, {me,l} checked locally — one-sided by construction.
			if l != ctx.ID() && ctx.HasInputEdge(l) {
				ctx.Output(graph.NewTriangle(ctx.ID(), d.From, l))
			}
		}
	})
}

// receiveV handles step 4.3 data: V(j) lists from good neighbors j.
func (h *axrHandler) receiveV(ctx *sim.Context, d sim.Delivery) {
	h.vAsm.Feed(d, func(from int, tooBig bool, body []sim.Word) {
		if tooBig {
			return // protocol never sends TooBig in step 4.3
		}
		for _, w := range body {
			k := int(w)
			if k != ctx.ID() && ctx.HasInputEdge(k) {
				ctx.Output(graph.NewTriangle(d.From, ctx.ID(), k))
			}
		}
	})
}

func (h *axrHandler) Finish(ctx *sim.Context) {}

// computeDelta fills delta[ji][li] = ({j,l} in Delta(X)) for all pairs of
// neighbors, using the N(.) cap X sets exchanged in step 2. Delta(X)
// membership is independent of U, so this is computed once.
func (h *axrHandler) computeDelta(ctx *sim.Context) {
	nbrs := ctx.CommNeighbors()
	deg := len(nbrs)
	// Own membership contributes too: me in X covers pairs of my neighbors.
	// (me is a common neighbor in X of every pair of my input neighbors.)
	h.delta = make([][]bool, deg)
	for ji := range h.delta {
		h.delta[ji] = make([]bool, deg)
	}
	for ji := 0; ji < deg; ji++ {
		j := int(nbrs[ji])
		if !ctx.HasInputEdge(j) {
			continue
		}
		for li := ji + 1; li < deg; li++ {
			l := int(nbrs[li])
			if !ctx.HasInputEdge(l) {
				continue
			}
			in := !h.selfX && !hasCommonSorted(h.nxOf[j], h.nxOf[l])
			h.delta[ji][li] = in
			h.delta[li][ji] = in
		}
	}
}

func hasCommonSorted(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
