package core

import (
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/sim"
)

// NewA2 builds Algorithm A2 (Proposition 2, Figure 1): a
// O(n^{1-eps/2})-round protocol that lists every eps-heavy triangle with
// constant probability per triangle.
//
// Protocol (Figure 1):
//  1. Every node i samples h_i from a 3-wise independent family
//     V -> {0, ..., floor(n^{eps/2})-1} and sends it to all neighbors.
//  2. Every node j computes, per neighbor a, the edge set
//     E_ja = {{j,l} in E : h_a(l) = 0} and sends it to a when
//     |E_ja| <= 8 + 4n/floor(n^{eps/2}).
//  3. Every node outputs all triangles whose three edges arrived.
func NewA2(p Params) (*sim.Schedule, func(id int) PhaseHandler, error) {
	fam, err := hashing.NewFamily(3, p.N, p.A2Buckets())
	if err != nil {
		return nil, nil, err
	}
	sched := &sim.Schedule{}
	sched.Add("a2-hash", sim.RoundsFor(fam.EncodedWords(), p.B))
	sched.Add("a2-edges", sim.RoundsFor(p.A2EdgeCap(), p.B))
	h := func(int) PhaseHandler {
		return &a2Handler{
			p:      p,
			fam:    fam,
			hashes: make(map[int]hashing.Func),
			asm:    NewFixedAssembler(fam.EncodedWords()),
		}
	}
	return sched, h, nil
}

type a2Handler struct {
	p      Params
	fam    hashing.Family
	hashes map[int]hashing.Func // neighbor -> its announced hash function
	asm    *FixedAssembler
	edges  []graph.Edge // F_i: edges received in step 2
}

func (h *a2Handler) Start(ctx *sim.Context, phase int) {
	switch phase {
	case 0:
		mine := h.fam.Sample(ctx.RNG())
		ctx.Broadcast(mine.Encode()...)
	case 1:
		// All neighbor hashes have arrived (phase-0 data drains by the
		// first round of phase 1, and Receive runs before Start).
		cap2 := h.p.A2EdgeCap()
		for idx, a := range ctx.CommNeighbors() {
			ha, ok := h.hashes[int(a)]
			if !ok {
				continue
			}
			var set []sim.Word
			for _, l := range ctx.InputNeighbors() {
				if ha.Eval(int(l)) == 0 {
					set = append(set, sim.Word(l))
					if len(set) > cap2 {
						break
					}
				}
			}
			if len(set) == 0 || len(set) > cap2 {
				continue
			}
			ctx.Send(idx, set...)
		}
	}
}

func (h *a2Handler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	switch phase {
	case 0:
		h.asm.Feed(d, func(from int, rec []sim.Word) {
			fn, err := h.fam.Decode(rec)
			if err != nil {
				// A malformed function can only arise from a protocol bug;
				// dropping it merely loses listing opportunities.
				return
			}
			h.hashes[from] = fn
		})
	case 1:
		for _, w := range d.Words {
			h.edges = append(h.edges, graph.NewEdge(d.From, int(w)))
		}
	}
}

func (h *a2Handler) Finish(ctx *sim.Context) {
	for _, t := range graph.TrianglesAmongEdges(h.edges) {
		ctx.Output(t)
	}
}
