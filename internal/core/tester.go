package core

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// NewPropertyTester builds a one-sided distributed property tester for
// triangle-freeness, in the spirit of the property-testing line of work
// the paper cites (Censor-Hillel et al., DISC'16) and positions itself
// against: testers only distinguish triangle-free graphs from graphs that
// are far from triangle-free, which is "significantly easier" (Section 1)
// than the finding problem Theorem 1 solves.
//
// Protocol: in each of `probes` batches, every node k picks a uniformly
// random pair (j, l) of its neighbors and sends l to j; j outputs the
// triangle {k, j, l} if l is its neighbor too. On a triangle-free graph
// nothing is ever output (one-sided); on a graph that is epsilon-far from
// triangle-free, a constant fraction of probes hit triangles, so
// O(1/epsilon) batches detect one with constant probability — each batch
// costing only ceil(1/B) rounds. Every node of a job shares one handler.
func NewPropertyTester(n, b, probes int) (*sim.Schedule, func(id int) PhaseHandler) {
	if probes < 1 {
		probes = 1
	}
	sched := &sim.Schedule{}
	// Worst case per channel: every probe picks the same neighbor.
	dur := sim.RoundsFor(probes, b)
	if dur < 1 {
		dur = 1
	}
	sched.Add("probe", dur)
	h := &testerHandler{probes: probes}
	return sched, func(int) PhaseHandler { return h }
}

type testerHandler struct {
	probes int
}

func (h *testerHandler) Start(ctx *sim.Context, phase int) {
	nbrs := ctx.InputNeighbors()
	if len(nbrs) < 2 {
		return
	}
	for p := 0; p < h.probes; p++ {
		ji := ctx.RNG().Intn(len(nbrs))
		li := ctx.RNG().Intn(len(nbrs))
		if ji == li {
			continue
		}
		ctx.SendTo(int(nbrs[ji]), sim.Word(nbrs[li]))
	}
}

func (h *testerHandler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	for _, w := range d.Words {
		l := int(w)
		if l != ctx.ID() && ctx.HasInputEdge(l) {
			ctx.Output(graph.NewTriangle(d.From, ctx.ID(), l))
		}
	}
}

func (h *testerHandler) Finish(ctx *sim.Context) {}
