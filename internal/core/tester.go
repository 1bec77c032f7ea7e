package core

import (
	"slices"

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
//
// A node draws all its probes in round 0 and sends each neighbor the words
// of its probes, in draw order, as one message: every channel carries the
// same words in the same rounds as one message per probe would. Drawing
// and grouping cost O(p log p) time per node for p probes, and allocate
// nothing up to 16 probes.
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

// stackProbes is the probe count Start groups in a stack buffer; more
// probes get one heap buffer per node. It is the congest tester's default.
const stackProbes = 16

// Start draws the node's probes, then groups them by neighbour through
// one sort of keys that hold a probe's neighbour index above its draw
// number, so each group keeps draw order. Both halves fit 32 bits: vertex
// ids are int32, and 2^32 probes would need a 96 GiB buffer.
func (h *testerHandler) Start(ctx *sim.Context, phase int) {
	nbrs := ctx.InputNeighbors()
	if len(nbrs) < 2 {
		return
	}
	p := h.probes
	var stack [3 * stackProbes]uint64
	buf := stack[:]
	if p > stackProbes {
		buf = make([]uint64, 3*p)
	}
	keys, drawn, words := buf[:0:p], buf[p:p:2*p], buf[2*p:2*p:3*p]
	for range p {
		ji := ctx.RNG().Intn(len(nbrs))
		li := ctx.RNG().Intn(len(nbrs))
		if ji == li {
			continue
		}
		keys = append(keys, uint64(ji)<<32|uint64(len(drawn)))
		drawn = append(drawn, sim.Word(nbrs[li]))
	}
	slices.Sort(keys)
	for len(keys) > 0 {
		ji := keys[0] >> 32
		words = words[:0]
		for len(keys) > 0 && keys[0]>>32 == ji {
			words = append(words, drawn[uint32(keys[0])])
			keys = keys[1:]
		}
		ctx.SendTo(int(nbrs[ji]), words...)
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
