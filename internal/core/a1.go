package core

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// NewA1 builds Algorithm A1 (Proposition 1): a O(n^{1-eps})-round sampling
// strategy that, when an eps-heavy triangle exists, finds one with constant
// probability.
//
// Protocol: each node j includes every neighbor in a sample S_j
// independently with probability n^{-eps}; if |S_j| <= 4 n^{1-eps} it sends
// S_j to every neighbor k, which outputs {j, k, l} for every l in
// S_j cap N(k).
//
// The handler holds no per-node state, so every node of a job shares one.
func NewA1(p Params) (*sim.Schedule, func(id int) PhaseHandler) {
	h := &a1Handler{prob: 1 / p.HeavyThresholdOf(), setCap: p.A1SetCap()}
	sched := &sim.Schedule{}
	sched.Add("a1-sample-send", sim.RoundsFor(h.setCap, p.B))
	return sched, func(int) PhaseHandler { return h }
}

// a1Handler is A1's node logic, shared by every node of a job: it holds
// only the sampling probability n^{-eps} and the set cap 4n^{1-eps}.
type a1Handler struct {
	prob   float64
	setCap int
}

func (h *a1Handler) Start(ctx *sim.Context, phase int) {
	if phase != 0 {
		return
	}
	// Samples are short (n^{-eps} of the degree), so most fit the stack
	// array and a node allocates only for a longer one.
	var buf [16]sim.Word
	sample := buf[:0]
	for _, nbr := range ctx.InputNeighbors() {
		if ctx.RNG().Float64() < h.prob {
			sample = append(sample, sim.Word(nbr))
		}
	}
	if len(sample) == 0 || len(sample) > h.setCap {
		// Oversized samples are suppressed exactly as in the proposition;
		// empty samples carry no information.
		return
	}
	// The same sample goes to every neighbor, so A1 is a legal broadcast-
	// CONGEST algorithm too (exercised by the E6 experiment).
	ctx.Broadcast(sample...)
}

func (h *a1Handler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	// Every word is a member l of S_j from neighbor j = d.From; the sender
	// certifies {j, l} in E, and we check {me, l} locally ({me, j} is an
	// incident edge by construction).
	for _, w := range d.Words {
		l := int(w)
		if l != ctx.ID() && ctx.HasInputEdge(l) {
			ctx.Output(graph.NewTriangle(d.From, ctx.ID(), l))
		}
	}
}

func (h *a1Handler) Finish(ctx *sim.Context) {}
