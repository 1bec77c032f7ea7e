package baseline

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Snapshot codecs for the baseline handlers (core.StateCodec), making
// two-hop and Dolev-Lenzen-Peled runs checkpointable.

// twoHopHandler holds no mutable state: the neighborhood broadcast is
// emitted within Start and triangles are output as words arrive.
func (h *twoHopHandler) SaveState(w *sim.SnapWriter)       {}
func (h *twoHopHandler) LoadState(r *sim.SnapReader) error { return nil }

// dolevHandler: the accumulated edge set, both record assemblers, and the
// relay buffer. The routing plan is deterministic from the input graph and
// is not serialized.
func (h *dolevHandler) SaveState(w *sim.SnapWriter) {
	core.SaveEdges(w, h.edges)
	relayIn, fwdIn := h.assemblers()
	relayIn.SaveState(w)
	fwdIn.SaveState(w)
	w.U32(uint32(len(h.relayed)))
	for _, m := range h.relayed {
		w.Int(m.dest)
		w.Int(m.u)
		w.Int(m.v)
	}
}

func (h *dolevHandler) LoadState(r *sim.SnapReader) error {
	h.edges = core.LoadEdges(r, h.edges)
	relayIn, fwdIn := h.assemblers()
	if err := relayIn.LoadState(r); err != nil {
		return err
	}
	if err := fwdIn.LoadState(r); err != nil {
		return err
	}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		h.relayed = append(h.relayed, relayMsg{dest: r.Int(), u: r.Int(), v: r.Int()})
	}
	return r.Err()
}

// assemblers returns the relay routing's record assemblers. Direct routing
// builds none and gets two empty ones, so both routings share one snapshot
// layout.
func (h *dolevHandler) assemblers() (relayIn, fwdIn *core.FixedAssembler) {
	if h.relayIn == nil {
		return core.NewFixedAssembler(2), core.NewFixedAssembler(2)
	}
	return h.relayIn, h.fwdIn
}
