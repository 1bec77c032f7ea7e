package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/sim"
)

// This file gives core's one node machine, phasedRun, engine-snapshot
// support, and through the exported assembler codecs and StateCodec
// interface the baselines too. phasedRun implements sim.Snapshotter by
// driving the bound segment's handlers, which implement the lighter
// StateCodec. Map-backed state is serialized in sorted key order so a
// restored node re-serializes byte-identically.

// StateCodec is the handler-level half of sim.Snapshotter: phase handlers
// implement it to make their runs snapshottable.
// SaveState writes all mutable state; LoadState rebuilds it into a freshly
// constructed handler. Static configuration captured at construction time
// is not serialized.
type StateCodec interface {
	SaveState(w *sim.SnapWriter)
	LoadState(r *sim.SnapReader) error
}

func codecOf(h PhaseHandler) (StateCodec, error) {
	c, ok := h.(StateCodec)
	if !ok {
		return nil, fmt.Errorf("%w: phase handler %T", sim.ErrNotSnapshottable, h)
	}
	return c, nil
}

// SnapshotState implements sim.Snapshotter: it writes the state of the
// vertex's handler in the bound segment. A snapshot at a segment boundary
// therefore records the next segment's fresh handlers, which is what a
// restore, binding the segment that holds the resume round, reads back.
func (d *phasedRun) SnapshotState(ctx *sim.Context, w *sim.SnapWriter) error {
	c, err := codecOf(d.handlers[ctx.ID()])
	if err != nil {
		return err
	}
	c.SaveState(w)
	return nil
}

// RestoreState implements sim.Snapshotter for the bound segment's handlers.
func (d *phasedRun) RestoreState(ctx *sim.Context, r *sim.SnapReader) error {
	c, err := codecOf(d.handlers[ctx.ID()])
	if err != nil {
		return err
	}
	return c.LoadState(r)
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// SaveState serializes the assembler's partial records (sorted by sender).
func (a *FixedAssembler) SaveState(w *sim.SnapWriter) {
	keys := sortedIntKeys(a.partial)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(k)
		w.Words(a.partial[k])
	}
}

// LoadState rebuilds the assembler's partial records.
func (a *FixedAssembler) LoadState(r *sim.SnapReader) error {
	n := int(r.U32())
	for i := 0; i < n; i++ {
		k := r.Int()
		a.partial[k] = r.Words()
	}
	return r.Err()
}

// SaveState serializes the assembler's per-sender header states (sorted by
// sender).
func (a *HeaderAssembler) SaveState(w *sim.SnapWriter) {
	keys := sortedIntKeys(a.partial)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		st := a.partial[k]
		w.Int(k)
		w.Bool(st.haveHeader)
		w.Int(st.want)
		w.Words(st.body)
	}
}

// LoadState rebuilds the assembler's per-sender header states.
func (a *HeaderAssembler) LoadState(r *sim.SnapReader) error {
	n := int(r.U32())
	for i := 0; i < n; i++ {
		k := r.Int()
		st := &headerState{haveHeader: r.Bool(), want: r.Int(), body: r.Words()}
		a.partial[k] = st
	}
	return r.Err()
}

// SaveEdges writes an edge list; shared by handlers that accumulate
// received edges.
func SaveEdges(w *sim.SnapWriter, edges []graph.Edge) {
	w.U32(uint32(len(edges)))
	for _, e := range edges {
		w.Int(e.U)
		w.Int(e.V)
	}
}

// LoadEdges reads an edge list written by SaveEdges, appending to dst.
func LoadEdges(r *sim.SnapReader, dst []graph.Edge) []graph.Edge {
	n := int(r.U32())
	for i := 0; i < n; i++ {
		dst = append(dst, graph.Edge{U: r.Int(), V: r.Int()})
	}
	return dst
}

// a1Handler holds no mutable state (the sample is drawn and sent within
// one Start call; the RNG position is engine-owned).
func (h *a1Handler) SaveState(w *sim.SnapWriter)       {}
func (h *a1Handler) LoadState(r *sim.SnapReader) error { return nil }

// testerHandler likewise.
func (h *testerHandler) SaveState(w *sim.SnapWriter)       {}
func (h *testerHandler) LoadState(r *sim.SnapReader) error { return nil }

// a2Handler: announced neighbor hash functions (re-encoded through the
// family's wire format), the hash assembler, and the received edge set.
func (h *a2Handler) SaveState(w *sim.SnapWriter) {
	keys := sortedIntKeys(h.hashes)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(k)
		w.Words(h.hashes[k].Encode())
	}
	h.asm.SaveState(w)
	SaveEdges(w, h.edges)
}

func (h *a2Handler) LoadState(r *sim.SnapReader) error {
	n := int(r.U32())
	for i := 0; i < n; i++ {
		k := r.Int()
		ws := r.Words()
		if err := r.Err(); err != nil {
			return err
		}
		fn, err := h.fam.Decode(ws)
		if err != nil {
			return fmt.Errorf("%w: %v", sim.ErrBadSnapshot, err)
		}
		h.hashes[k] = fn
	}
	if err := h.asm.LoadState(r); err != nil {
		return err
	}
	h.edges = LoadEdges(r, h.edges)
	return r.Err()
}

// axrHandler: the full Figure-2 loop state. delta and the per-iteration
// assemblers are lazily built, so each carries a presence flag.
func (h *axrHandler) SaveState(w *sim.SnapWriter) {
	w.Int(h.curIter)
	w.Bool(h.selfX)
	w.Bool(h.inU)
	w.Bool(h.xBit != nil)
	if h.xBit != nil {
		keys := sortedIntKeys(h.xBit)
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.Int(k)
			w.Bool(h.xBit[k])
		}
	}
	keys := sortedIntKeys(h.nxOf)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(k)
		w.Ints(h.nxOf[k])
	}
	w.Bool(h.uBit != nil)
	if h.uBit != nil {
		w.Bools(h.uBit)
	}
	w.Bool(h.delta != nil)
	if h.delta != nil {
		w.U32(uint32(len(h.delta)))
		for _, row := range h.delta {
			w.Bools(row)
		}
	}
	w.Bool(h.sAsm != nil)
	if h.sAsm != nil {
		h.sAsm.SaveState(w)
	}
	w.Bool(h.vAsm != nil)
	if h.vAsm != nil {
		h.vAsm.SaveState(w)
	}
	w.Ints(h.tooBig)
}

func (h *axrHandler) LoadState(r *sim.SnapReader) error {
	h.curIter = r.Int()
	h.selfX = r.Bool()
	h.inU = r.Bool()
	if r.Bool() {
		n := int(r.U32())
		h.xBit = make(map[int]bool, n)
		for i := 0; i < n; i++ {
			k := r.Int()
			h.xBit[k] = r.Bool()
		}
	}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		k := r.Int()
		h.nxOf[k] = r.Ints()
	}
	if r.Bool() {
		h.uBit = r.Bools()
	}
	if r.Bool() {
		rows := int(r.U32())
		h.delta = make([][]bool, 0, rows)
		for i := 0; i < rows; i++ {
			h.delta = append(h.delta, r.Bools())
		}
	}
	if r.Bool() {
		h.sAsm = NewHeaderAssembler()
		if err := h.sAsm.LoadState(r); err != nil {
			return err
		}
	}
	if r.Bool() {
		h.vAsm = NewHeaderAssembler()
		if err := h.vAsm.LoadState(r); err != nil {
			return err
		}
	}
	h.tooBig = r.Ints()
	return r.Err()
}
