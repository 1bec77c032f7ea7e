package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// This file implements round-boundary engine snapshots: Engine.Snapshot
// serializes the complete observable run state between two rounds, and
// Engine.Restore rebuilds it into a freshly reset engine over the same
// graph and config so the continued run is bit-identical to one that never
// stopped — outputs, metrics, hook streams and cancellation prefixes
// included, for any shard count on either side.
//
// What is serialized is exactly the state the determinism contract can
// observe: pending channel words in per-receiver activation order (the
// inbox-order source), broadcast queues in activation order, the
// wake-wheel verbatim (stale entries included — they bound the
// fast-forward target, so rebuilding the wheel from live wakes alone would
// change FastForwardedRounds), per-context control state, per-node RNG
// draw counts, and each node machine's algorithm state through the
// Snapshotter interface. Derived engine state (stamps, queued-word
// accounting, the notDone counter, per-shard receiver bitsets) is
// reconstructed on restore, which is what makes a snapshot taken at one
// shard count restore bit-identically at any other: engines at every shard
// count agree on all serialized state at every round boundary.

// Snapshotter is implemented by node machines that support engine
// snapshots. SnapshotState must serialize every bit of mutable per-node
// algorithm state of the vertex ctx names; RestoreState must rebuild it
// into a freshly constructed node (Init is never called on a restored
// engine — restoring replaces it). Both take the vertex's Context because
// one node value may serve many vertices. Static state derivable from the
// node's constructor arguments need not be serialized. A node driving
// inner handlers should return ErrNotSnapshottable (wrapped) from both
// methods when a handler lacks support.
type Snapshotter interface {
	SnapshotState(ctx *Context, w *SnapWriter) error
	RestoreState(ctx *Context, r *SnapReader) error
}

// Typed snapshot errors, all errors.Is-able through wrapping.
var (
	// ErrNotSnapshottable reports a node machine without Snapshotter support.
	ErrNotSnapshottable = errors.New("sim: node does not implement Snapshotter")
	// ErrBadSnapshot reports a malformed or truncated snapshot payload.
	ErrBadSnapshot = errors.New("sim: malformed engine snapshot")
	// ErrSnapshotMismatch reports a snapshot taken under a different graph,
	// seed, bandwidth, mode or scheduler than the restoring engine's.
	ErrSnapshotMismatch = errors.New("sim: snapshot does not match engine configuration")
	// ErrSnapshotState reports Snapshot/Restore called outside their
	// contract (mid-round, restoring into a started engine, or snapshotting
	// an engine whose bandwidth does not fit the header's 32 bits).
	ErrSnapshotState = errors.New("sim: engine not in a snapshottable state")
)

// snapVersion versions the engine payload layout inside the checkpoint
// container (which carries its own format version for the envelope).
// Version 2 added the fault-plan fingerprint to the header, the fault
// metrics block, and — for faulty engines only — per-channel delay
// arming. The crash cursor and dead set are deliberately NOT serialized:
// both are pure functions of (plan, round) and are re-derived on
// restore, and the loss/dup/delay coins themselves are stateless hashes,
// so "fault RNG state" rides the snapshot for free. Version 3 replaced
// math/rand's per-node source with the splitmix64 counter stream: the
// per-node draw count keeps its place but now positions the new stream,
// so version-2 payloads (math/rand positions) are refused. Version 4
// dropped the per-context round offset, and with it the word each context
// wrote: composed runs now drive one bound segment at a time, so node
// state holds one segment's handlers, and version-3 payloads (which carry
// the offset and every segment's handler state) are refused. Each
// context's last word counts its outputs not yet streamed; older version-4
// payloads held the streamed count there, so an observed resume from one
// streams its earlier outputs again.
const snapVersion = 4

// SnapWriter serializes snapshot state as little-endian binary. All
// lengths are explicit so SnapReader can validate against the remaining
// payload, and map-backed state must be written in sorted key order so a
// loaded snapshot re-serializes byte-identically.
type SnapWriter struct {
	b []byte
}

// Bytes returns the serialized payload.
func (w *SnapWriter) Bytes() []byte { return w.b }

// U8 writes one byte.
func (w *SnapWriter) U8(v uint8) { w.b = append(w.b, v) }

// Bool writes a bool as one byte.
func (w *SnapWriter) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *SnapWriter) U32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

// U64 writes a little-endian uint64.
func (w *SnapWriter) U64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

// I32 writes a little-endian int32.
func (w *SnapWriter) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a little-endian int64.
func (w *SnapWriter) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a little-endian int64.
func (w *SnapWriter) Int(v int) { w.I64(int64(v)) }

// Words writes a length-prefixed word slice.
func (w *SnapWriter) Words(ws []Word) {
	w.U32(uint32(len(ws)))
	for _, x := range ws {
		w.U64(x)
	}
}

// I32s writes a length-prefixed int32 slice.
func (w *SnapWriter) I32s(vs []int32) {
	w.U32(uint32(len(vs)))
	for _, x := range vs {
		w.I32(x)
	}
}

// I64s writes a length-prefixed int64 slice.
func (w *SnapWriter) I64s(vs []int64) {
	w.U32(uint32(len(vs)))
	for _, x := range vs {
		w.I64(x)
	}
}

// Ints writes a length-prefixed int slice as int64s.
func (w *SnapWriter) Ints(vs []int) {
	w.U32(uint32(len(vs)))
	for _, x := range vs {
		w.Int(x)
	}
}

// Bools writes a length-prefixed bool slice.
func (w *SnapWriter) Bools(vs []bool) {
	w.U32(uint32(len(vs)))
	for _, x := range vs {
		w.Bool(x)
	}
}

// SnapReader deserializes a SnapWriter payload with a sticky error: after
// the first malformed read every subsequent read returns zero values, and
// Err reports ErrBadSnapshot. Length prefixes are validated against the
// remaining payload before any allocation.
type SnapReader struct {
	b   []byte
	off int
	err error
}

// NewSnapReader wraps a payload for reading.
func NewSnapReader(b []byte) *SnapReader { return &SnapReader{b: b} }

// Err returns the sticky decode error, if any.
func (r *SnapReader) Err() error { return r.err }

// Remaining returns the unconsumed byte count.
func (r *SnapReader) Remaining() int { return len(r.b) - r.off }

func (r *SnapReader) fail() {
	if r.err == nil {
		r.err = ErrBadSnapshot
	}
}

func (r *SnapReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.Remaining() < n {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *SnapReader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool, rejecting values other than 0 and 1.
func (r *SnapReader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *SnapReader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *SnapReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *SnapReader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *SnapReader) I64() int64 { return int64(r.U64()) }

// Int reads an int64-encoded int.
func (r *SnapReader) Int() int { return int(r.I64()) }

// sliceLen validates a length prefix against the remaining payload at the
// given element width.
func (r *SnapReader) sliceLen(width int) int {
	n := int(r.U32())
	if r.err != nil || n*width > r.Remaining() {
		r.fail()
		return 0
	}
	return n
}

// Words reads a length-prefixed word slice.
func (r *SnapReader) Words() []Word {
	n := r.sliceLen(8)
	if r.err != nil || n == 0 {
		return nil
	}
	ws := make([]Word, n)
	for i := range ws {
		ws[i] = r.U64()
	}
	return ws
}

// I32s reads a length-prefixed int32 slice.
func (r *SnapReader) I32s() []int32 {
	n := r.sliceLen(4)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = r.I32()
	}
	return vs
}

// I64s reads a length-prefixed int64 slice.
func (r *SnapReader) I64s() []int64 {
	n := r.sliceLen(8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}

// Ints reads a length-prefixed int slice.
func (r *SnapReader) Ints() []int {
	n := r.sliceLen(8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.Int()
	}
	return vs
}

// Bools reads a length-prefixed bool slice.
func (r *SnapReader) Bools() []bool {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = r.Bool()
	}
	return vs
}

// restoreSpan stores a restored queue's words once, in sender u's shard
// arena, and returns the single-span queue holding them.
func (e *Engine) restoreSpan(u int32, ws []Word) spanQueue {
	a := e.arenaOf(u)
	off := a.words.add(ws)
	return spanQueue{off: uint32(off), n: uint32(len(ws))}
}

// Snapshot serializes the engine's complete run state at the current round
// boundary. The engine must have started (Init has run) and be between
// rounds — the only points Run/RunContext ever pause at — and its
// bandwidth at most 2^32-1 words, the most the header records: a larger B
// would give a payload no engine can restore. The engine is not mutated.
// Every node machine must implement Snapshotter, or the snapshot fails
// with ErrNotSnapshottable naming the node.
func (e *Engine) Snapshot() ([]byte, error) {
	if !e.started {
		return nil, fmt.Errorf("%w: engine has not started", ErrSnapshotState)
	}
	if uint64(e.cfg.BandwidthWords) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: bandwidth %d does not fit the header's 32 bits", ErrSnapshotState, e.cfg.BandwidthWords)
	}
	for _, a := range e.arenas {
		if a.log.n != 0 {
			return nil, fmt.Errorf("%w: node %d has unflushed sends", ErrSnapshotState, a.log.at(0).n)
		}
	}
	for v := range e.ctxs {
		if len(e.inboxes[v]) != 0 {
			return nil, fmt.Errorf("%w: node %d has an unconsumed inbox", ErrSnapshotState, v)
		}
	}
	for i := range e.staging {
		if len(e.staging[i]) != 0 {
			return nil, fmt.Errorf("%w: shard staging not drained", ErrSnapshotState)
		}
	}
	snaps := make([]Snapshotter, len(e.nodes))
	for v, nd := range e.nodes {
		s, ok := nd.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("%w: node %d (%T)", ErrNotSnapshottable, v, nd)
		}
		snaps[v] = s
	}

	w := &SnapWriter{}
	n := len(e.nodes)
	w.U32(snapVersion)
	w.U32(uint32(n))
	w.U32(uint32(len(e.queues)))
	w.U32(uint32(e.cfg.BandwidthWords))
	w.U8(uint8(e.cfg.Mode))
	w.U8(uint8(e.cfg.Scheduler))
	w.I64(e.cfg.Seed)
	w.U64(e.FaultPlanHash())
	w.Int(e.round)

	// Metrics (Rounds tracks e.round; WordBits is derived from n).
	w.Int(e.metrics.ActiveRounds)
	w.I64(e.metrics.MessagesDelivered)
	w.I64(e.metrics.WordsDelivered)
	w.Int(e.metrics.FastForwardedRounds)
	w.Int(e.metrics.Faults.NodesCrashed)
	w.I64(e.metrics.Faults.WordsLost)
	w.I64(e.metrics.Faults.WordsDuplicated)
	w.I64(e.metrics.Faults.WordsDroppedCrash)
	w.I64(e.metrics.Faults.DelayedDeliveries)
	w.I64s(e.metrics.PerNodeWordsRecv)
	w.I64s(e.metrics.PerNodeWordsSent)

	// Active unicast channels, grouped by receiver in ascending receiver
	// order — a canonical form shared by every shard count (the order
	// receivers are served in is unobservable: delivery is per-receiver
	// independent and the scheduled set is re-sorted every round). Within a
	// receiver, active-list order IS observable (it is the inbox order) and
	// is serialized verbatim. A channel is written as its sender's slot,
	// twin[c], which names it independently of the engine's slot layout.
	nrecv := 0
	for _, rb := range e.recvBits {
		for _, word := range rb {
			nrecv += bits.OnesCount64(word)
		}
	}
	w.U32(uint32(nrecv))
	var buf []Word
	for s := range e.recvBits {
		e.eachReceiver(s, func(v int32) {
			lo := e.commOffs[v]
			act := e.active[lo : lo+e.nactive[v]]
			w.U32(uint32(v))
			w.U32(uint32(len(act)))
			for _, c := range act {
				w.U32(uint32(e.twin[c]))
				buf = e.arenaOf(e.commTgts[c]).appendQueued(buf[:0], &e.queues[c])
				w.Words(buf)
				if e.flt != nil {
					// Delay arming is the one piece of mutable fault state a
					// resume cannot re-derive (the draw round is gone).
					if e.flt.hasDelay && e.flt.armStamp[c] == e.epoch {
						w.Bool(true)
						w.I32(e.flt.armAt[c])
					} else {
						w.Bool(false)
					}
				}
			}
		})
	}

	// Broadcast queues, in activation order (observable: broadcast delivery
	// iterates bcastActive).
	w.U32(uint32(len(e.bcastActive)))
	for _, u := range e.bcastActive {
		w.U32(uint32(u))
		buf = e.arenaOf(u).appendQueued(buf[:0], &e.bcastQ[u])
		w.Words(buf)
		if e.flt != nil {
			if e.flt.bcastArmStamp != nil && e.flt.bcastArmStamp[u] == e.epoch {
				w.Bool(true)
				w.I32(e.flt.bcastArmAt[u])
			} else {
				w.Bool(false)
			}
		}
	}

	// Scheduler state. The wheel is serialized verbatim — stale entries
	// included — because stale bucket rounds still bound nextEventRound and
	// therefore the fast-forward provenance.
	w.Ints(e.nextWake)
	w.I32s(e.nextReady)
	rounds := make([]int, 0, len(e.wheel.buckets))
	for r := range e.wheel.buckets {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	w.U32(uint32(len(rounds)))
	for _, r := range rounds {
		w.Int(r)
		w.I32s(e.wheel.buckets[r])
	}

	// Per-context control state.
	for _, ctx := range e.ctxs {
		w.Int(ctx.wake)
		w.Bool(ctx.done)
		w.I64(ctx.wordsSent)
		w.U64(ctx.src.draws)
		w.U32(uint32(len(ctx.outputs)))
		for _, t := range ctx.outputs {
			w.I32(int32(t.A))
			w.I32(int32(t.B))
			w.I32(int32(t.C))
		}
		w.Int(len(ctx.outputs) - ctx.seenOut) // not yet streamed: 0 at a round boundary
	}

	// Per-node algorithm state, length-prefixed so restore can bound each
	// node's reads to its own blob.
	for v, s := range snaps {
		lenPos := len(w.b)
		w.U32(0)
		if err := s.SnapshotState(e.ctxs[v], w); err != nil {
			return nil, fmt.Errorf("sim: snapshot node %d: %w", v, err)
		}
		binary.LittleEndian.PutUint32(w.b[lenPos:], uint32(len(w.b)-lenPos-4))
	}
	return w.Bytes(), nil
}

// Restore rebuilds a snapshot into this engine, which must be freshly
// constructed or rebound (Rebind) with the same graph, node machines, seed
// and config (Shards is free to differ — the restored run is bit-identical
// regardless). Init is not called on the nodes; RestoreState replaces it.
// A failed restore leaves the engine unusable until the next Rebind, which
// recovers it fully: every queue it restored is on an active list that
// clearRun drains.
func (e *Engine) Restore(payload []byte) error {
	if e.started || e.round != 0 {
		return fmt.Errorf("%w: restore requires a freshly reset engine", ErrSnapshotState)
	}
	n := len(e.nodes)
	snaps := make([]Snapshotter, n)
	for v, nd := range e.nodes {
		s, ok := nd.(Snapshotter)
		if !ok {
			return fmt.Errorf("%w: node %d (%T)", ErrNotSnapshottable, v, nd)
		}
		snaps[v] = s
	}
	r := NewSnapReader(payload)
	if v := r.U32(); v != snapVersion {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("%w: snapshot version %d, engine supports %d", ErrSnapshotMismatch, v, snapVersion)
	}
	if got := int(r.U32()); got != n {
		return fmt.Errorf("%w: snapshot has %d nodes, engine %d", ErrSnapshotMismatch, got, n)
	}
	if got := int(r.U32()); got != len(e.queues) {
		return fmt.Errorf("%w: snapshot has %d channels, engine %d", ErrSnapshotMismatch, got, len(e.queues))
	}
	if got := int(r.U32()); got != e.cfg.BandwidthWords {
		return fmt.Errorf("%w: snapshot bandwidth %d, engine %d", ErrSnapshotMismatch, got, e.cfg.BandwidthWords)
	}
	if got := Mode(r.U8()); got != e.cfg.Mode {
		return fmt.Errorf("%w: snapshot mode %d, engine %d", ErrSnapshotMismatch, got, e.cfg.Mode)
	}
	if got := Scheduler(r.U8()); got != e.cfg.Scheduler {
		return fmt.Errorf("%w: snapshot scheduler %d, engine %d", ErrSnapshotMismatch, got, e.cfg.Scheduler)
	}
	if got := r.I64(); got != e.cfg.Seed {
		return fmt.Errorf("%w: snapshot seed %d, engine %d", ErrSnapshotMismatch, got, e.cfg.Seed)
	}
	if got, want := r.U64(), e.FaultPlanHash(); got != want {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("%w: snapshot fault plan %#x, engine %#x", ErrSnapshotMismatch, got, want)
	}
	round := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if round < 0 {
		return fmt.Errorf("%w: negative round", ErrBadSnapshot)
	}

	e.metrics.ActiveRounds = r.Int()
	e.metrics.MessagesDelivered = r.I64()
	e.metrics.WordsDelivered = r.I64()
	e.metrics.FastForwardedRounds = r.Int()
	e.metrics.Faults.NodesCrashed = r.Int()
	e.metrics.Faults.WordsLost = r.I64()
	e.metrics.Faults.WordsDuplicated = r.I64()
	e.metrics.Faults.WordsDroppedCrash = r.I64()
	e.metrics.Faults.DelayedDeliveries = r.I64()
	for _, slab := range []struct{ dst []int64 }{{e.metrics.PerNodeWordsRecv}, {e.metrics.PerNodeWordsSent}} {
		vs := r.I64s()
		if r.Err() != nil {
			return r.Err()
		}
		if len(vs) != n {
			return fmt.Errorf("%w: per-node metric slab has %d entries, want %d", ErrBadSnapshot, len(vs), n)
		}
		copy(slab.dst, vs)
	}

	// Active unicast channels: rebuild queues, receiver bits, activation
	// lists and queued-word accounting. Receivers arrive in ascending
	// order, the order delivery serves them in at every shard count.
	nrecv := int(r.U32())
	prev := int32(-1)
	for i := 0; i < nrecv; i++ {
		v := int32(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if v <= prev || int(v) >= n {
			return fmt.Errorf("%w: receiver %d out of order or range", ErrBadSnapshot, v)
		}
		prev = v
		nch := int(r.U32())
		if r.Err() != nil || nch == 0 {
			if r.Err() != nil {
				return r.Err()
			}
			return fmt.Errorf("%w: active receiver %d with no active channels", ErrBadSnapshot, v)
		}
		total := int64(0)
		for j := 0; j < nch; j++ {
			slot := int32(r.U32())
			ws := r.Words()
			if r.Err() != nil {
				return r.Err()
			}
			// The channel is written as its sender's slot, which must
			// point at v.
			if slot < 0 || int(slot) >= len(e.queues) || e.commTgts[slot] != v {
				return fmt.Errorf("%w: slot %d is not a channel into receiver %d", ErrBadSnapshot, slot, v)
			}
			c := e.twin[slot]
			if len(ws) == 0 {
				return fmt.Errorf("%w: active channel %d with no queued words", ErrBadSnapshot, slot)
			}
			if e.queues[c].n != 0 {
				return fmt.Errorf("%w: channel %d appears twice", ErrBadSnapshot, slot)
			}
			// Listing the channel as it is filled leaves every restored
			// queue where clearRun finds it if the restore fails later.
			e.queues[c] = e.restoreSpan(e.commTgts[c], ws)
			e.activate(c, v)
			total += int64(len(ws))
			if e.flt != nil && r.Bool() {
				armAt := r.I32()
				if e.flt.armStamp == nil {
					return fmt.Errorf("%w: delay arming on a plan without delay", ErrBadSnapshot)
				}
				e.flt.armStamp[c] = e.epoch
				e.flt.armAt[c] = armAt
			}
		}
		e.queuedWords += total
	}

	// Broadcast queues, activation order preserved.
	nbcast := int(r.U32())
	for i := 0; i < nbcast; i++ {
		u := int32(r.U32())
		ws := r.Words()
		if r.Err() != nil {
			return r.Err()
		}
		if u < 0 || int(u) >= n || e.bcastQ == nil {
			return fmt.Errorf("%w: broadcast sender %d invalid for this mode", ErrBadSnapshot, u)
		}
		if len(ws) == 0 || e.bcastQ[u].n != 0 {
			return fmt.Errorf("%w: broadcast sender %d empty or duplicated", ErrBadSnapshot, u)
		}
		e.bcastActive = append(e.bcastActive, u)
		e.bcastQ[u] = e.restoreSpan(u, ws)
		e.queuedWords += int64(len(ws))
		if e.flt != nil && r.Bool() {
			armAt := r.I32()
			if e.flt.bcastArmStamp == nil {
				return fmt.Errorf("%w: broadcast delay arming on a plan without delay", ErrBadSnapshot)
			}
			e.flt.bcastArmStamp[u] = e.epoch
			e.flt.bcastArmAt[u] = armAt
		}
	}

	// Scheduler state.
	nextWake := r.Ints()
	nextReady := r.I32s()
	if r.Err() != nil {
		return r.Err()
	}
	if len(nextWake) != n {
		return fmt.Errorf("%w: nextWake slab has %d entries, want %d", ErrBadSnapshot, len(nextWake), n)
	}
	copy(e.nextWake, nextWake)
	for _, v := range nextReady {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: nextReady node %d out of range", ErrBadSnapshot, v)
		}
	}
	e.nextReady = append(e.nextReady[:0], nextReady...)
	nbuckets := int(r.U32())
	prevRound := -1
	for i := 0; i < nbuckets; i++ {
		br := r.Int()
		entries := r.I32s()
		if r.Err() != nil {
			return r.Err()
		}
		if br <= prevRound || len(entries) == 0 {
			return fmt.Errorf("%w: wheel bucket %d out of order or empty", ErrBadSnapshot, br)
		}
		prevRound = br
		for _, v := range entries {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("%w: wheel entry %d out of range", ErrBadSnapshot, v)
			}
			e.wheel.push(br, v)
		}
	}

	// Per-context control state.
	notDone := 0
	for v, ctx := range e.ctxs {
		ctx.wake = r.Int()
		ctx.done = r.Bool()
		ctx.wordsSent = r.I64()
		ctx.src.draws = r.U64()
		nout := r.sliceLen(12)
		if r.Err() != nil {
			return r.Err()
		}
		ctx.outputs = ctx.outputs[:0]
		for j := 0; j < nout; j++ {
			a, b, c := r.I32(), r.I32(), r.I32()
			ctx.outputs = append(ctx.outputs, graph.Triangle{A: int(a), B: int(b), C: int(c)})
		}
		unseen := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if unseen < 0 || unseen > len(ctx.outputs) {
			return fmt.Errorf("%w: node %d has %d unstreamed of %d outputs", ErrBadSnapshot, v, unseen, len(ctx.outputs))
		}
		ctx.seenOut = len(ctx.outputs) - unseen
		e.doneMark[v] = ctx.done
		if !ctx.done {
			notDone++
		}
	}
	e.notDone = notDone

	// Per-node algorithm state: each node reads exactly its own blob.
	for v, s := range snaps {
		blobLen := r.sliceLen(1)
		if r.Err() != nil {
			return r.Err()
		}
		blob := r.take(blobLen)
		sub := NewSnapReader(blob)
		if err := s.RestoreState(e.ctxs[v], sub); err != nil {
			return fmt.Errorf("sim: restore node %d: %w", v, err)
		}
		if sub.Err() != nil {
			return fmt.Errorf("sim: restore node %d: %w", v, sub.Err())
		}
		if sub.Remaining() != 0 {
			return fmt.Errorf("%w: node %d left %d bytes of its state unread", ErrBadSnapshot, v, sub.Remaining())
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, r.Remaining())
	}

	// Re-derive the fault layer's crash state: a crash scheduled at round
	// R is applied at the start of round R's step, so at this boundary
	// exactly the crashes with Round < round have been processed. The
	// crash metric and events were restored/emitted before the cut;
	// reapplication here only rebuilds dead-set bookkeeping.
	if e.flt != nil {
		f := e.flt
		f.nextCrash = 0
		for f.nextCrash < len(f.crashes) && f.crashes[f.nextCrash].Round < round {
			c := f.crashes[f.nextCrash]
			f.nextCrash++
			if f.dead[c.Node] {
				continue
			}
			f.dead[c.Node] = true
			if !e.doneMark[c.Node] {
				e.doneMark[c.Node] = true
				e.notDone--
			}
		}
	}

	e.round = round
	e.metrics.Rounds = round
	e.started = true
	return nil
}
