// Package core implements the paper's algorithms: A1 (Proposition 1),
// A2 (Proposition 2 / Figure 1), A(X,r) (Figure 2 / Proposition 4),
// A3 (Proposition 3), the Theorem-1 triangle finder and the Theorem-2
// triangle lister, all as phase-synchronous CONGEST state machines, plus
// the exact distributed triangle counter, which runs to quiescence. Every
// run executes on an EngineCache's pooled engines.
package core

import (
	"math"

	"repro/internal/sim"
)

// PhaseHandler is the per-node logic of a phase-synchronous algorithm.
//
// The contract mirrors the paper's step-by-step style:
//
//   - Start(ctx, p) fires once when phase p begins; this is the only place a
//     node enqueues sends (the engine trickles them at B words/round, which
//     is what makes measured rounds equal the model's round complexity).
//   - Receive(ctx, p, d) fires for every delivery; p is the phase the data
//     was sent in (a word enqueued in phase p is always delivered by the
//     first round of phase p+1, and Receive for it runs before Start(p+1)).
//   - Finish(ctx) fires once after the final phase's data has drained.
type PhaseHandler interface {
	Start(ctx *sim.Context, phase int)
	Receive(ctx *sim.Context, phase int, d sim.Delivery)
	Finish(ctx *sim.Context)
}

// TotalRounds returns the number of engine rounds a phased algorithm with
// the given schedule needs: Total()+1, the +1 draining the final phase's
// in-flight words.
func TotalRounds(sched *sim.Schedule) int { return sched.Total() + 1 }

// phasedRun is the one sim.Node core runs: a single value drives every
// vertex through the bound segment, the one that holds the engine's next
// round. runPlanned binds each segment before its first round, refilling
// handlers from the segment's factory, so a finished segment's handler
// state is garbage once the next one is bound. Each round maps to a phase
// of the bound schedule; there is no per-vertex cursor.
type phasedRun struct {
	handlers []PhaseHandler // indexed by vertex
	sched    *sim.Schedule  // the bound segment's schedule
	start    int            // the engine round of its local round 0
	final    bool           // the bound segment is the run's last
}

// bind makes seg, starting at engine round start, the bound segment.
func (d *phasedRun) bind(seg Segment, start int, final bool) {
	for v := range d.handlers {
		d.handlers[v] = seg.Handler(v)
	}
	d.sched, d.start, d.final = seg.Sched, start, final
}

func (d *phasedRun) Init(ctx *sim.Context) {}

// Round reproduces the phase contract of PhaseHandler. A vertex runs at
// every phase start of the bound schedule, because it sleeps to the next
// one (deliveries wake it early), so the phases starting at its local
// round are exactly those not yet started.
func (d *phasedRun) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	h := d.handlers[ctx.ID()]
	s := d.sched
	r := round - d.start
	// Words delivered at local round r were in flight during r-1, hence
	// belong to the phase covering r-1. At r = 0 they belong to no phase
	// of this schedule: fault-free runs deliver nothing there, but a delay
	// or duplication fault can carry the previous segment's words across
	// the boundary.
	if r > 0 && len(inbox) > 0 {
		ph, _ := s.PhaseAt(r - 1)
		for _, dl := range inbox {
			h.Receive(ctx, ph, dl)
		}
	}
	i := s.FirstPhaseFrom(r)
	for ; i < s.NumPhases() && s.PhaseStart(i) == r; i++ {
		h.Start(ctx, i)
	}
	if r < s.Total() {
		next := s.Total() // the drain round, when no phase starts later
		if i < s.NumPhases() {
			next = s.PhaseStart(i)
		}
		ctx.SleepUntil(d.start + next)
		return
	}
	h.Finish(ctx)
	if d.final {
		ctx.SetDone()
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	ctx.SleepUntil(d.start + TotalRounds(s)) // the next segment's first round
}

// BroadcastNeighbors broadcasts the vertex's input neighbour list in
// pieces of at most 64 words converted on the stack. The engine stores
// each piece's words right after the previous piece's, so every channel
// queues the list as one span, just as one Broadcast of the whole list
// would.
func BroadcastNeighbors(ctx *sim.Context) {
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

// FixedAssembler reassembles fixed-size records that the engine may split
// across rounds (e.g. a 3-word hash description at bandwidth 2). Records
// are keyed by sender.
type FixedAssembler struct {
	size    int
	partial map[int][]sim.Word
}

// NewFixedAssembler returns an assembler for `size`-word records.
func NewFixedAssembler(size int) *FixedAssembler {
	return &FixedAssembler{size: size, partial: make(map[int][]sim.Word)}
}

// Feed consumes a delivery and invokes emit for every completed record from
// that sender.
func (a *FixedAssembler) Feed(d sim.Delivery, emit func(from int, rec []sim.Word)) {
	buf := append(a.partial[d.From], d.Words...)
	for len(buf) >= a.size {
		emit(d.From, buf[:a.size])
		buf = buf[a.size:]
	}
	a.partial[d.From] = buf
}

// TooBig is the sentinel header used in Algorithm A(X,r) step 4.1 when a
// set exceeds the threshold r and is therefore not transmitted.
const TooBig = ^sim.Word(0)

// HeaderAssembler reassembles header-prefixed variable-length records: the
// first word is either a length or the TooBig sentinel, followed by that
// many body words. Records are keyed by sender.
type HeaderAssembler struct {
	partial map[int]*headerState
}

type headerState struct {
	haveHeader bool
	want       int
	body       []sim.Word
}

// NewHeaderAssembler returns an empty assembler.
func NewHeaderAssembler() *HeaderAssembler {
	return &HeaderAssembler{partial: make(map[int]*headerState)}
}

// Feed consumes a delivery and invokes emit for every completed record:
// tooBig records carry a nil body.
func (a *HeaderAssembler) Feed(d sim.Delivery, emit func(from int, tooBig bool, body []sim.Word)) {
	st := a.partial[d.From]
	if st == nil {
		st = &headerState{}
		a.partial[d.From] = st
	}
	ws := d.Words
	for len(ws) > 0 {
		if !st.haveHeader {
			h := ws[0]
			ws = ws[1:]
			if h == TooBig {
				emit(d.From, true, nil)
				continue
			}
			st.haveHeader = true
			st.want = int(h)
			st.body = st.body[:0]
			if st.want == 0 {
				st.haveHeader = false
				emit(d.From, false, nil)
			}
			continue
		}
		take := st.want - len(st.body)
		if take > len(ws) {
			take = len(ws)
		}
		st.body = append(st.body, ws[:take]...)
		ws = ws[take:]
		if len(st.body) == st.want {
			st.haveHeader = false
			emit(d.From, false, st.body)
		}
	}
}
