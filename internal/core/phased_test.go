package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestFixedAssemblerRandomChunking(t *testing.T) {
	f := func(seed int64, recSize8 uint8) bool {
		size := 1 + int(recSize8)%5
		rng := rand.New(rand.NewSource(seed))
		// Three records worth of words from one sender.
		var words []sim.Word
		for i := 0; i < 3*size; i++ {
			words = append(words, sim.Word(i))
		}
		a := NewFixedAssembler(size)
		var recs [][]sim.Word
		for len(words) > 0 {
			k := 1 + rng.Intn(len(words))
			chunk := words[:k]
			words = words[k:]
			a.Feed(sim.Delivery{From: 9, Words: chunk}, func(from int, rec []sim.Word) {
				if from != 9 {
					t.Fatal("wrong sender")
				}
				recs = append(recs, append([]sim.Word(nil), rec...))
			})
		}
		if len(recs) != 3 {
			return false
		}
		for r, rec := range recs {
			for i, w := range rec {
				if int(w) != r*size+i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedAssemblerInterleavedSenders(t *testing.T) {
	a := NewFixedAssembler(2)
	got := map[int][]sim.Word{}
	emit := func(from int, rec []sim.Word) {
		got[from] = append(got[from], rec...)
	}
	a.Feed(sim.Delivery{From: 1, Words: []sim.Word{10}}, emit)
	a.Feed(sim.Delivery{From: 2, Words: []sim.Word{20, 21}}, emit)
	a.Feed(sim.Delivery{From: 1, Words: []sim.Word{11}}, emit)
	if len(got[1]) != 2 || got[1][0] != 10 || got[1][1] != 11 {
		t.Fatalf("sender 1: %v", got[1])
	}
	if len(got[2]) != 2 {
		t.Fatalf("sender 2: %v", got[2])
	}
}

func TestHeaderAssemblerVariants(t *testing.T) {
	a := NewHeaderAssembler()
	type rec struct {
		tooBig bool
		body   []sim.Word
	}
	var recs []rec
	emit := func(from int, tooBig bool, body []sim.Word) {
		recs = append(recs, rec{tooBig, append([]sim.Word(nil), body...)})
	}
	// Record 1: 3-word body split awkwardly. Record 2: TooBig. Record 3:
	// empty body. Record 4: 1-word body in the same delivery as 3's header.
	a.Feed(sim.Delivery{From: 5, Words: []sim.Word{3, 100}}, emit)
	a.Feed(sim.Delivery{From: 5, Words: []sim.Word{101}}, emit)
	a.Feed(sim.Delivery{From: 5, Words: []sim.Word{102, TooBig}}, emit)
	a.Feed(sim.Delivery{From: 5, Words: []sim.Word{0, 1, 7}}, emit)
	if len(recs) != 4 {
		t.Fatalf("got %d records: %+v", len(recs), recs)
	}
	if recs[0].tooBig || len(recs[0].body) != 3 || recs[0].body[2] != 102 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if !recs[1].tooBig {
		t.Fatal("rec1 not TooBig")
	}
	if recs[2].tooBig || len(recs[2].body) != 0 {
		t.Fatalf("rec2 = %+v", recs[2])
	}
	if recs[3].tooBig || len(recs[3].body) != 1 || recs[3].body[0] != 7 {
		t.Fatalf("rec3 = %+v", recs[3])
	}
}

func TestHeaderAssemblerRandomChunkingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a random record stream and its expected parse.
		var stream []sim.Word
		type rec struct {
			tooBig bool
			n      int
		}
		var want []rec
		for i := 0; i < 5; i++ {
			if rng.Intn(4) == 0 {
				stream = append(stream, TooBig)
				want = append(want, rec{tooBig: true})
				continue
			}
			n := rng.Intn(4)
			stream = append(stream, sim.Word(n))
			for j := 0; j < n; j++ {
				stream = append(stream, sim.Word(100+j))
			}
			want = append(want, rec{n: n})
		}
		a := NewHeaderAssembler()
		var got []rec
		for len(stream) > 0 {
			k := 1 + rng.Intn(len(stream))
			chunk := stream[:k]
			stream = stream[k:]
			a.Feed(sim.Delivery{From: 1, Words: chunk}, func(from int, tb bool, body []sim.Word) {
				got = append(got, rec{tooBig: tb, n: len(body)})
			})
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// traceHandler records the framework's callback sequence.
type traceHandler struct {
	sched    *sim.Schedule
	starts   []int
	recvPh   []int
	finished bool
	sendAt   map[int][]sim.Word // phase -> payload to broadcast at Start
}

func (h *traceHandler) Start(ctx *sim.Context, phase int) {
	h.starts = append(h.starts, phase)
	if ws, ok := h.sendAt[phase]; ok {
		ctx.Broadcast(ws...)
	}
}

func (h *traceHandler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	h.recvPh = append(h.recvPh, phase)
}

func (h *traceHandler) Finish(ctx *sim.Context) { h.finished = true }

// TestPhasedNodeAttribution checks the core framing contract: data sent in
// phase p is received with attribution p, and all phase Starts fire in
// order exactly once, ending with Finish.
func TestPhasedNodeAttribution(t *testing.T) {
	g := graph.Complete(2)
	sched := &sim.Schedule{}
	sched.Add("p0", 2) // 3-word payload at B=2 -> drains into round 2
	sched.Add("p1", 0) // zero-length local phase
	sched.Add("p2", 2)
	handlers := []*traceHandler{
		{sched: sched, sendAt: map[int][]sim.Word{0: {1, 2, 3}, 2: {9}}},
		{sched: sched, sendAt: map[int][]sim.Word{0: {1, 2, 3}, 2: {9}}},
	}
	// A fault-free run that leaves words queued fails with a phase-budget
	// error, so a nil error also proves every word drained.
	res, err := NewEngineCache().RunSingle(g, sched, func(id int) PhaseHandler { return handlers[id] }, sim.Config{BandwidthWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.ExecutedRounds != TotalRounds(sched) {
		t.Fatalf("executed %d rounds, want %d", res.Meta.ExecutedRounds, TotalRounds(sched))
	}
	for i, h := range handlers {
		if len(h.starts) != 3 || h.starts[0] != 0 || h.starts[1] != 1 || h.starts[2] != 2 {
			t.Fatalf("node %d starts = %v", i, h.starts)
		}
		// Phase 0 payload (3 words) arrives in 2 deliveries attributed 0;
		// phase 2 payload in 1 delivery attributed 2.
		want := []int{0, 0, 2}
		if len(h.recvPh) != len(want) {
			t.Fatalf("node %d recv phases = %v, want %v", i, h.recvPh, want)
		}
		for j := range want {
			if h.recvPh[j] != want[j] {
				t.Fatalf("node %d recv phases = %v, want %v", i, h.recvPh, want)
			}
		}
		if !h.finished {
			t.Fatalf("node %d never finished", i)
		}
	}
}

// TestSequenceSegmentIsolation: two phased sub-algorithms run back to back
// must not leak data across the segment boundary, and each segment's
// handlers are built only when it is bound.
func TestSequenceSegmentIsolation(t *testing.T) {
	g := graph.Complete(2)
	s1 := &sim.Schedule{}
	s1.Add("seg1", 2)
	s2 := &sim.Schedule{}
	s2.Add("seg2", 1)
	type tracked struct{ h1, h2 *traceHandler }
	tr := make([]tracked, 2)
	segs := []Segment{
		{Name: "one", Sched: s1, Handler: func(id int) PhaseHandler {
			h := &traceHandler{sched: s1, sendAt: map[int][]sim.Word{0: {11, 12, 13}}}
			tr[id].h1 = h
			return h
		}},
		{Name: "two", Sched: s2, Handler: func(id int) PhaseHandler {
			if !tr[id].h1.finished {
				t.Errorf("node %d: segment two bound before segment one finished", id)
			}
			h := &traceHandler{sched: s2, sendAt: map[int][]sim.Word{0: {21}}}
			tr[id].h2 = h
			return h
		}},
	}
	if _, err := NewEngineCache().RunSequence(g, segs, sim.Config{BandwidthWords: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tr[i].h1 == nil || tr[i].h2 == nil {
			t.Fatal("segment handlers not constructed")
		}
		if !tr[i].h1.finished || !tr[i].h2.finished {
			t.Fatalf("node %d: finished flags %v %v", i, tr[i].h1.finished, tr[i].h2.finished)
		}
		if got := len(tr[i].h1.recvPh); got != 2 { // 3 words at B=2
			t.Fatalf("node %d: segment 1 deliveries = %d, want 2", i, got)
		}
		if got := len(tr[i].h2.recvPh); got != 1 {
			t.Fatalf("node %d: segment 2 deliveries = %d, want 1", i, got)
		}
	}
	if SequenceRounds(segs) != (s1.Total()+1)+(s2.Total()+1) {
		t.Fatal("SequenceRounds formula drift")
	}
}
