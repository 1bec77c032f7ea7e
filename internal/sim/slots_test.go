package sim

// Tests for the receiver-major channel layout: inbox order against an
// independent model of the determinism contract, the reverse-slot index,
// and topologies the index cannot be built for.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// orderSendRounds returns the rounds node u sends at, ascending; -1 is
// Init. Senders start at different rounds and send again while earlier
// messages may still be queued, so channels into one receiver activate in
// different rounds and overlap.
func orderSendRounds(u int) []int {
	r := u % 3
	rounds := []int{r, r + 3 + u%2}
	if u%4 == 0 {
		rounds = append([]int{-1}, rounds...)
	}
	return rounds
}

// orderMsg is the message u sends to v at its k-th send: one to four
// words, each naming (u, v, k, i), so a misrouted or reordered word shows.
func orderMsg(u, v, k int) []Word {
	ws := make([]Word, 1+(7*u+3*v+k)%4)
	for i := range ws {
		ws[i] = Word(u)<<32 | Word(v)<<16 | Word(k)<<8 | Word(i)
	}
	return ws
}

// inboxRec is one non-empty inbox, words copied out of engine memory.
type inboxRec struct {
	round int
	got   []Delivery
}

// orderNode sends orderMsg to every neighbour at each of its send rounds
// and records every non-empty inbox it receives. Nothing it does depends
// on what it receives, so the model below can predict every inbox.
type orderNode struct {
	sends []int
	log   []inboxRec
}

func (o *orderNode) send(ctx *Context, k int) {
	for i, v := range ctx.CommNeighbors() {
		ctx.Send(i, orderMsg(ctx.ID(), int(v), k)...)
	}
}

func (o *orderNode) Init(ctx *Context) {
	if o.sends[0] == -1 {
		o.send(ctx, 0)
	}
}

func (o *orderNode) Round(ctx *Context, round int, inbox []Delivery) {
	if len(inbox) > 0 {
		rec := inboxRec{round: round}
		for _, d := range inbox {
			rec.got = append(rec.got, Delivery{From: d.From, Words: slices.Clone(d.Words)})
		}
		o.log = append(o.log, rec)
	}
	if k := slices.Index(o.sends, round); k >= 0 {
		o.send(ctx, k)
	}
	if round >= o.sends[len(o.sends)-1] {
		ctx.SetDone()
	}
}

// modelInboxes is the determinism contract written out independently of
// the engine: each directed channel is a FIFO of words; a send appends to
// it, and one onto an empty FIFO activates the channel at that round
// (Init counts as round -1); each round, every receiver pops up to b
// words from each active in-channel, ordered by activation round and then
// by ascending sender. It returns every receiver's non-empty inboxes.
func modelInboxes(comm func(u int) []int32, n, b int) [][]inboxRec {
	type channel struct {
		words []Word
		act   int
	}
	chans := make(map[[2]int]*channel)
	send := func(u, k, round int) {
		for _, v := range comm(u) {
			key := [2]int{u, int(v)}
			ch := chans[key]
			if ch == nil {
				ch = &channel{}
				chans[key] = ch
			}
			if len(ch.words) == 0 {
				ch.act = round
			}
			ch.words = append(ch.words, orderMsg(u, int(v), k)...)
		}
	}
	last := 0
	for u := 0; u < n; u++ {
		rounds := orderSendRounds(u)
		if rounds[0] == -1 {
			send(u, 0, -1)
		}
		last = max(last, rounds[len(rounds)-1])
	}
	out := make([][]inboxRec, n)
	for round := 0; ; round++ {
		queued := false
		for v := 0; v < n; v++ {
			var senders []int
			for u := 0; u < n; u++ {
				if ch := chans[[2]int{u, v}]; ch != nil && len(ch.words) > 0 {
					senders = append(senders, u)
				}
			}
			slices.SortStableFunc(senders, func(x, y int) int {
				return chans[[2]int{x, v}].act - chans[[2]int{y, v}].act
			})
			rec := inboxRec{round: round}
			for _, u := range senders {
				ch := chans[[2]int{u, v}]
				k := min(b, len(ch.words))
				rec.got = append(rec.got, Delivery{From: u, Words: slices.Clone(ch.words[:k])})
				ch.words = ch.words[k:]
				queued = queued || len(ch.words) > 0
			}
			if len(rec.got) > 0 {
				out[v] = append(out[v], rec)
			}
		}
		for u := 0; u < n; u++ {
			if k := slices.Index(orderSendRounds(u), round); k >= 0 {
				send(u, k, round)
				queued = true
			}
		}
		if !queued && round >= last {
			return out
		}
	}
}

// TestInboxOrderMatchesModel pins the inbox order the receiver-major slot
// layout must not replace: every inbox lists its deliveries by the
// channel's activation round, then by ascending sender — not by the
// receiver's slot order — at every shard count and under the dense
// reference.
func TestInboxOrderMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	graphs := []struct {
		name string
		g    *graph.Graph
		mode Mode
	}{
		{"star", star(12), ModeCONGEST},
		{"gnp", graph.Gnp(40, 0.3, rng), ModeCONGEST},
		{"clique", graph.Gnp(12, 0.2, rng), ModeClique},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"shards0", Config{}},
		{"shards1", Config{Shards: 1}},
		{"shards4", Config{Shards: 4}},
		{"dense", Config{Scheduler: SchedulerDense}},
	}
	for _, gc := range graphs {
		for _, b := range []int{1, 2} {
			var want [][]inboxRec
			for _, c := range configs {
				label := fmt.Sprintf("%s/b%d/%s", gc.name, b, c.name)
				n := gc.g.N()
				nodes := make([]Node, n)
				for u := range nodes {
					nodes[u] = &orderNode{sends: orderSendRounds(u)}
				}
				cfg := c.cfg
				cfg.Mode, cfg.BandwidthWords, cfg.Seed = gc.mode, b, 1
				eng, err := NewEngine(gc.g, nodes, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = modelInboxes(func(u int) []int32 { return eng.ctxs[u].comm }, n, b)
				}
				if err := eng.RunUntilQuiescent(); err != nil {
					t.Fatal(err)
				}
				overlapped := false
				for v, nd := range nodes {
					got := nd.(*orderNode).log
					if !reflect.DeepEqual(got, want[v]) {
						t.Fatalf("%s: receiver %d inboxes\n got  %v\n want %v", label, v, got, want[v])
					}
					for _, rec := range got {
						overlapped = overlapped || !slices.IsSortedFunc(rec.got, func(x, y Delivery) int { return x.From - y.From })
					}
				}
				if !overlapped {
					t.Fatalf("%s: every inbox is in ascending sender order; the test does not separate activation order from slot order", label)
				}
			}
		}
	}
}

// checkTwin checks the engine's reverse-slot index: it maps every slot s
// of sender u to a slot of receiver commTgts[s] that names u, and it is
// an involution.
func checkTwin(t *testing.T, label string, e *Engine) {
	t.Helper()
	if len(e.twin) != len(e.commTgts) {
		t.Fatalf("%s: index has %d entries for %d slots", label, len(e.twin), len(e.commTgts))
	}
	for u := range e.ctxs {
		for s := e.commOffs[u]; s < e.commOffs[u+1]; s++ {
			v, c := e.commTgts[s], e.twin[s]
			if c < e.commOffs[v] || c >= e.commOffs[v+1] {
				t.Fatalf("%s: slot %d (%d->%d) maps to %d, outside %d's slots", label, s, u, v, c, v)
			}
			if e.commTgts[c] != int32(u) {
				t.Fatalf("%s: slot %d (%d->%d) maps to a slot naming %d", label, s, u, v, e.commTgts[c])
			}
			if e.twin[c] != s {
				t.Fatalf("%s: twin[twin[%d]] = %d", label, s, e.twin[c])
			}
		}
	}
}

func TestReverseSlotIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	gnp := graph.Gnp(60, 0.2, rng)
	ba := graph.BarabasiAlbert(60, 3, rng)
	denser := graph.Gnp(60, 0.35, rng)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		mode Mode
	}{
		{"gnp", gnp, ModeCONGEST},
		{"ba", ba, ModeCONGEST},
		{"clique", gnp, ModeClique},
		{"broadcast", ba, ModeBroadcast},
	} {
		eng, err := NewEngine(c.g, make([]Node, c.g.N()), Config{Mode: c.mode, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkTwin(t, c.name, eng)
		// Rebind to a graph with more edges, then back to fewer: the index
		// is rebuilt into reused storage both ways.
		for _, g := range []*graph.Graph{denser, c.g} {
			if err := eng.Rebind(g, make([]Node, g.N()), Config{Mode: c.mode, Shards: 4, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			checkTwin(t, fmt.Sprintf("%s rebound to m=%d", c.name, g.M()), eng)
		}
	}
}

// forgedTopologies are CSR slabs over 3 nodes that skip graph validation,
// as a .csrbin load may: no reverse-slot index exists for any of them.
func forgedTopologies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		// 0 lists 1, but 1 lists nobody.
		"asymmetric": graph.FromCSRUnchecked(3, []int32{0, 1, 1, 1}, []int32{1}),
		// 0 lists 2 before 1.
		"unsorted": graph.FromCSRUnchecked(3, []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}),
		// 0 lists node 5.
		"out of range": graph.FromCSRUnchecked(3, []int32{0, 1, 2, 2}, []int32{5, 0}),
		// The offsets step back.
		"decreasing offsets": graph.FromCSRUnchecked(3, []int32{0, 2, 1, 2}, []int32{1, 0}),
	}
}

func TestForgedTopologyRejected(t *testing.T) {
	good := graph.Gnp(3, 1, rand.New(rand.NewSource(1)))
	for name, g := range forgedTopologies() {
		if _, err := NewEngine(g, make([]Node, 3), Config{}); err == nil {
			t.Errorf("%s: NewEngine accepted the topology", name)
		}
		// A refused Rebind keeps the old graph and a working index.
		eng, err := NewEngine(good, make([]Node, 3), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Rebind(g, make([]Node, 3), Config{Seed: 1}); err == nil {
			t.Errorf("%s: Rebind accepted the topology", name)
		}
		if eng.Input() != good {
			t.Errorf("%s: a refused Rebind replaced the graph", name)
		}
		checkTwin(t, name+" after a refused Rebind", eng)
	}
}
