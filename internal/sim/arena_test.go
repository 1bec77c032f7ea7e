package sim

// Tests for the store-once send path (arena.go): the retained footprint of
// a Broadcast-heavy round, the compaction bound on runs whose channels
// never all drain, pops at bandwidths far above the words queued, the
// chunked store, and the queued-word account against a walk of every
// queue.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
)

// checkQueues walks every queue with words and checks the engine's
// bookkeeping against it: each queue is non-empty with every span inside
// its sender shard's active half, and the words found add up to the
// queued-word account.
func checkQueues(t *testing.T, e *Engine) {
	t.Helper()
	total := int64(0)
	check := func(what string, q *spanQueue, src *sendArena) {
		if q.n == 0 {
			t.Fatalf("round %d: %s is listed active but empty", e.round, what)
		}
		src.eachSpan(q, func(off, n uint32) {
			if int(off+n) > src.words.n {
				t.Fatalf("round %d: %s span [%d,+%d) beyond the arena's %d words", e.round, what, off, n, src.words.n)
			}
			total += int64(n)
		})
	}
	e.eachActive(func(c int32) {
		check(fmt.Sprintf("channel %d", c), &e.queues[c], e.arenas[e.shardOf[e.commTgts[c]]])
	})
	for _, u := range e.bcastActive {
		check(fmt.Sprintf("broadcast queue %d", u), &e.bcastQ[u], e.arenas[e.shardOf[u]])
	}
	if total != e.queuedWords {
		t.Fatalf("round %d: queues hold %d words, account says %d", e.round, total, e.queuedWords)
	}
}

// TestChannelFootprint bounds what a Broadcast-heavy round retains. Every
// node of gnp(10^4, 16/n) broadcasts its neighbour list once, in CONGEST
// mode — the two-hop baseline's traffic, Σdeg² ≈ 2.7M channel-words over
// ~160k channels. After the run and a GC the engine retains 102 bytes per
// directed channel (measured on a 2-CPU x86-64 box, Go 1.24), the inboxes
// and per-node contexts included, because each node's list is stored once
// and every channel queues a span of it. Storing a copy in the sender's
// send buffer and another in each channel queue retained 474 bytes per
// channel on the same box, more than three times the bound.
func TestChannelFootprint(t *testing.T) {
	const n = 10_000
	g := graph.Gnp(n, 16.0/n, rand.New(rand.NewSource(5)))
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = &nbrListNode{}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := NewEngine(g, nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	channels := int64(len(eng.queues))
	perChannel := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / channels
	runtime.KeepAlive(eng)
	t.Logf("%d channels, %d B retained per channel", channels, perChannel)
	if perChannel > 140 {
		t.Errorf("engine retains %d B per directed channel, want <= 140", perChannel)
	}
}

// backlogNode drives a run whose channels never all drain: every node
// broadcasts one word each round until stopAt, and node 0 also sends one
// extra word per round on its first channel, which at B=1 leaves that
// channel one word further behind every round. Every word received is
// folded into a digest, so a misdelivered word shows in the node state.
type backlogNode struct {
	stopAt int
	digest uint64
}

func (b *backlogNode) Init(ctx *Context) {}

func (b *backlogNode) Round(ctx *Context, round int, inbox []Delivery) {
	for _, d := range inbox {
		for _, w := range d.Words {
			b.digest = mix64(b.digest ^ uint64(d.From)<<32 ^ w)
		}
	}
	if round >= b.stopAt {
		ctx.SetDone()
		return
	}
	w := Word(round)<<20 | Word(ctx.ID())
	ctx.Broadcast(w)
	if ctx.ID() == 0 && ctx.CommDegree() > 0 {
		ctx.Send(0, ^w)
	}
}

func (b *backlogNode) SnapshotState(_ *Context, w *SnapWriter) error { w.U64(b.digest); return nil }
func (b *backlogNode) RestoreState(_ *Context, r *SnapReader) error  { b.digest = r.U64(); return nil }

// backlogRun is everything observable about one backlog run.
type backlogRun struct {
	metrics Metrics
	round   int
	rounds  []RoundDelta
	digests []uint64
}

// runBacklog runs backlogNodes for stopAt sending rounds under cfg to
// quiescence, checking after every round that the arenas hold at most
// twice the peak queued words plus compactSlack. With cut > 0 it
// snapshots at round cut and resumes on a fresh engine built under
// resume.
func runBacklog(t *testing.T, g *graph.Graph, cfg Config, stopAt, cut int, resume Config) (backlogRun, *Engine) {
	t.Helper()
	mk := func(c Config) (*Engine, []Node) {
		nodes := make([]Node, g.N())
		for v := range nodes {
			nodes[v] = &backlogNode{stopAt: stopAt}
		}
		c.MaxRounds = 1 << 20
		e, err := NewEngine(g, nodes, c)
		if err != nil {
			t.Fatal(err)
		}
		return e, nodes
	}
	var run backlogRun
	peak := int64(0)
	var eng *Engine
	hooks := Hooks{Round: func(round int, d RoundDelta) {
		run.rounds = append(run.rounds, d)
		peak = max(peak, eng.queuedWords)
		if load := eng.arenaLoad(); load > 2*peak+compactSlack {
			t.Fatalf("round %d: arenas hold %d words and spans, bound 2*%d+%d", round, load, peak, compactSlack)
		}
		if round%251 == 0 {
			checkQueues(t, eng)
		}
	}}
	eng, nodes := mk(cfg)
	eng.SetHooks(hooks)
	if cut > 0 {
		eng.Run(cut)
		if eng.PendingWords() == 0 {
			t.Fatalf("no words queued at the cut, round %d", cut)
		}
		payload, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		eng, nodes = mk(resume)
		if err := eng.Restore(payload); err != nil {
			t.Fatal(err)
		}
		checkQueues(t, eng)
		eng.SetHooks(hooks)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	run.metrics, run.round = eng.Metrics(), eng.Round()
	for _, nd := range nodes {
		run.digests = append(run.digests, nd.(*backlogNode).digest)
	}
	// Every node stores one word per sending round: far more than the
	// bound, so only reclamation kept the arenas within it.
	if stored := int64(g.N()) * int64(stopAt); stored < 4*(2*peak+compactSlack) {
		t.Fatalf("run stored only %d words; the bound 2*%d+%d never had to be enforced", stored, peak, compactSlack)
	}
	return run, eng
}

func assertSameBacklog(t *testing.T, label string, want, got backlogRun) {
	t.Helper()
	if got.round != want.round {
		t.Fatalf("%s: %d rounds, want %d", label, got.round, want.round)
	}
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		t.Fatalf("%s: metrics diverge\ngot:  %+v\nwant: %+v", label, got.metrics, want.metrics)
	}
	if !reflect.DeepEqual(got.digests, want.digests) {
		t.Fatalf("%s: node states diverge", label)
	}
	if !reflect.DeepEqual(got.rounds, want.rounds) {
		t.Fatalf("%s: hook streams diverge", label)
	}
}

// backlogPlan delays every channel's first delivery by up to three rounds.
func backlogPlan() *faults.Plan { return &faults.Plan{Seed: 3, DelayMax: 3} }

// TestArenaBacklogBounded runs the never-draining backlog for 10^4 sending
// rounds at B=1 under a delay plan: the arenas stay within twice the peak
// queued words plus compactSlack after every round — which only
// compaction can achieve, since the run sends far more — and the run is
// bit-identical at Shards 1, 2, 4 and 7 and across a snapshot cut taken
// inside the backlog and resumed at another shard count.
func TestArenaBacklogBounded(t *testing.T) {
	const stopAt = 10_000
	g := graph.Gnp(48, 0.12, rand.New(rand.NewSource(7)))
	base := Config{Seed: 11, BandwidthWords: 1, Faults: backlogPlan()}
	want, _ := runBacklog(t, g, base, stopAt, 0, Config{})
	if want.round < 2*stopAt-100 {
		t.Fatalf("run ended at round %d; the backlog should take about %d more rounds to drain", want.round, stopAt)
	}
	for _, shards := range []int{1, 2, 4, 7} {
		cfg := base
		cfg.Shards = shards
		got, _ := runBacklog(t, g, cfg, stopAt, 0, Config{})
		assertSameBacklog(t, fmt.Sprintf("shards=%d", shards), want, got)
	}
	resume := base
	resume.Shards = 4
	got, _ := runBacklog(t, g, base, stopAt, stopAt/2+3, resume)
	assertSameBacklog(t, "cut at 5003, resumed at shards=4", want, got)
	t.Run("pool", func(t *testing.T) {
		requirePool(t)
		big := graph.Gnp(200, 8.0/200, rand.New(rand.NewSource(8)))
		want, _ := runBacklog(t, big, base, 2000, 0, Config{})
		for _, shards := range []int{2, 4, 7} {
			cfg := base
			cfg.Shards = shards
			got, eng := runBacklog(t, big, cfg, 2000, 0, Config{})
			assertSameBacklog(t, fmt.Sprintf("gnp200 shards=%d", shards), want, got)
			assertPoolRan(t, fmt.Sprintf("gnp200 shards=%d", shards), eng)
		}
	})
}

// bulkNode sends three bulkWords-word messages in Init, alternating
// between its first two channels: its arena share crosses chunk
// boundaries, and its first channel queues two spans that one pop at a
// large B gathers, more words than a scratch chunk holds.
type bulkNode struct {
	digest uint64
}

const bulkWords = 9000

func (h *bulkNode) Init(ctx *Context) {
	ctx.SetDone()
	if ctx.CommDegree() < 2 {
		return
	}
	ws := make([]Word, bulkWords)
	for k := 0; k < 3; k++ {
		for i := range ws {
			ws[i] = Word(k)<<40 | Word(ctx.ID())<<20 | Word(i)
		}
		ctx.Send(k%2, ws...)
	}
}

func (h *bulkNode) Round(ctx *Context, round int, inbox []Delivery) {
	for _, d := range inbox {
		for _, w := range d.Words {
			h.digest = mix64(h.digest ^ uint64(d.From)<<32 ^ w)
		}
	}
}

func (h *bulkNode) SnapshotState(_ *Context, w *SnapWriter) error { w.U64(h.digest); return nil }
func (h *bulkNode) RestoreState(_ *Context, r *SnapReader) error  { h.digest = r.U64(); return nil }

// hugeRun is everything observable about one run of TestHugeBandwidth,
// plus what it cost.
type hugeRun struct {
	metrics   Metrics
	round     int
	rounds    []RoundDelta
	states    [][]byte // each node's SnapshotState bytes
	gathered  bool     // some pop crossed a span boundary
	allocated uint64   // bytes allocated building and running the engine
}

// TestHugeBandwidth runs burst traffic, bulk sends, the neighbour-list
// broadcast and a broadcast-mode machine at B = 2^31 and B = 2^32, and
// also at B = chunkLen where that is at least the total words sent. Each
// run must match the run at B = the total words sent, where every pop
// likewise takes all that is queued, and allocate at most 64 KiB more
// than that run: a pop's work and memory scale with the words it takes,
// never with B. A B truncated to 32 bits would pop nothing at 2^32 and
// hit MaxRounds; a gather buffer sized by B would allocate 16 GiB at
// 2^31, and at chunkLen would start a fresh scratch chunk for most
// gathers.
func TestHugeBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gnp := graph.Gnp(48, 0.15, rng)
	dense := graph.Gnp(40, 0.3, rng)
	burst := func() Node { return &burstNode{} }
	cases := []struct {
		name   string
		g      *graph.Graph
		cfg    Config
		mk     func() Node
		gather bool // the run must exercise the gathering pop
	}{
		{"burst", gnp, Config{Seed: 4}, burst, true},
		{"burst/shards=4", gnp, Config{Seed: 4, Shards: 4}, burst, true},
		{"bulk", graph.Gnp(12, 0.5, rng), Config{Seed: 6}, func() Node { return &bulkNode{} }, true},
		{"nbrlist", dense, Config{Seed: 5}, func() Node { return &nbrListNode{} }, false},
		{"broadcast", gnp, Config{Seed: 7, Mode: ModeBroadcast}, func() Node { return &bcastChatterNode{} }, false},
	}
	for _, c := range cases {
		run := func(b int) hugeRun {
			t.Helper()
			var r hugeRun
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			nodes := make([]Node, c.g.N())
			for v := range nodes {
				nodes[v] = c.mk()
			}
			cfg := c.cfg
			cfg.BandwidthWords = b
			cfg.MaxRounds = 1 << 16
			eng, err := NewEngine(c.g, nodes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetHooks(Hooks{Round: func(round int, d RoundDelta) {
				r.rounds = append(r.rounds, d)
				for _, a := range eng.arenas {
					r.gathered = r.gathered || a.scratch.n > 0
				}
			}})
			if err := eng.RunUntilQuiescent(); err != nil {
				t.Fatalf("%s at B=%d: %v", c.name, b, err)
			}
			runtime.ReadMemStats(&after)
			r.allocated = after.TotalAlloc - before.TotalAlloc
			r.metrics, r.round = eng.Metrics(), eng.Round()
			for v, nd := range nodes {
				var w SnapWriter
				if err := nd.(Snapshotter).SnapshotState(eng.ctxs[v], &w); err != nil {
					t.Fatal(err)
				}
				r.states = append(r.states, w.Bytes())
			}
			return r
		}
		total := 0
		for _, w := range run(2).metrics.PerNodeWordsSent {
			total += int(w)
		}
		want := run(total)
		if c.gather && !want.gathered {
			t.Fatalf("%s: no pop crossed a span boundary; the case does not cover gathering", c.name)
		}
		for _, b := range []int{chunkLen, 1 << 31, 1 << 32} {
			if b < total {
				continue
			}
			got := run(b)
			label := fmt.Sprintf("%s at B=%d", c.name, b)
			if got.round != want.round || !reflect.DeepEqual(got.metrics, want.metrics) ||
				!reflect.DeepEqual(got.rounds, want.rounds) || !reflect.DeepEqual(got.states, want.states) {
				t.Fatalf("%s: run differs from the one at B=%d (the total words sent)", label, total)
			}
			if limit := want.allocated + 64<<10; got.allocated > limit {
				t.Fatalf("%s: allocated %d bytes, the run at B=%d %d (limit %d)", label, got.allocated, total, want.allocated, limit)
			}
		}
	}
}

// TestChunkedStore pins the chunked store's addressing across chunk
// boundaries: views never straddle a chunk, copies and appends do, and
// growing the first chunk keeps earlier views intact.
func TestChunkedStore(t *testing.T) {
	var c chunked[Word]
	rng := rand.New(rand.NewSource(1))
	var want []Word
	var views [][]Word
	var viewWant [][]Word
	for len(want) < 3*chunkLen {
		xs := make([]Word, 1+rng.Intn(700))
		for i := range xs {
			xs[i] = rng.Uint64()
		}
		if off := c.add(xs); off != len(want) {
			t.Fatalf("add returned offset %d, want %d", off, len(want))
		}
		want = append(want, xs...)
		if v, ok := c.view(len(want)-len(xs), len(xs)); ok {
			views = append(views, v)
			viewWant = append(viewWant, xs)
		} else if (len(want)-len(xs))>>chunkShift == (len(want)-1)>>chunkShift {
			t.Fatalf("view of [%d,+%d) refused inside one chunk", len(want)-len(xs), len(xs))
		}
	}
	for i := range views {
		if !reflect.DeepEqual(views[i], viewWant[i]) {
			t.Fatalf("view %d changed after later appends", i)
		}
	}
	for trial := 0; trial < 200; trial++ {
		off := rng.Intn(len(want))
		k := 1 + rng.Intn(min(len(want)-off, 3000))
		if got := c.appendTo(nil, off, k); !reflect.DeepEqual(got, want[off:off+k]) {
			t.Fatalf("appendTo [%d,+%d) returned the wrong words", off, k)
		}
		var d chunked[Word]
		c.copyTo(&d, off, k)
		if got := d.appendTo(nil, 0, k); !reflect.DeepEqual(got, want[off:off+k]) {
			t.Fatalf("copyTo [%d,+%d) copied the wrong words", off, k)
		}
	}
	c.reset()
	if chunks := len(c.chunks); c.add([]Word{1}) != 0 || len(c.chunks) != chunks {
		t.Fatal("reset did not restart at offset 0 on the kept chunks")
	}
}

// drainNode sends its whole neighbour list to every neighbour at once —
// in round 0, as the two-hop lister does, or in Init — then sleeps until
// round wake, past the drain, and finishes there: the run steps one idle
// round after its channels drain.
type drainNode struct {
	wake   int
	atInit bool
}

func (d drainNode) Init(ctx *Context) {
	if d.atInit {
		d.burst(ctx)
	}
}

func (d drainNode) Round(ctx *Context, round int, inbox []Delivery) {
	if round == 0 && !d.atInit {
		d.burst(ctx)
	}
	if round >= d.wake {
		ctx.SetDone()
		return
	}
	ctx.SleepUntil(d.wake)
}

func (drainNode) burst(ctx *Context) {
	for _, v := range ctx.InputNeighbors() {
		ctx.Broadcast(Word(v))
	}
}

// TestArenaHalvesStable pins that runs on a warm engine send into the arena
// half they grew before, whatever earlier runs stepped: one engine
// alternating burst-then-drain runs at 0 and 4 shards, bursting in round 0
// or in Init, allocates nothing once one pass has warmed it, and every
// burst lands in the same half, so the other never grows. An arena that
// flipped on drained rounds with an empty active half (round 0 before a
// round-0 burst, and the idle round after the drain) would put round-0
// and Init bursts in different halves; one that kept its half order across
// a rewind would land shards 1-3's bursts of the second pass in halves the
// first pass never grew.
func TestArenaHalvesStable(t *testing.T) {
	g := graph.Gnp(400, 0.05, rand.New(rand.NewSource(41)))
	atRound, atInit := make([]Node, g.N()), make([]Node, g.N())
	for v := range atRound {
		atRound[v] = drainNode{wake: g.MaxDegree() + 4}
		atInit[v] = drainNode{wake: g.MaxDegree() + 4, atInit: true}
	}
	eng, err := NewEngine(g, atRound, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for _, nodes := range [][]Node{atRound, atInit} {
			for _, shards := range []int{0, 4} {
				if err := eng.Rebind(g, nodes, Config{Seed: 1, Shards: shards}); err != nil {
					t.Fatal(err)
				}
				if err := eng.RunUntilQuiescent(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Fatalf("%v allocations in a warm pass", allocs)
	}
	for s, a := range eng.arenas {
		if a.words.cap != 0 && a.spare.cap != 0 {
			t.Errorf("shard %d: both arena halves grew (%d and %d words)", s, a.words.cap, a.spare.cap)
		}
	}
}
