package sim

// Fault-injection property tests: fault plans (crash-stop, loss, dup,
// delay, adversarial links) must not weaken the determinism contract —
// bit-identical runs across shard counts, across
// the activity and dense schedulers, and across snapshot cut-and-resume —
// plus targeted semantics tests pinning the drain/drop rule, per-burst
// delay arming and the loss/dup accounting. Run under -race (CI does).

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
)

// faultRec extends hookRec with the fault-event stream.
type faultRec struct {
	hookRec
	events []FaultEvent
}

func (f *faultRec) allHooks() Hooks {
	h := f.hooks()
	h.Fault = func(ev FaultEvent) { f.events = append(f.events, ev) }
	return h
}

// testPlans returns the fault plans the property tests sweep: each fault
// kind alone, then everything at once.
func testPlans(n int) map[string]*faults.Plan {
	return map[string]*faults.Plan{
		"crash": {Seed: 1, Crashes: []faults.Crash{
			{Node: 1, Round: 3}, {Node: n - 1, Round: 0}, {Node: n / 2, Round: 9},
		}},
		"loss": {Seed: 2, Loss: 0.3},
		"dup":  {Seed: 3, Dup: 0.3},
		"delay": {Seed: 4, DelayMax: 3, DelayLinks: []faults.LinkDelay{
			{From: 0, To: 1, K: 5}, {From: 2, To: 2, K: 2},
		}},
		"combined": {Seed: 5, Crashes: []faults.Crash{
			{Node: 0, Round: 6}, {Node: 2, Round: 2},
		}, Loss: 0.15, Dup: 0.1, DelayMax: 2,
			DelayLinks: []faults.LinkDelay{{From: 1, To: 0, K: 4}}},
	}
}

// runFaulty runs the chatter machines to quiescence and returns
// everything observable, fault events included.
func runFaulty(t *testing.T, g *graph.Graph, cfg Config) (Metrics, [][]graph.Triangle, int, *faultRec) {
	t.Helper()
	eng, rec := runFaultyEngine(t, g, cfg)
	return eng.Metrics(), eng.Outputs(), eng.Round(), rec
}

// runFaultyEngine is runFaulty returning the finished engine itself.
func runFaultyEngine(t *testing.T, g *graph.Graph, cfg Config) (*Engine, *faultRec) {
	t.Helper()
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &faultRec{}
	eng.SetHooks(rec.allHooks())
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return eng, rec
}

// TestFaultsBitIdenticalAcrossExecution is the fault-layer determinism
// matrix: for every fault plan, runs at Shards ∈ {1, 2, 4, 7} are
// bit-identical to the sequential single-shard spine — metrics (fault
// counters included), outputs, final round and the full hook stream with
// fault events — including on an input large enough that every sharded
// phase fans out on the worker pool.
func TestFaultsBitIdenticalAcrossExecution(t *testing.T) {
	check := func(t *testing.T, label string, g *graph.Graph, base Config, wantPool bool) {
		t.Helper()
		bm, bout, bround, brec := runFaulty(t, g, base)
		for _, shards := range []int{1, 2, 4, 7} {
			cfg := base
			cfg.Shards = shards
			eng, rec := runFaultyEngine(t, g, cfg)
			m, out, round := eng.Metrics(), eng.Outputs(), eng.Round()
			label := fmt.Sprintf("%s shards=%d", label, shards)
			if round != bround {
				t.Fatalf("%s: rounds %d vs %d", label, round, bround)
			}
			if !reflect.DeepEqual(m, bm) {
				t.Fatalf("%s: metrics diverge\nbase: %+v\ngot:  %+v", label, bm, m)
			}
			if !reflect.DeepEqual(out, bout) {
				t.Fatalf("%s: outputs diverge", label)
			}
			if !reflect.DeepEqual(rec, brec) {
				t.Fatalf("%s: hook streams diverge (%d vs %d fault events)", label, len(rec.events), len(brec.events))
			}
			if wantPool && shards > 1 {
				assertPoolRan(t, label, eng)
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	for _, mode := range []Mode{ModeCONGEST, ModeBroadcast} {
		g := graph.Gnp(40, 0.15, rng)
		for pname, plan := range testPlans(g.N()) {
			base := Config{Mode: mode, Seed: 77, Faults: plan}
			if pname == "crash" {
				if m, _, _, _ := runFaulty(t, g, base); m.Faults.NodesCrashed == 0 {
					t.Fatalf("mode=%v/%s: crash plan crashed nobody", mode, pname)
				}
			}
			check(t, fmt.Sprintf("mode=%v plan=%s", mode, pname), g, base, false)
		}
	}
	t.Run("pool", func(t *testing.T) {
		requirePool(t)
		g := fanOutGraph()
		check(t, "gnp3000 plan=combined", g, Config{Seed: 77, BandwidthWords: 1, Faults: testPlans(g.N())["combined"]}, true)
	})
}

// TestFaultsActivityMatchesDense: with faults on, the activity scheduler
// stays bit-identical to the dense reference — the property that forced
// fault-mode delivery scheduling onto the dense criterion (post-delivery
// inboxes) and bounded fast-forwards by the next crash round.
func TestFaultsActivityMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	graphs := map[string]*graph.Graph{
		"gnp":  graph.Gnp(40, 0.15, rng),
		"ring": graph.RingWithChords(32, 8, rng),
	}
	for gname, g := range graphs {
		for pname, plan := range testPlans(g.N()) {
			for _, mode := range []Mode{ModeCONGEST, ModeClique, ModeBroadcast} {
				for _, shards := range []int{0, 4} {
					cfg := Config{Mode: mode, Seed: 99, Shards: shards, Faults: plan}
					cfg.Scheduler = SchedulerDense
					dm, dout, dround, drec := runFaulty(t, g, cfg)
					cfg.Scheduler = SchedulerActivity
					am, aout, around, arec := runFaulty(t, g, cfg)
					label := fmt.Sprintf("%s plan=%s mode=%v shards=%d", gname, pname, mode, shards)
					if dround != around {
						t.Fatalf("%s: rounds %d (dense) vs %d (activity)", label, dround, around)
					}
					am.FastForwardedRounds = 0
					if !reflect.DeepEqual(dm, am) {
						t.Fatalf("%s: metrics diverge\ndense: %+v\nact:   %+v", label, dm, am)
					}
					if !reflect.DeepEqual(dout, aout) {
						t.Fatalf("%s: outputs diverge", label)
					}
					if !reflect.DeepEqual(drec, arec) {
						t.Fatalf("%s: hook streams diverge", label)
					}
				}
			}
		}
	}
}

// runFaultyStraight / runFaultyCut are the snapshot-test harness
// (snapshot_test.go) with the fault-event stream recorded too.
func runFaultyStraight(t *testing.T, g *graph.Graph, cfg Config) (snapObs, *faultRec) {
	t.Helper()
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &faultRec{}
	eng.SetHooks(rec.allHooks())
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return snapObs{eng.Metrics(), eng.Outputs(), eng.Round(), &rec.hookRec}, rec
}

func runFaultyCut(t *testing.T, g *graph.Graph, cfg, cfg2 Config, k int) (snapObs, *faultRec) {
	t.Helper()
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &faultRec{}
	eng.SetHooks(rec.allHooks())
	eng.Run(k)
	payload, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at %d: %v", k, err)
	}
	eng2, err := NewEngine(g, snapNodes(g.N(), cfg2.Mode), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(payload); err != nil {
		t.Fatalf("restore at %d: %v", k, err)
	}
	eng2.SetHooks(rec.allHooks())
	if err := eng2.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return snapObs{eng2.Metrics(), eng2.Outputs(), eng2.Round(), &rec.hookRec}, rec
}

// TestFaultsSnapshotCutAndResume: cutting a faulty run at any point —
// before, at and after scheduled crashes, inside delay-armed windows —
// and resuming (possibly at a different shard count)
// reproduces the straight-through run exactly, fault metrics, events and
// arming included. This is the test that forces delay arming and the
// fault-plan hash into the snapshot payload.
func TestFaultsSnapshotCutAndResume(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := graph.Gnp(40, 0.15, rng)
	for pname, plan := range testPlans(g.N()) {
		for _, sched := range []Scheduler{SchedulerActivity, SchedulerDense} {
			cfg := Config{Scheduler: sched, Seed: 77, Faults: plan}
			full, fullRec := runFaultyStraight(t, g, cfg)
			total := full.round
			if total < 10 {
				t.Fatalf("plan=%s sched=%v: run too short (%d rounds) to cut", pname, sched, total)
			}
			for _, k := range []int{0, 1, 2, 4, total / 2, total - 2} {
				for _, alt := range []struct {
					name   string
					shards int
				}{
					{"same", cfg.Shards},
					{"shards4", 4},
					{"shards7", 7},
				} {
					cfg2 := cfg
					cfg2.Shards = alt.shards
					got, gotRec := runFaultyCut(t, g, cfg, cfg2, k)
					label := fmt.Sprintf("plan=%s sched=%v k=%d %s", pname, sched, k, alt.name)
					assertSameRun(t, label, full, got)
					if !reflect.DeepEqual(fullRec.events, gotRec.events) {
						t.Fatalf("%s: fault-event streams diverge\nwant %+v\ngot  %+v", label, fullRec.events, gotRec.events)
					}
				}
			}
		}
	}
}

// TestFaultsSnapshotPlanMismatch: a snapshot taken under one fault plan
// must fail closed against engines with no plan, a different plan, and
// the reverse direction — never restore into mismatched fault behavior.
func TestFaultsSnapshotPlanMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.Gnp(24, 0.25, rng)
	plan := &faults.Plan{Seed: 1, Loss: 0.2, DelayMax: 2}
	mk := func(p *faults.Plan) *Engine {
		eng, err := NewEngine(g, snapNodes(g.N(), ModeCONGEST), Config{Seed: 9, Faults: p})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	faulty := mk(plan)
	faulty.Run(5)
	payload, err := faulty.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := mk(nil).Restore(payload); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("faulty snapshot into fault-free engine: got %v, want ErrSnapshotMismatch", err)
	}
	other := &faults.Plan{Seed: 2, Loss: 0.2, DelayMax: 2}
	if err := mk(other).Restore(payload); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("faulty snapshot into different plan: got %v, want ErrSnapshotMismatch", err)
	}
	clean := mk(nil)
	clean.Run(5)
	cleanPayload, err := clean.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := mk(plan).Restore(cleanPayload); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("fault-free snapshot into faulty engine: got %v, want ErrSnapshotMismatch", err)
	}
	if err := mk(plan).Restore(payload); err != nil {
		t.Fatalf("matching plan should restore: %v", err)
	}
}

// probeNode records exactly which rounds ran and when words arrived; it
// sends one word to its first neighbor every round until round 10.
type probeNode struct {
	initRan bool
	rounds  []int
	recvAt  []int
}

func (p *probeNode) Init(ctx *Context) { p.initRan = true }

func (p *probeNode) Round(ctx *Context, round int, inbox []Delivery) {
	p.rounds = append(p.rounds, round)
	for _, d := range inbox {
		for range d.Words {
			p.recvAt = append(p.recvAt, round)
		}
	}
	if round >= 10 {
		ctx.SetDone()
		return
	}
	if ctx.CommDegree() > 0 {
		ctx.Send(0, Word(round))
	}
}

// TestFaultsCrashSemantics pins the crash-stop contract on a ring: the
// Round handler never runs at or after the crash round, Init always runs
// (round-0 crash included), crashed receivers drain-and-drop without
// wedging quiescence, and crash events stream in (round, node) order.
func TestFaultsCrashSemantics(t *testing.T) {
	g := graph.Ring(6)
	plan := &faults.Plan{Crashes: []faults.Crash{
		{Node: 2, Round: 4},
		{Node: 5, Round: 0},
		{Node: 2, Round: 8}, // duplicate: the earliest round wins
	}}
	for _, sched := range []Scheduler{SchedulerActivity, SchedulerDense} {
		probes := make([]Node, g.N())
		for v := range probes {
			probes[v] = &probeNode{}
		}
		eng, err := NewEngine(g, probes, Config{Seed: 1, Scheduler: sched, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		rec := &faultRec{}
		eng.SetHooks(rec.allHooks())
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		p2 := probes[2].(*probeNode)
		p5 := probes[5].(*probeNode)
		if !p2.initRan || !p5.initRan {
			t.Fatalf("sched=%v: Init must run even for crashed nodes", sched)
		}
		if got := len(p5.rounds); got != 0 {
			t.Fatalf("sched=%v: node 5 crashed at round 0 but ran %d rounds", sched, got)
		}
		for _, r := range p2.rounds {
			if r >= 4 {
				t.Fatalf("sched=%v: node 2 crashed at round 4 but ran round %d", sched, r)
			}
		}
		if len(p2.rounds) != 4 {
			t.Fatalf("sched=%v: node 2 ran rounds %v, want [0 1 2 3]", sched, p2.rounds)
		}
		m := eng.Metrics()
		if m.Faults.NodesCrashed != 2 {
			t.Fatalf("sched=%v: NodesCrashed = %d, want 2 (duplicate entry must not double-count)", sched, m.Faults.NodesCrashed)
		}
		// Node 3's first neighbor is 2, so it keeps sending into the dead
		// node; those words must drain and be dropped, not wedge the run.
		if m.Faults.WordsDroppedCrash == 0 {
			t.Fatalf("sched=%v: no words dropped toward crashed receivers", sched)
		}
		want := []FaultEvent{
			{Kind: FaultKindCrash, Node: 5, Round: 0},
			{Kind: FaultKindCrash, Node: 2, Round: 4},
		}
		if !reflect.DeepEqual(rec.events, want) {
			t.Fatalf("sched=%v: fault events %+v, want %+v", sched, rec.events, want)
		}
	}
}

// burstSender sends one word at Init and another at round 5, so the
// 0 -> 1 edge activates as two separate bursts.
type burstSender struct{}

func (burstSender) Init(ctx *Context) { ctx.Send(0, 7) }

func (burstSender) Round(ctx *Context, round int, inbox []Delivery) {
	if round == 5 {
		ctx.Send(0, 8)
	}
	if round >= 6 {
		ctx.SetDone()
	}
}

// recvProbe records the round of every word it receives.
type recvProbe struct{ got []int }

func (r *recvProbe) Init(*Context) {}

func (r *recvProbe) Round(ctx *Context, round int, inbox []Delivery) {
	for _, d := range inbox {
		for range d.Words {
			r.got = append(r.got, round)
		}
	}
}

// TestFaultsDelayExactArming pins per-burst arming on a single pinned
// link (0 -> 1, K = 3): a word sent at Init first attempts delivery at
// round 0 and lands at round 3; a second burst sent at round 5 first
// attempts at round 6 and lands at round 9 — the drained edge redraws.
func TestFaultsDelayExactArming(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{graph.NewEdge(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{DelayLinks: []faults.LinkDelay{{From: 0, To: 1, K: 3}}}
	for _, sched := range []Scheduler{SchedulerActivity, SchedulerDense} {
		for _, shards := range []int{0, 2} {
			recv := &recvProbe{}
			eng, err := NewEngine(g, []Node{burstSender{}, recv}, Config{
				Seed: 1, Scheduler: sched, Shards: shards, Faults: plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.Run(20)
			want := []int{3, 9}
			if !reflect.DeepEqual(recv.got, want) {
				t.Fatalf("sched=%v shards=%d: deliveries at rounds %v, want %v", sched, shards, recv.got, want)
			}
			m := eng.Metrics()
			// Each burst defers 3 delivery attempts before its arm round.
			if m.Faults.DelayedDeliveries != 6 {
				t.Fatalf("sched=%v shards=%d: DelayedDeliveries = %d, want 6", sched, shards, m.Faults.DelayedDeliveries)
			}
		}
	}
}

// steadySender sends one word per channel per round for 5 rounds and
// ignores its inbox, so fault-free, all-loss and all-dup runs drive the
// exact same send schedule — making the accounting exactly comparable.
type steadySender struct{}

func (steadySender) Init(*Context) {}

func (steadySender) Round(ctx *Context, round int, inbox []Delivery) {
	if round >= 5 {
		ctx.SetDone()
		return
	}
	for i := range ctx.CommNeighbors() {
		ctx.Send(i, Word(round))
	}
}

// TestFaultsLossDupAccounting pins the extreme rates against a fault-free
// baseline: Loss = 1 delivers nothing and loses every popped word;
// Dup = 1 delivers everything exactly twice. Loss consumes bandwidth
// (queues drain), so both runs still quiesce.
func TestFaultsLossDupAccounting(t *testing.T) {
	g := graph.Ring(8)
	run := func(plan *faults.Plan) Metrics {
		nodes := make([]Node, g.N())
		for v := range nodes {
			nodes[v] = steadySender{}
		}
		eng, err := NewEngine(g, nodes, Config{Seed: 1, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		return eng.Metrics()
	}
	base := run(nil)
	if base.WordsDelivered == 0 {
		t.Fatal("baseline delivered nothing")
	}
	lossy := run(&faults.Plan{Loss: 1})
	if lossy.WordsDelivered != 0 || lossy.MessagesDelivered != 0 {
		t.Fatalf("all-loss run delivered %d words", lossy.WordsDelivered)
	}
	if lossy.Faults.WordsLost != base.WordsDelivered {
		t.Fatalf("WordsLost = %d, want %d (every baseline word)", lossy.Faults.WordsLost, base.WordsDelivered)
	}
	dupy := run(&faults.Plan{Dup: 1})
	if dupy.WordsDelivered != 2*base.WordsDelivered {
		t.Fatalf("all-dup delivered %d words, want %d", dupy.WordsDelivered, 2*base.WordsDelivered)
	}
	if dupy.Faults.WordsDuplicated != base.WordsDelivered {
		t.Fatalf("WordsDuplicated = %d, want %d", dupy.Faults.WordsDuplicated, base.WordsDelivered)
	}
	for v, w := range dupy.PerNodeWordsRecv {
		if w != 2*base.PerNodeWordsRecv[v] {
			t.Fatalf("node %d received %d words under dup, want %d", v, w, 2*base.PerNodeWordsRecv[v])
		}
	}
}

// TestFaultsRejectsInvalidPlan: NewEngine surfaces plan validation
// against the actual graph.
func TestFaultsRejectsInvalidPlan(t *testing.T) {
	g := graph.Ring(4)
	for name, plan := range map[string]*faults.Plan{
		"rate":      {Loss: 1.5},
		"crash-oob": {Crashes: []faults.Crash{{Node: 4, Round: 0}}},
		"link-oob":  {DelayLinks: []faults.LinkDelay{{From: 0, To: 9, K: 1}}},
	} {
		nodes := make([]Node, g.N())
		for v := range nodes {
			nodes[v] = steadySender{}
		}
		if _, err := NewEngine(g, nodes, Config{Seed: 1, Faults: plan}); err == nil {
			t.Fatalf("%s: NewEngine accepted invalid plan", name)
		}
	}
}
