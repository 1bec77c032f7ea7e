package sim

// Differential stress tests for the activity-driven scheduler at the
// engine level: randomized state machines that sleep, send, finish and
// revive on private randomness, compared bit-for-bit against the dense
// reference across graph families, modes and shard counts — plus
// the fast-forward accounting, the quiescence counter and the wake-wheel
// unit behavior.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// chatterNode is a randomized CONGEST state machine exercising every
// scheduler-relevant behavior: random sleeps (bucketed wake-wheel),
// random unicast bursts (ready set), SetDone mid-run (notDone counter),
// deliveries to done nodes, and occasional outputs (triangle hook). All
// randomness comes from the node's private stream, so a run is fully
// determined by the engine seed.
type chatterNode struct {
	doneAt int
}

func (c *chatterNode) Init(ctx *Context) {
	r := ctx.RNG()
	c.doneAt = 4 + r.Intn(40)
	if r.Intn(4) == 0 {
		ctx.SleepUntil(1 + r.Intn(6))
	}
}

func (c *chatterNode) Round(ctx *Context, round int, inbox []Delivery) {
	r := ctx.RNG()
	if round >= c.doneAt {
		ctx.SetDone()
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	if d := ctx.CommDegree(); d > 0 && r.Intn(3) == 0 {
		nbr := r.Intn(d)
		ctx.Send(nbr, Word(round), Word(ctx.ID()))
	}
	if r.Intn(4) == 0 {
		a := r.Intn(ctx.N())
		ctx.Output(graph.Triangle{A: a, B: a + 1, C: a + 2})
	}
	switch r.Intn(3) {
	case 0:
		ctx.SleepUntil(round + 2 + r.Intn(12))
	case 1:
		ctx.SleepUntil(round + 1)
	}
}

// bcastChatterNode is the broadcast-mode variant (unicast is illegal
// there).
type bcastChatterNode struct {
	doneAt int
}

func (c *bcastChatterNode) Init(ctx *Context) {
	c.doneAt = 4 + ctx.RNG().Intn(30)
}

func (c *bcastChatterNode) Round(ctx *Context, round int, inbox []Delivery) {
	r := ctx.RNG()
	if round >= c.doneAt {
		ctx.SetDone()
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	if r.Intn(3) == 0 {
		ctx.Broadcast(Word(round), Word(ctx.ID()))
	}
	if r.Intn(3) == 0 {
		ctx.SleepUntil(round + 2 + r.Intn(8))
	}
}

// hookRec records the engine's raw hook stream.
type hookRec struct {
	rounds []RoundDelta
	nodes  []int
	tris   []graph.Triangle
}

func (h *hookRec) hooks() Hooks {
	return Hooks{
		Round:    func(round int, d RoundDelta) { h.rounds = append(h.rounds, d) },
		Triangle: func(node int, t graph.Triangle) { h.nodes = append(h.nodes, node); h.tris = append(h.tris, t) },
	}
}

// runChatter runs the chatter machines to quiescence under one config and
// returns everything observable.
func runChatter(t *testing.T, g *graph.Graph, cfg Config, observe bool) (Metrics, [][]graph.Triangle, int, *hookRec) {
	t.Helper()
	eng, rec := runChatterEngine(t, g, cfg, observe)
	return eng.Metrics(), eng.Outputs(), eng.Round(), rec
}

// runChatterEngine is runChatter returning the finished engine itself.
func runChatterEngine(t *testing.T, g *graph.Graph, cfg Config, observe bool) (*Engine, *hookRec) {
	t.Helper()
	n := g.N()
	nodes := make([]Node, n)
	for v := range nodes {
		if cfg.Mode == ModeBroadcast {
			nodes[v] = &bcastChatterNode{}
		} else {
			nodes[v] = &chatterNode{}
		}
	}
	eng, err := NewEngine(g, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &hookRec{}
	if observe {
		eng.SetHooks(rec.hooks())
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return eng, rec
}

// TestActivityMatchesDenseChatter is the engine-level differential
// property: across graph families, modes, shard counts and observation, the
// activity scheduler's metrics, outputs, final round and hook stream are
// identical to the dense reference's.
func TestActivityMatchesDenseChatter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := map[string]*graph.Graph{
		"gnp":      graph.Gnp(48, 0.15, rng),
		"powerlaw": graph.BarabasiAlbert(48, 3, rng),
		"ring":     graph.RingWithChords(32, 8, rng),
	}
	for gname, g := range graphs {
		for _, mode := range []Mode{ModeCONGEST, ModeClique, ModeBroadcast} {
			for _, shards := range []int{0, 4} {
				for _, observe := range []bool{false, true} {
					cfg := Config{Mode: mode, Seed: 77, Shards: shards}

					cfg.Scheduler = SchedulerDense
					dm, dout, dround, drec := runChatter(t, g, cfg, observe)
					cfg.Scheduler = SchedulerActivity
					am, aout, around, arec := runChatter(t, g, cfg, observe)

					label := gname
					if dround != around {
						t.Fatalf("%s mode=%v shards=%d obs=%v: rounds %d vs %d", label, mode, shards, observe, dround, around)
					}
					am.FastForwardedRounds = 0
					if !reflect.DeepEqual(dm, am) {
						t.Fatalf("%s mode=%v shards=%d obs=%v: metrics diverge\ndense: %+v\nact:   %+v", label, mode, shards, observe, dm, am)
					}
					if !reflect.DeepEqual(dout, aout) {
						t.Fatalf("%s mode=%v shards=%d obs=%v: outputs diverge", label, mode, shards, observe)
					}
					if !reflect.DeepEqual(drec, arec) {
						t.Fatalf("%s mode=%v shards=%d obs=%v: hook streams diverge (%d vs %d rounds)",
							label, mode, shards, observe, len(drec.rounds), len(arec.rounds))
					}
				}
			}
		}
	}
}

// sleeper sleeps in fixed phases without ever finishing: beacons broadcast
// at phase boundaries, everyone else waits for deliveries.
type sleeper struct {
	period int
	beacon bool
}

func (s sleeper) Init(ctx *Context) {
	if !s.beacon {
		ctx.SleepUntil(math.MaxInt32)
	}
}

func (s sleeper) Round(ctx *Context, round int, inbox []Delivery) {
	if !s.beacon {
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	if round%s.period == 0 {
		ctx.Broadcast(Word(ctx.ID()))
	}
	ctx.SleepUntil(round - round%s.period + s.period)
}

// TestFastForwardAccounting pins the fast-forward observability contract:
// Run(k) lands on exactly k rounds with the idle gap recorded in
// FastForwardedRounds, identical metrics with and without a Round hook,
// and a hook stream that still carries one delta per round.
func TestFastForwardAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.Gnp(64, 0.1, rng)
	mk := func() []Node {
		nodes := make([]Node, g.N())
		for v := range nodes {
			nodes[v] = sleeper{period: 32, beacon: v < 2}
		}
		return nodes
	}
	const rounds = 321

	eng, err := NewEngine(g, mk(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(rounds)
	m := eng.Metrics()
	if m.Rounds != rounds || eng.Round() != rounds {
		t.Fatalf("Rounds = %d/%d, want %d", m.Rounds, eng.Round(), rounds)
	}
	if m.FastForwardedRounds == 0 {
		t.Fatal("idle phases were not fast-forwarded")
	}
	if m.FastForwardedRounds >= rounds {
		t.Fatalf("fast-forwarded %d of %d rounds, but busy rounds exist", m.FastForwardedRounds, rounds)
	}

	// Same run, observed: the hook stream must carry every round, and all
	// model-level metrics must match the unobserved run.
	eng2, err := NewEngine(g, mk(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &hookRec{}
	eng2.SetHooks(rec.hooks())
	eng2.Run(rounds)
	m2 := eng2.Metrics()
	if len(rec.rounds) != rounds {
		t.Fatalf("observed %d round deltas, want %d", len(rec.rounds), rounds)
	}
	m.FastForwardedRounds, m2.FastForwardedRounds = 0, 0
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("observed metrics diverge from unobserved:\n%+v\n%+v", m, m2)
	}

	// The dense reference: same everything, no fast-forward.
	eng3, err := NewEngine(g, mk(), Config{Seed: 1, Scheduler: SchedulerDense})
	if err != nil {
		t.Fatal(err)
	}
	eng3.Run(rounds)
	m3 := eng3.Metrics()
	if m3.FastForwardedRounds != 0 {
		t.Fatal("dense reference fast-forwarded")
	}
	m3.FastForwardedRounds = 0
	if !reflect.DeepEqual(m, m3) {
		t.Fatalf("activity metrics diverge from dense:\n%+v\n%+v", m, m3)
	}
}

// foreverNode sleeps forever without finishing: RunUntilQuiescent must
// fast-forward straight to MaxRounds and report ErrMaxRounds, exactly like
// the dense reference — just without stepping a million idle rounds.
type foreverNode struct{}

func (foreverNode) Init(ctx *Context)                               { ctx.SleepUntil(math.MaxInt32) }
func (foreverNode) Round(ctx *Context, round int, inbox []Delivery) {}

func TestFastForwardToMaxRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := graph.Gnp(16, 0.3, rng)
	nodes := make([]Node, g.N())
	for v := range nodes {
		nodes[v] = foreverNode{}
	}
	eng, err := NewEngine(g, nodes, Config{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != ErrMaxRounds {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	m := eng.Metrics()
	if m.Rounds != 1<<20 || m.FastForwardedRounds != 1<<20 {
		t.Fatalf("Rounds=%d FastForwarded=%d, want both %d", m.Rounds, m.FastForwardedRounds, 1<<20)
	}
}

// TestSchedulerSurvivesResetAndRebind checks that clearRun fully restores
// the activity-scheduler state (notDone counter, wake wheel, fast path):
// reusing one engine across Reset and Rebind yields runs identical to
// fresh engines.
func TestSchedulerSurvivesResetAndRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g1 := graph.Gnp(40, 0.2, rng)
	g2 := graph.Gnp(40, 0.3, rng)
	mk := func(n int) []Node {
		nodes := make([]Node, n)
		for v := range nodes {
			nodes[v] = &chatterNode{}
		}
		return nodes
	}
	fresh := func(g *graph.Graph, seed int64) (Metrics, [][]graph.Triangle) {
		eng, err := NewEngine(g, mk(g.N()), Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		return eng.Metrics(), eng.Outputs()
	}

	eng, err := NewEngine(g1, mk(g1.N()), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	// Reset onto a new seed over the same graph.
	if err := eng.Reset(mk(g1.N()), 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	wm, wo := fresh(g1, 2)
	gm, got := eng.Metrics(), eng.Outputs()
	if !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(got, wo) {
		t.Fatal("reset engine diverges from fresh engine")
	}
	// Rebind onto a different graph.
	if err := eng.Rebind(g2, mk(g2.N()), 3); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	wm, wo = fresh(g2, 3)
	gm, got = eng.Metrics(), eng.Outputs()
	if !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(got, wo) {
		t.Fatal("rebound engine diverges from fresh engine")
	}
}

// TestWakeWheel unit-tests the bucket/heap structure directly.
func TestWakeWheel(t *testing.T) {
	var w wakeWheel
	if _, ok := w.min(); ok {
		t.Fatal("empty wheel has a min")
	}
	w.push(7, 1)
	w.push(3, 2)
	w.push(7, 3)
	w.push(11, 4)
	if r, ok := w.min(); !ok || r != 3 {
		t.Fatalf("min = %d, want 3", r)
	}
	if _, _, ok := w.takeUpTo(2); ok {
		t.Fatal("takeUpTo(2) returned a bucket before any round is due")
	}
	br, b, ok := w.takeUpTo(7)
	if !ok || br != 3 || !reflect.DeepEqual(b, []int32{2}) {
		t.Fatalf("takeUpTo(7) first = (%d, %v, %v)", br, b, ok)
	}
	w.release(b)
	br, b, ok = w.takeUpTo(7)
	if !ok || br != 7 || !reflect.DeepEqual(b, []int32{1, 3}) {
		t.Fatalf("takeUpTo(7) second = (%d, %v, %v)", br, b, ok)
	}
	w.release(b)
	if _, _, ok := w.takeUpTo(7); ok {
		t.Fatal("round 11 popped early")
	}
	if r, ok := w.min(); !ok || r != 11 {
		t.Fatalf("min = %d, want 11", r)
	}
	w.reset()
	if _, ok := w.min(); ok {
		t.Fatal("reset wheel has a min")
	}
	// Free-listed slices are reused.
	w.push(1, 9)
	_, b, _ = w.takeUpTo(1)
	if cap(b) == 0 {
		t.Fatal("bucket slice not recycled")
	}
}
