package core_test

// Differential property tests for the engine's activity-driven scheduler:
// every algorithm in the zoo, in every communication mode, unsharded and
// sharded, must be bit-identical under SchedulerActivity (ready set +
// wake wheel + idle fast-forward) and SchedulerDense (the retained
// reference branch that scans all n nodes every round) — outputs, union,
// metrics, the full observation stream, and cancellation prefixes. The
// only permitted divergence is the FastForwardedRounds provenance counter,
// which is zeroed before comparison.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// stream records the full observation stream of a run.
type stream struct {
	segs    []core.SegmentInfo
	rounds  []sim.RoundDelta
	nodes   []int
	tris    []graph.Triangle
	onRound func(round int)
}

func (s *stream) OnSegment(info core.SegmentInfo) { s.segs = append(s.segs, info) }
func (s *stream) OnRound(round int, d sim.RoundDelta) {
	s.rounds = append(s.rounds, d)
	if s.onRound != nil {
		s.onRound(round)
	}
}
func (s *stream) OnTriangle(node int, t graph.Triangle) {
	s.nodes = append(s.nodes, node)
	s.tris = append(s.tris, t)
}

func (s *stream) equal(o *stream) bool {
	return reflect.DeepEqual(s.segs, o.segs) && reflect.DeepEqual(s.rounds, o.rounds) &&
		reflect.DeepEqual(s.nodes, o.nodes) && reflect.DeepEqual(s.tris, o.tris)
}

// normalize strips the scheduler-provenance counter, the single field the
// two schedulers may legitimately disagree on.
func normalize(r core.Result) core.Result {
	r.Metrics.FastForwardedRounds = 0
	r.Meta.FastForwardedRounds = 0
	return r
}

// zooRun executes one algorithm under the given config with an observer.
type zooRun func(ctx context.Context, g *graph.Graph, cfg sim.Config, obs core.Observer) (core.Result, error)

// zoo is the algorithm matrix: every paper algorithm plus the baselines,
// covering CONGEST, clique and broadcast modes and both single-schedule
// and multi-segment (sequence) plans.
func zoo(t *testing.T, g *graph.Graph) map[string]zooRun {
	t.Helper()
	p := core.Params{N: g.N(), Eps: 0.5, B: 2}
	s1, mk1 := core.NewA1(p)
	s2, mk2, err := core.NewA2(p)
	if err != nil {
		t.Fatal(err)
	}
	s3, mk3 := core.NewA3(p)
	sx, mkx := core.NewAXR(p, core.AXROptions{})
	dol, mkDol, err := baseline.NewDolev(g, 2, baseline.DolevCubeRoot)
	if err != nil {
		t.Fatal(err)
	}
	two, mkTwo := baseline.NewTwoHop(2, g.MaxDegree())
	tester, mkTester := core.NewPropertyTester(g.N(), 2, 8)
	finder, err := core.NewFinder(g.N(), 2, core.FinderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lister, err := core.NewLister(g.N(), 2, core.ListerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single := func(sched *sim.Schedule, mk func(id int) sim.Node, mode sim.Mode) zooRun {
		return func(ctx context.Context, g *graph.Graph, cfg sim.Config, obs core.Observer) (core.Result, error) {
			cfg.Mode = mode
			return core.NewEngineCache().Run(ctx, g, core.Single(sched, mk), cfg, obs, nil)
		}
	}
	sequence := func(segs []core.Segment) zooRun {
		return func(ctx context.Context, g *graph.Graph, cfg sim.Config, obs core.Observer) (core.Result, error) {
			return core.NewEngineCache().Run(ctx, g, segs, cfg, obs, nil)
		}
	}
	return map[string]zooRun{
		"a1":           single(s1, mk1, sim.ModeCONGEST),
		"a2":           single(s2, mk2, sim.ModeCONGEST),
		"a3":           single(s3, mk3, sim.ModeCONGEST),
		"axr":          single(sx, mkx, sim.ModeCONGEST),
		"dolev-clique": single(dol, mkDol, sim.ModeClique),
		"twohop-bcast": single(two, mkTwo, sim.ModeBroadcast),
		"tester":       single(tester, mkTester, sim.ModeCONGEST),
		"finder":       sequence(finder),
		"lister":       sequence(lister),
	}
}

// TestSchedulerEquivalence: for every algorithm, unsharded and at four
// shards (which the dense reference ignores), the activity scheduler's Result and observation stream are bit-identical
// to the dense reference's.
func TestSchedulerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Gnp(40, 0.3, rng)
	for name, run := range zoo(t, g) {
		for _, shards := range []int{0, 4} {
			name, run, shards := name, run, shards
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := sim.Config{Seed: 11, Shards: shards}

				cfg.Scheduler = sim.SchedulerDense
				dObs := &stream{}
				dense, err := run(context.Background(), g, cfg, dObs)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Scheduler = sim.SchedulerActivity
				aObs := &stream{}
				act, err := run(context.Background(), g, cfg, aObs)
				if err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(normalize(dense), normalize(act)) {
					t.Fatalf("shards=%d: activity Result diverges from dense reference", shards)
				}
				if !dObs.equal(aObs) {
					t.Fatalf("shards=%d: observation streams diverge (%d vs %d rounds observed)",
						shards, len(dObs.rounds), len(aObs.rounds))
				}
				if dense.Metrics.FastForwardedRounds != 0 {
					t.Fatal("dense reference reported fast-forwarded rounds")
				}
			})
		}
	}
}

// TestSchedulerEquivalenceUnobserved re-runs the matrix without observers:
// this is the path where the activity scheduler fast-forwards idle gaps in
// O(1) jumps instead of emitting per-round hooks, and the materialized
// Results must still match.
func TestSchedulerEquivalenceUnobserved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(36, 0.25, rng)
	for name, run := range zoo(t, g) {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.Config{Seed: 3, Scheduler: sim.SchedulerDense}
			dense, err := run(context.Background(), g, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = sim.SchedulerActivity
			act, err := run(context.Background(), g, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalize(dense), normalize(act)) {
				t.Fatal("activity Result diverges from dense reference")
			}
		})
	}
}

// TestSchedulerCancellationPrefix: a run cancelled at round k yields the
// same deterministic prefix under both schedulers — the idle fast path
// must preserve every round-boundary cancellation point when observed.
func TestSchedulerCancellationPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(32, 0.3, rng)
	finder, err := core.NewFinder(g.N(), 2, core.FinderOptions{})
	if err != nil {
		t.Fatal(err)
	}

	runAt := func(sched sim.Scheduler, cut int) (core.Result, *stream) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obs := &stream{onRound: func(round int) {
			if round == cut {
				cancel()
			}
		}}
		cfg := sim.Config{Seed: 5, Scheduler: sched}
		res, err := core.NewEngineCache().Run(ctx, g, finder, cfg, obs, nil)
		if cut >= 0 && !errors.Is(err, context.Canceled) {
			t.Fatalf("cut %d: err %v", cut, err)
		}
		return res, obs
	}

	full, _ := runAt(sim.SchedulerActivity, -1)
	total := full.Meta.ExecutedRounds
	if total < 12 {
		t.Fatalf("need a longer run to cut (%d rounds)", total)
	}
	for _, cut := range []int{0, 1, total / 3, total - 2} {
		dRes, dObs := runAt(sim.SchedulerDense, cut)
		aRes, aObs := runAt(sim.SchedulerActivity, cut)
		if got := aRes.Meta.ExecutedRounds; got != cut+1 {
			t.Fatalf("cut %d: activity executed %d rounds, want %d", cut, got, cut+1)
		}
		if !reflect.DeepEqual(normalize(dRes), normalize(aRes)) {
			t.Fatalf("cut %d: cancelled activity Result diverges from dense", cut)
		}
		if !dObs.equal(aObs) {
			t.Fatalf("cut %d: cancelled observation streams diverge", cut)
		}
	}
}
