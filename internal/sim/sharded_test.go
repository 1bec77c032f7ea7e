package sim

// Differential tests for the sharded engine: across shard counts, graph
// families and modes, every observable — metrics, outputs,
// final round, hook streams, cancellation prefixes, reuse by Rebind —
// must be bit-identical to the one-shard plan. The chatter machines
// from scheduler_test.go supply the adversarial behavior (random sleeps,
// bursts, SetDone, outputs).

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// fanOutGraph is an input large enough that, under chatter traffic at
// B=1, the sharded delivery, compute and merge phases each move at least
// parallelMinWords words in some round — so with GOMAXPROCS > 1 every
// phase really runs on the worker pool instead of the sequential fallback.
func fanOutGraph() *graph.Graph {
	return graph.Gnp(3000, 8.0/3000, rand.New(rand.NewSource(61)))
}

// requirePool skips a fan-out test where the pool can never run.
func requirePool(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("GOMAXPROCS=1: sharded phases always take the sequential path")
	}
}

// assertPoolRan fails unless eng's worker pool spawned S-1 goroutines for
// its S shards, which it does only on an S-wide fan-out.
func assertPoolRan(t *testing.T, label string, eng *Engine) {
	t.Helper()
	spawned := 0
	if eng.wpool != nil {
		spawned = eng.wpool.spawned
	}
	if eng.nshards < 2 || spawned != eng.nshards-1 {
		t.Fatalf("%s: pool spawned %d workers for %d shards", label, spawned, eng.nshards)
	}
}

// TestShardEquivalenceChatter is the tentpole property test: shard counts
// {1, 2, 4, 7} x {gnp, powerlaw, ring} x {CONGEST, clique, broadcast},
// every combination bit-identical to the unsharded engine, plus one input
// large enough that every sharded phase fans out on the pool. Run under
// -race this also proves the fan-out phases touch only shard-owned state.
func TestShardEquivalenceChatter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := map[string]*graph.Graph{
		"gnp":      graph.Gnp(48, 0.15, rng),
		"powerlaw": graph.BarabasiAlbert(48, 3, rng),
		"ring":     graph.RingWithChords(32, 8, rng),
	}
	check := func(t *testing.T, label string, g *graph.Graph, base Config, shardCounts []int, wantPool bool) {
		t.Helper()
		wm, wout, wround, wrec := runChatter(t, g, base, true)
		for _, shards := range shardCounts {
			cfg := base
			cfg.Shards = shards
			eng, rec := runChatterEngine(t, g, cfg, true)
			m, out, round := eng.Metrics(), eng.Outputs(), eng.Round()
			label := fmt.Sprintf("%s shards=%d", label, shards)
			if round != wround {
				t.Fatalf("%s: rounds %d vs %d", label, round, wround)
			}
			if !reflect.DeepEqual(m, wm) {
				t.Fatalf("%s: metrics diverge\nsharded: %+v\nsingle:  %+v", label, m, wm)
			}
			if !reflect.DeepEqual(out, wout) {
				t.Fatalf("%s: outputs diverge", label)
			}
			if !reflect.DeepEqual(rec, wrec) {
				t.Fatalf("%s: hook streams diverge (%d vs %d rounds)", label, len(rec.rounds), len(wrec.rounds))
			}
			if wantPool {
				assertPoolRan(t, label, eng)
			}
		}
	}
	for gname, g := range graphs {
		for _, mode := range []Mode{ModeCONGEST, ModeClique, ModeBroadcast} {
			check(t, fmt.Sprintf("%s mode=%v", gname, mode), g, Config{Mode: mode, Seed: 77}, []int{1, 2, 4, 7}, false)
		}
	}
	t.Run("pool", func(t *testing.T) {
		requirePool(t)
		check(t, "gnp3000", fanOutGraph(), Config{Seed: 77, BandwidthWords: 1}, []int{2, 4, 7}, true)
	})
}

// TestSingleShardNeverPools pins that a one-shard plan never builds the
// worker pool or its cleanup: on the input where every phase of a sharded
// run fans out, engines at Shards 0 and 1 run on the caller's goroutine
// alone.
func TestSingleShardNeverPools(t *testing.T) {
	requirePool(t)
	g := fanOutGraph()
	for _, shards := range []int{0, 1} {
		eng, _ := runChatterEngine(t, g, Config{Seed: 77, BandwidthWords: 1, Shards: shards}, false)
		if eng.wpool != nil || eng.nshards != 1 {
			t.Fatalf("shards=%d: %d shards, pool built: %v", shards, eng.nshards, eng.wpool != nil)
		}
	}
}

// TestShardEquivalenceDense cross-checks the sharded engine against the
// dense reference (shards require the activity scheduler, so this
// transitively pins sharded == dense through the scheduler equivalence).
func TestShardEquivalenceDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.Gnp(40, 0.2, rng)
	dm, dout, dround, _ := runChatter(t, g, Config{Seed: 5, Scheduler: SchedulerDense}, false)
	sm, sout, sround, _ := runChatter(t, g, Config{Seed: 5, Shards: 4}, false)
	if sround != dround {
		t.Fatalf("rounds %d vs %d", sround, dround)
	}
	sm.FastForwardedRounds = 0
	if !reflect.DeepEqual(sm, dm) {
		t.Fatalf("metrics diverge\nsharded: %+v\ndense:   %+v", sm, dm)
	}
	if !reflect.DeepEqual(sout, dout) {
		t.Fatal("outputs diverge")
	}
}

// TestShardCancellationPrefix pins the cancellation contract for the sharded
// engine: a run cancelled after k rounds equals the first k rounds of the
// uncancelled run, for the same seed, at every shard count.
func TestShardCancellationPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Gnp(48, 0.15, rng)
	mk := func() []Node {
		nodes := make([]Node, g.N())
		for v := range nodes {
			nodes[v] = &chatterNode{}
		}
		return nodes
	}
	for _, shards := range []int{1, 4} {
		cfg := Config{Seed: 23, Shards: shards}
		full, err := NewEngine(g, mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &hookRec{}
		full.SetHooks(rec.hooks())
		full.Run(20)

		part, err := NewEngine(g, mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		prec := &hookRec{}
		part.SetHooks(prec.hooks())
		part.Run(8)
		if part.Round() != 8 {
			t.Fatalf("shards=%d: partial run at round %d", shards, part.Round())
		}
		if !reflect.DeepEqual(prec.rounds, rec.rounds[:len(prec.rounds)]) {
			t.Fatalf("shards=%d: hook stream is not a prefix", shards)
		}
		if !reflect.DeepEqual(prec.tris, rec.tris[:len(prec.tris)]) {
			t.Fatalf("shards=%d: triangle stream is not a prefix", shards)
		}
	}
	// Context cancellation stops cleanly at a round boundary.
	cfg := Config{Seed: 23, Shards: 4}
	eng, err := NewEngine(g, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.RunContext(ctx, 50); err == nil {
		t.Fatal("cancelled run returned nil")
	}
}

// TestShardResetRebind checks that clearRun and Rebind fully restore the
// per-shard state: a reused sharded engine matches fresh engines, including
// across a topology change that recuts the shard plan.
func TestShardResetRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g1 := graph.Gnp(40, 0.2, rng)
	g2 := graph.BarabasiAlbert(40, 4, rng)
	mk := func(n int) []Node {
		nodes := make([]Node, n)
		for v := range nodes {
			nodes[v] = &chatterNode{}
		}
		return nodes
	}
	cfg := Config{Seed: 1, Shards: 3}
	fresh := func(g *graph.Graph, seed int64) (Metrics, [][]graph.Triangle) {
		c := cfg
		c.Seed = seed
		eng, err := NewEngine(g, mk(g.N()), c)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		return eng.Metrics(), eng.Outputs()
	}

	eng, err := NewEngine(g1, mk(g1.N()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Rebind(eng.Input(), mk(g1.N()), Config{Seed: 2, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	wm, wo := fresh(g1, 2)
	if gm, got := eng.Metrics(), eng.Outputs(); !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(got, wo) {
		t.Fatal("reset sharded engine diverges from fresh engine")
	}
	if err := eng.Rebind(g2, mk(g2.N()), Config{Seed: 3, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	wm, wo = fresh(g2, 3)
	if gm, got := eng.Metrics(), eng.Outputs(); !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(got, wo) {
		t.Fatal("rebound sharded engine diverges from fresh engine")
	}
}

// TestShardConfigNormalization pins the Shards defaulting rules: negatives
// clamp to 0, the dense scheduler ignores sharding entirely, and counts
// above MaxShards clamp to it — also in an engine built (not run) with an
// absurd count, whose plan and staging stay within the bound.
func TestShardConfigNormalization(t *testing.T) {
	if c := (Config{Shards: -3}).Normalized(); c.Shards != 0 {
		t.Fatalf("Shards = %d, want 0", c.Shards)
	}
	if c := (Config{Shards: 4, Scheduler: SchedulerDense}).Normalized(); c.Shards != 0 {
		t.Fatalf("dense Shards = %d, want 0", c.Shards)
	}
	if c := (Config{Shards: 4}).Normalized(); c.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", c.Shards)
	}
	if c := (Config{Shards: 1 << 20}).Normalized(); c.Shards != MaxShards {
		t.Fatalf("Shards = %d, want MaxShards (%d)", c.Shards, MaxShards)
	}
	g := graph.Gnp(300, 0.05, rand.New(rand.NewSource(3)))
	eng, err := NewEngine(g, make([]Node, g.N()), Config{Shards: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if eng.nshards < 2 || eng.nshards > MaxShards || len(eng.staging) > MaxShards*MaxShards {
		t.Fatalf("Shards 1<<20 on %d nodes: %d shards, %d staging lists", g.N(), eng.nshards, len(eng.staging))
	}
}

// TestRecutMatchesFresh drives one engine the way a pooled engine is
// driven between jobs: through shard counts 0, 4, 1, 7, 4 and bandwidths
// 2, 1, 5, 2, 1, rebound to its own graph or to a second one, with
// one run resumed from a checkpoint written at another shard count. Each
// run must match a fresh engine built for it bit for bit — metrics,
// outputs, rounds and hook stream (for the resumed run, the suffix of the
// fresh stream from the checkpoint on). The "pool" subtest re-cuts an
// engine on the fan-out input, so the re-cut plans really run on the
// worker pool.
func TestRecutMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g1 := graph.Gnp(60, 0.12, rng)
	g2 := graph.BarabasiAlbert(60, 3, rng)
	type step struct {
		g          *graph.Graph
		shards, b  int
		ckptShards int // >= 0: resume from a checkpoint written at this count
	}
	drive := func(t *testing.T, steps []step, wantPool bool) {
		chatter := func(n int) []Node {
			nodes := make([]Node, n)
			for v := range nodes {
				nodes[v] = &chatterNode{}
			}
			return nodes
		}
		var eng *Engine
		for i, st := range steps {
			label := fmt.Sprintf("step %d (shards=%d B=%d)", i, st.shards, st.b)
			cfg := Config{Seed: int64(50 + i), Shards: st.shards, BandwidthWords: st.b}
			want, wrec := runChatterEngine(t, st.g, cfg, true)
			nodes := chatter(st.g.N())
			var err error
			switch {
			case eng == nil:
				eng, err = NewEngine(st.g, nodes, cfg)
			case eng.Input() == st.g:
				err = eng.Rebind(eng.Input(), nodes, cfg)
			default:
				err = eng.Rebind(st.g, nodes, cfg)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			from := 0
			if st.ckptShards >= 0 {
				src := cfg
				src.Shards = st.ckptShards
				writer, err := NewEngine(st.g, chatter(st.g.N()), src)
				if err != nil {
					t.Fatal(err)
				}
				from = 6
				writer.Run(from)
				payload, err := writer.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Restore(payload); err != nil {
					t.Fatalf("%s: restore: %v", label, err)
				}
			}
			rec := &hookRec{}
			eng.SetHooks(rec.hooks())
			if err := eng.RunUntilQuiescent(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(eng.shardBounds, want.shardBounds) {
				t.Fatalf("%s: shard plan %v, fresh engine cut %v", label, eng.shardBounds, want.shardBounds)
			}
			for v, ctx := range eng.ctxs {
				if ctx.Bandwidth() != want.ctxs[v].Bandwidth() {
					t.Fatalf("%s: node %d sees bandwidth %d, fresh engine %d", label, v, ctx.Bandwidth(), want.ctxs[v].Bandwidth())
				}
			}
			if eng.Round() != want.Round() {
				t.Fatalf("%s: rounds %d vs %d", label, eng.Round(), want.Round())
			}
			if !reflect.DeepEqual(eng.Metrics(), want.Metrics()) {
				t.Fatalf("%s: metrics diverge\npooled: %+v\nfresh:  %+v", label, eng.Metrics(), want.Metrics())
			}
			if !reflect.DeepEqual(eng.Outputs(), want.Outputs()) {
				t.Fatalf("%s: outputs diverge", label)
			}
			if !reflect.DeepEqual(rec.rounds, wrec.rounds[from:]) {
				t.Fatalf("%s: round hook streams diverge", label)
			}
			if from == 0 && !reflect.DeepEqual(rec, wrec) {
				t.Fatalf("%s: hook streams diverge", label)
			}
			if wantPool && st.shards > 1 {
				assertPoolRan(t, label, eng)
			}
		}
	}
	drive(t, []step{
		{g1, 0, 2, -1},
		{g1, 4, 1, -1},
		{g2, 1, 5, -1},
		{g2, 7, 2, 3},
		{g1, 4, 1, -1},
	}, false)
	t.Run("pool", func(t *testing.T) {
		requirePool(t)
		g := fanOutGraph()
		drive(t, []step{{g, 0, 1, -1}, {g, 4, 1, -1}, {g, 1, 1, -1}, {g, 7, 1, 4}}, true)
	})
}
