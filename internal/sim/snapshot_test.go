package sim

// Engine snapshot/restore tests: cut-and-resume equality against
// straight-through runs across modes, schedulers and shard counts
// (including restoring at a different shard count than the snapshot
// was taken at), snapshot byte-stability through a restore cycle, and the
// fail-closed rejection matrix for mismatched or corrupted payloads.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// Snapshotter support for the chatter machines defined in
// scheduler_test.go: doneAt is their only mutable state (the RNG stream
// position is engine-owned).
func (c *chatterNode) SnapshotState(w *SnapWriter) error { w.Int(c.doneAt); return nil }
func (c *chatterNode) RestoreState(r *SnapReader) error  { c.doneAt = r.Int(); return nil }

func (c *bcastChatterNode) SnapshotState(w *SnapWriter) error { w.Int(c.doneAt); return nil }
func (c *bcastChatterNode) RestoreState(r *SnapReader) error  { c.doneAt = r.Int(); return nil }

func snapNodes(n int, mode Mode) []Node {
	nodes := make([]Node, n)
	for v := range nodes {
		if mode == ModeBroadcast {
			nodes[v] = &bcastChatterNode{}
		} else {
			nodes[v] = &chatterNode{}
		}
	}
	return nodes
}

// snapObs is everything observable about a finished run.
type snapObs struct {
	metrics Metrics
	outputs [][]graph.Triangle
	round   int
	rec     *hookRec
}

// runStraight runs the chatter machines to quiescence in one go.
func runStraight(t *testing.T, g *graph.Graph, cfg Config) snapObs {
	t.Helper()
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &hookRec{}
	eng.SetHooks(rec.hooks())
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return snapObs{eng.Metrics(), eng.Outputs(), eng.Round(), rec}
}

// runCut runs k rounds under cfg, snapshots, restores into a fresh engine
// built under cfg2 (same graph/seed/mode/scheduler; shards may differ), and continues to quiescence. The hook recorder spans both
// halves, so the returned stream is the stitched prefix+suffix.
func runCut(t *testing.T, g *graph.Graph, cfg, cfg2 Config, k int) snapObs {
	t.Helper()
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &hookRec{}
	eng.SetHooks(rec.hooks())
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
	if got := eng2.Round(); got != k {
		t.Fatalf("restored round = %d, want %d", got, k)
	}
	eng2.SetHooks(rec.hooks())
	if err := eng2.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return snapObs{eng2.Metrics(), eng2.Outputs(), eng2.Round(), rec}
}

func assertSameRun(t *testing.T, label string, want, got snapObs) {
	t.Helper()
	if want.round != got.round {
		t.Fatalf("%s: rounds %d vs %d", label, want.round, got.round)
	}
	if !reflect.DeepEqual(want.metrics, got.metrics) {
		t.Fatalf("%s: metrics diverge\nwant: %+v\ngot:  %+v", label, want.metrics, got.metrics)
	}
	if !reflect.DeepEqual(want.outputs, got.outputs) {
		t.Fatalf("%s: outputs diverge", label)
	}
	if !reflect.DeepEqual(want.rec, got.rec) {
		t.Fatalf("%s: hook streams diverge (%d vs %d round deltas, %d vs %d triangles)",
			label, len(want.rec.rounds), len(got.rec.rounds), len(want.rec.tris), len(got.rec.tris))
	}
}

// TestSnapshotCutAndResume is the engine-level correctness spine: for cut
// points spread over the run, snapshotting at k and restoring into a fresh
// engine — possibly with a different shard count — then
// running to quiescence reproduces the straight-through run exactly:
// metrics, outputs, final round, and the full hook stream.
func TestSnapshotCutAndResume(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.Gnp(48, 0.15, rng)
	for _, mode := range []Mode{ModeCONGEST, ModeClique, ModeBroadcast} {
		for _, sched := range []Scheduler{SchedulerActivity, SchedulerDense} {
			cfg := Config{Mode: mode, Scheduler: sched, Seed: 77}
			full := runStraight(t, g, cfg)
			total := full.round
			if total < 10 {
				t.Fatalf("mode=%v sched=%v: run too short (%d rounds) to cut", mode, sched, total)
			}
			for _, k := range []int{0, 1, total / 3, total / 2, total - 2} {
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
					got := runCut(t, g, cfg, cfg2, k)
					label := fmt.Sprintf("mode=%v sched=%v k=%d %s", mode, sched, k, alt.name)
					assertSameRun(t, label, full, got)
				}
			}
		}
	}
}

// TestSnapshotShardedCut takes the snapshot ON a sharded engine (the
// staging-matrix barrier point) and restores into a single-shard one, and
// vice versa — proving the payload is shard-agnostic in both directions.
func TestSnapshotShardedCut(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.Gnp(64, 0.12, rng)
	cfg1 := Config{Seed: 5, Shards: 4}
	cfg2 := Config{Seed: 5}
	full := runStraight(t, g, cfg2)
	for _, k := range []int{1, full.round / 2} {
		assertSameRun(t, "sharded->single", full, runCut(t, g, cfg1, cfg2, k))
		assertSameRun(t, "single->sharded", full, runCut(t, g, cfg2, cfg1, k))
	}
}

// TestSnapshotBandwidthLimit pins the header's 32-bit bandwidth field: at
// B = 2^32-1 a cut-and-resumed run matches the straight run, and at
// B = 2^32 Snapshot fails rather than write a payload whose bandwidth no
// engine matches on restore.
func TestSnapshotBandwidthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Gnp(32, 0.2, rng)
	cfg := Config{Seed: 8, BandwidthWords: 1<<32 - 1}
	assertSameRun(t, "B=2^32-1", runStraight(t, g, cfg), runCut(t, g, cfg, cfg, 2))
	cfg.BandwidthWords = 1 << 32
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if _, err := eng.Snapshot(); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("snapshot at B=2^32: got %v, want ErrSnapshotState", err)
	}
}

// TestSnapshotStable pins re-serialization: restoring a snapshot and
// immediately snapshotting again yields byte-identical payloads, the
// property the checkpoint fuzzer builds on.
func TestSnapshotStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Gnp(40, 0.2, rng)
	cfg := Config{Seed: 3}
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetHooks((&hookRec{}).hooks())
	eng.Run(6)
	p1, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(p1); err != nil {
		t.Fatal(err)
	}
	p2, err := eng2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatalf("snapshot not stable through restore: %d vs %d bytes", len(p1), len(p2))
	}
}

// TestSnapshotRejects is the fail-closed matrix: mismatched configs,
// truncations at every prefix length, trailing garbage, a flipped byte and
// a payload from the version-2 layout must all error out — never restore
// successfully into a wrong state.
func TestSnapshotRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := graph.Gnp(24, 0.25, rng)
	cfg := Config{Seed: 9}
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetHooks((&hookRec{}).hooks())
	eng.Run(5)
	payload, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(c Config) *Engine {
		e2, err := NewEngine(g, snapNodes(g.N(), c.Mode), c)
		if err != nil {
			t.Fatal(err)
		}
		return e2
	}

	// Config mismatches.
	for name, c := range map[string]Config{
		"seed":      {Seed: 10},
		"scheduler": {Seed: 9, Scheduler: SchedulerDense},
		"bandwidth": {Seed: 9, BandwidthWords: 3},
	} {
		if err := fresh(c).Restore(payload); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("%s mismatch: got %v, want ErrSnapshotMismatch", name, err)
		}
	}
	g2 := graph.Gnp(25, 0.25, rng)
	e2, err := NewEngine(g2, snapNodes(g2.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(payload); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("graph mismatch: got %v, want ErrSnapshotMismatch", err)
	}

	// Restore into a started engine.
	running := fresh(cfg)
	running.Run(1)
	if err := running.Restore(payload); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("restore into started engine: got %v, want ErrSnapshotState", err)
	}

	// Snapshot before start.
	if _, err := fresh(cfg).Snapshot(); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("snapshot before start: got %v, want ErrSnapshotState", err)
	}

	// Every truncation must fail (a fresh engine per attempt: a failed
	// restore leaves the engine undefined).
	for cut := 0; cut < len(payload); cut += 7 {
		if err := fresh(cfg).Restore(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes restored successfully", cut)
		}
	}
	// Trailing garbage.
	if err := fresh(cfg).Restore(append(append([]byte{}, payload...), 0)); err == nil {
		t.Fatal("trailing byte restored successfully")
	}
	// Version flip.
	bad := append([]byte{}, payload...)
	bad[0] ^= 0xFF
	if err := fresh(cfg).Restore(bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("version corruption: got %v, want ErrSnapshotMismatch", err)
	}
	// Version 2 recorded math/rand stream positions, which mean nothing to
	// the counter stream: refused, never resumed on the wrong coins.
	binary.LittleEndian.PutUint32(bad, 2)
	if err := fresh(cfg).Restore(bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("version-2 payload: got %v, want ErrSnapshotMismatch", err)
	}
}

// TestFailedRestoreThenReset: a restore that fails partway — here at
// every truncation of a payload taken while receivers have several
// channels backlogged — leaves the engine unusable but not poisoned:
// a rebind to its graph, then a normal run, reproduces a fresh engine's run
// exactly, unsharded and at 4 shards. A pooled engine whose checkpoint
// resume failed is rewound and reused this way.
func TestFailedRestoreThenReset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.Gnp(24, 0.3, rng)
	burst := func() []Node {
		nodes := make([]Node, g.N())
		for v := range nodes {
			nodes[v] = &burstNode{}
		}
		return nodes
	}
	// run runs eng over nodes to quiescence and returns what it observed,
	// the node digests included.
	run := func(eng *Engine, nodes []Node) (snapObs, []uint64) {
		t.Helper()
		rec := &hookRec{}
		eng.SetHooks(rec.hooks())
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		var digests []uint64
		for _, nd := range nodes {
			digests = append(digests, nd.(*burstNode).digest)
		}
		return snapObs{eng.Metrics(), eng.Outputs(), eng.Round(), rec}, digests
	}
	for _, shards := range []int{0, 4} {
		cfg := Config{Seed: 9, BandwidthWords: 1, Shards: shards, MaxRounds: 1 << 12}
		nodes := burst()
		eng, err := NewEngine(g, nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantDigests := run(eng, nodes)
		src, err := NewEngine(g, burst(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		src.Run(5)
		backlogged := 0
		for _, k := range src.nactive {
			if k > 1 {
				backlogged++
			}
		}
		if backlogged == 0 {
			t.Fatal("no receiver has two active channels at the cut; no truncation falls between them")
		}
		payload, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut += 3 {
			if err := eng.Rebind(eng.Input(), burst(), cfg); err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(payload[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes restored successfully", cut)
			}
			nodes := burst()
			if err := eng.Rebind(eng.Input(), nodes, cfg); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("shards=%d, run after a restore failed at %d bytes", shards, cut)
			got, digests := run(eng, nodes)
			assertSameRun(t, label, want, got)
			if !reflect.DeepEqual(digests, wantDigests) {
				t.Fatalf("%s: node states diverge", label)
			}
		}
	}
}

// TestRestoreRepositionsInConstantTime: a node 2^62 draws into its stream
// snapshots and restores at once — the snapshot records the draw counter
// and Restore stores it, with no per-draw replay — and the restored node's
// next draw is the stream's draw number 2^62+1.
func TestRestoreRepositionsInConstantTime(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.Gnp(12, 0.3, rng)
	cfg := Config{Seed: 9}
	eng, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(1)
	draws := uint64(1 << 62)
	eng.ctxs[0].src.draws = draws
	payload, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(g, snapNodes(g.N(), cfg.Mode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(payload); err != nil {
		t.Fatal(err)
	}
	want := mix64(uint64(nodeSeed(cfg.Seed, 0)) + (draws+1)*golden)
	if got := eng2.ctxs[0].RNG().Uint64(); got != want {
		t.Fatalf("restored node's next draw = %#x, want draw 2^62+1 = %#x", got, want)
	}
}

// TestSnapshotRequiresSnapshotter: engines over nodes without Snapshotter
// support fail with the typed error, naming snapshot and restore both.
func TestSnapshotRequiresSnapshotter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.Gnp(8, 0.5, rng)
	nodes := make([]Node, g.N())
	for v := range nodes {
		nodes[v] = foreverNode{}
	}
	eng, err := NewEngine(g, nodes, Config{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if _, err := eng.Snapshot(); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("snapshot: got %v, want ErrNotSnapshottable", err)
	}
	eng2, err := NewEngine(g, nodes, Config{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(nil); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("restore: got %v, want ErrNotSnapshottable", err)
	}
}
