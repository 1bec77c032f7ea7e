package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestTesterNeverRejectsTriangleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []*graph.Graph{
		graph.RandomBipartite(20, 20, 0.5, rng),
		graph.Ring(30),
		graph.Empty(15),
	}
	for i, g := range cases {
		for seed := int64(0); seed < 5; seed++ {
			found, res, err := NewEngineCache().TestTriangleFreeness(g, 8, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if found {
				t.Fatalf("case %d seed %d: tester claimed a triangle in a triangle-free graph", i, seed)
			}
			if err := VerifyOneSided(g, res); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTesterDetectsFarFromTriangleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(40, 0.5, rng) // constant-fraction far from triangle-free
	found := false
	for seed := int64(0); seed < 4 && !found; seed++ {
		f, res, err := NewEngineCache().TestTriangleFreeness(g, 12, sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOneSided(g, res); err != nil {
			t.Fatal(err)
		}
		found = f
	}
	if !found {
		t.Fatal("tester missed triangles in G(n,1/2) across 4 runs of 12 probes")
	}
}

func TestTesterConstantRounds(t *testing.T) {
	// Round cost must not grow with n: that is the whole point of testing
	// vs finding.
	s64, _ := NewPropertyTester(64, 2, 10)
	s512, _ := NewPropertyTester(512, 2, 10)
	if s64.Total() != s512.Total() {
		t.Fatalf("tester rounds grew with n: %d vs %d", s64.Total(), s512.Total())
	}
	if s64.Total() != 5 { // ceil(10/2)
		t.Fatalf("rounds = %d, want 5", s64.Total())
	}
	sMin, _ := NewPropertyTester(16, 2, 0)
	if sMin.Total() != 1 {
		t.Fatalf("probes clamp failed: %d", sMin.Total())
	}
}

// perProbeTester is the tester's reference: the same draws as
// testerHandler, each probe sent as its own one-word message.
type perProbeTester struct{ testerHandler }

func (h *perProbeTester) Start(ctx *sim.Context, phase int) {
	nbrs := ctx.InputNeighbors()
	if len(nbrs) < 2 {
		return
	}
	for p := 0; p < h.probes; p++ {
		ji := ctx.RNG().Intn(len(nbrs))
		li := ctx.RNG().Intn(len(nbrs))
		if ji == li {
			continue
		}
		ctx.SendTo(int(nbrs[ji]), sim.Word(nbrs[li]))
	}
}

// streamRecorder records a run's observation stream as JSON lines.
type streamRecorder struct{ lines [][]byte }

func (r *streamRecorder) add(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	r.lines = append(r.lines, b)
}

func (r *streamRecorder) OnSegment(info SegmentInfo)            { r.add(info) }
func (r *streamRecorder) OnRound(round int, d sim.RoundDelta)   { r.add([]any{round, d}) }
func (r *streamRecorder) OnTriangle(node int, t graph.Triangle) { r.add([]any{node, t}) }
func (r *streamRecorder) OnFault(ev sim.FaultEvent)             { r.add(ev) }

// TestTesterPerNeighbourSendsMatchPerProbe pins the tester's one message
// per neighbour against the per-probe reference: the Result JSON (every
// node's outputs in order, the metrics and the meta) and the observation
// stream, OnRound deltas included, are byte-identical on gnp and
// Barabási–Albert graphs, at 1, 16 and 256 probes, on one shard and on
// four, with and without a fault plan (crash, loss, duplication, delay).
func TestTesterPerNeighbourSendsMatchPerProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := map[string]*graph.Graph{
		"gnp": graph.Gnp(90, 0.12, rng),
		"ba":  graph.BarabasiAlbert(90, 3, rng),
	}
	plan := &faults.Plan{Seed: 4, Crashes: []faults.Crash{{Node: 5, Round: 1}}, Loss: 0.1, Dup: 0.05, DelayMax: 2}
	for name, g := range graphs {
		for _, probes := range []int{1, 16, 256} {
			for _, shards := range []int{1, 4} {
				for _, fp := range []*faults.Plan{nil, plan} {
					cfg := sim.Config{Seed: int64(probes), BandwidthWords: 3, Shards: shards, Faults: fp}
					sched, mk := NewPropertyTester(g.N(), 3, probes)
					ref := &perProbeTester{testerHandler{probes: probes}}
					refSegs := Single(sched, func(int) PhaseHandler { return ref })
					got, gotStream := testerRun(t, g, Single(sched, mk), cfg)
					want, wantStream := testerRun(t, g, refSegs, cfg)
					label := fmt.Sprintf("%s probes=%d shards=%d faults=%v", name, probes, shards, fp != nil)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: Result JSON differs from the per-probe reference", label)
					}
					if len(gotStream) != len(wantStream) {
						t.Fatalf("%s: %d observed events, reference %d", label, len(gotStream), len(wantStream))
					}
					for i := range gotStream {
						if !bytes.Equal(gotStream[i], wantStream[i]) {
							t.Fatalf("%s: event %d is %s, reference %s", label, i, gotStream[i], wantStream[i])
						}
					}
				}
			}
		}
	}
}

// testerRun runs segs on g on a fresh engine and returns the Result as
// JSON and the observation stream.
func testerRun(t *testing.T, g *graph.Graph, segs []Segment, cfg sim.Config) ([]byte, [][]byte) {
	t.Helper()
	rec := &streamRecorder{}
	res, err := NewEngineCache().Run(context.Background(), g, segs, cfg, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	union := slices.Collect(maps.Keys(res.Union))
	graph.SortTriangles(union)
	b, err := json.Marshal(struct {
		Outputs         [][]graph.Triangle
		Union           []graph.Triangle
		Metrics         sim.Metrics
		ScheduledRounds int
		Meta            RunMeta
	}{res.Outputs, union, res.Metrics, res.ScheduledRounds, res.Meta})
	if err != nil {
		t.Fatal(err)
	}
	return b, rec.lines
}

// TestTesterStartAllocations: Start groups up to 16 probes on the stack,
// so a warm run of the default tester allocates no more than one of the
// per-probe reference, which allocates nothing per node; from 17 probes on
// a node allocates one grouping buffer, whatever the probe count.
func TestTesterStartAllocations(t *testing.T) {
	const n = 300
	g := graph.Gnp(n, 8.0/n, rand.New(rand.NewSource(3)))
	for _, probes := range []int{16, 17, 1024} {
		sched, mk := NewPropertyTester(n, 64, probes)
		ref := &perProbeTester{testerHandler{probes: probes}}
		got := warmAllocs(t, g, sched, mk)
		want := warmAllocs(t, g, sched, func(int) PhaseHandler { return ref })
		perNode := 0
		if probes > stackProbes {
			perNode = 1
		}
		if got > want+float64(perNode*n) {
			t.Errorf("probes=%d: %v allocations per warm run, per-probe reference %v, want at most %d more",
				probes, got, want, perNode*n)
		}
	}
}

// warmAllocs returns the allocations of one warm run of the handlers on g.
func warmAllocs(t *testing.T, g *graph.Graph, sched *sim.Schedule, mk func(int) PhaseHandler) float64 {
	t.Helper()
	c := NewEngineCache()
	run := func() {
		if _, err := c.RunSingle(g, sched, mk, sim.Config{Seed: 1, BandwidthWords: 64}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	return testing.AllocsPerRun(3, run)
}
