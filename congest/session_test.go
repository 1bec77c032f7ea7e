package congest

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestSessionRetentionBounded sends 200 jobs over distinct generated
// graphs — each with its own vertex count, so every job is also a new
// engine shape — through one Session, the pattern of a client that varies
// the generator spec. The session never holds more than maxCachedGraphs
// graphs or core.MaxIdleEngines idle engines, and ends holding exactly
// that many: the least recently used were evicted.
func TestSessionRetentionBounded(t *testing.T) {
	s := NewSession()
	for i := 0; i < 200; i++ {
		spec := JobSpec{
			Graph: GraphSpec{Generator: "gnp", N: 8 + i, P: 0.2, Seed: int64(i)},
			Algo:  "tester",
			Seed:  int64(i),
		}
		if _, err := s.Run(context.Background(), spec); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		s.mu.Lock()
		graphs := len(s.graphs)
		s.mu.Unlock()
		if graphs > maxCachedGraphs {
			t.Fatalf("after job %d: %d cached graphs, bound %d", i, graphs, maxCachedGraphs)
		}
		if idle := s.engines.IdleEngines(); idle > core.MaxIdleEngines {
			t.Fatalf("after job %d: %d idle engines, bound %d", i, idle, core.MaxIdleEngines)
		}
	}
	if len(s.graphs) != maxCachedGraphs || s.engines.IdleEngines() != core.MaxIdleEngines {
		t.Fatalf("ended with %d graphs and %d idle engines, want the bounds %d and %d",
			len(s.graphs), s.engines.IdleEngines(), maxCachedGraphs, core.MaxIdleEngines)
	}
}

// TestSessionWorkloadMixesNeverEvict runs a pass of each of the benchmark
// harness's three mixes through its own Session: serve's (four graphs,
// five algorithms, two engine shapes), large's (one graph, three
// algorithms, each also asking for four shards, which the session
// ignores — one shape, here on a small graph) and paper's (the lister on 16 graphs and the finder on 8, gnp and
// Barabási–Albert alternating, n from 64 to 256 — 24 graphs and 22 shapes,
// one per vertex count). Afterwards every graph is still cached and one
// idle engine per shape remains, so the next pass reuses them all:
// neither bound evicts anything these mixes use.
func TestSessionWorkloadMixesNeverEvict(t *testing.T) {
	var serve, large, paper []JobSpec
	for i := int64(0); i < 4; i++ {
		gs := GraphSpec{Generator: "gnp", N: 48, P: 0.2, Seed: 100 + i}
		for _, algo := range []string{"a1", "tester", "twohop", "count", "dolev"} {
			serve = append(serve, JobSpec{Graph: gs, Algo: algo, Seed: i})
		}
	}
	for _, algo := range []string{"a1", "twohop", "tester"} {
		gs := GraphSpec{Generator: "gnp", N: 300, P: 0.03, Seed: 7}
		large = append(large, JobSpec{Graph: gs, Algo: algo, Seed: 1}, JobSpec{Graph: gs, Algo: algo, Seed: 1, Shards: 4})
	}
	for _, mix := range []struct {
		algo  string
		count int
	}{{"list", 16}, {"find", 8}} {
		for i := 0; i < mix.count; i++ {
			n := 64 + 192*i/(mix.count-1)
			gs := GraphSpec{Generator: "gnp", N: n, P: 8 / float64(n), Seed: int64(200 + len(paper))}
			if i%2 == 1 {
				gs = GraphSpec{Generator: "ba", N: n, K: 4, Seed: gs.Seed}
			}
			paper = append(paper, JobSpec{Graph: gs, Algo: mix.algo, Seed: int64(i)})
		}
	}
	for _, mix := range []struct {
		name   string
		specs  []JobSpec
		shapes int
	}{{"serve", serve, 2}, {"large", large, 1}, {"paper", paper, 22}} {
		s := NewSession()
		for _, spec := range mix.specs {
			if _, err := s.Run(context.Background(), spec); err != nil {
				t.Fatalf("%s %s: %v", mix.name, spec.Algo, err)
			}
		}
		for _, spec := range mix.specs {
			if _, ok := s.cachedGraph(spec.Graph.key()); !ok {
				t.Fatalf("%s: graph %s was evicted", mix.name, spec.Graph.key())
			}
		}
		if idle := s.engines.IdleEngines(); idle != mix.shapes {
			t.Fatalf("%s: %d idle engines after a pass, want one per shape (%d)", mix.name, idle, mix.shapes)
		}
	}
}

// TestSessionOneEnginePerGraph runs jobs over one graph at several shard
// counts and bandwidths through one Session, pinned to each count in turn:
// phased jobs and count jobs alternate on one pooled engine, which the
// session keeps as its only idle engine, and every Result is
// byte-identical to the same job's on a fresh Session pinned alike.
func TestSessionOneEnginePerGraph(t *testing.T) {
	gs := GraphSpec{Generator: "gnp", N: 80, P: 0.1, Seed: 5}
	s := NewSession()
	for i, st := range []struct{ shards, b int }{{0, 0}, {4, 1}, {1, 5}, {7, 2}, {64, 3}, {4, 1}} {
		s.shards = st.shards
		for _, algo := range []string{"a1", "count", "twohop", "tester", "count", "list"} {
			spec := JobSpec{Graph: gs, Algo: algo, Seed: int64(i), Bandwidth: st.b}
			got, err := s.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pinnedSession(st.shards).Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s shards=%d B=%d: pooled Result differs from a fresh session's", algo, st.shards, st.b)
			}
			if idle := s.engines.IdleEngines(); idle != 1 {
				t.Fatalf("%s shards=%d B=%d: %d idle engines for one graph, want 1", algo, st.shards, st.b, idle)
			}
		}
	}
}

// pinnedSession returns a fresh Session that runs every job on the given
// number of shards; 0 leaves each job to the session's placement.
func pinnedSession(shards int) *Session {
	s := NewSession()
	s.shards = shards
	return s
}

// TestPlaceShards pins the placement rule: a graph whose n + 2m is below
// autoShardSize keeps the one-shard plan, and a larger one gets one shard
// per autoShardSize/2 of n + 2m, at most one per proc and at most
// sim.MaxShards.
func TestPlaceShards(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, procs int
		want        int
	}{
		{"below the threshold", autoShardSize - 1, 2, 0},
		{"at the threshold on 2 procs", autoShardSize, 2, 2},
		{"at the threshold on 4 procs", autoShardSize, 4, 2},
		{"three shards' worth on 8 procs", 3*autoShardSize/2 + 1, 8, 3},
		{"large graph on 2 procs", 1 << 20, 2, 2},
		{"large graph on 4 procs", 1 << 20, 4, 4},
		{"one proc", 1 << 20, 1, 1},
		{"more procs than sim.MaxShards", 1 << 24, 128, sim.MaxShards},
	} {
		if got := placeShards(c.size, c.procs); got != c.want {
			t.Errorf("%s: placeShards(%d, %d) = %d, want %d", c.name, c.size, c.procs, got, c.want)
		}
	}
}

// bigGraph is gnp(4096, 8/n): its n + 2m is about 37k, above
// autoShardSize, so the session cuts a job on it into more than one shard
// wherever there are two procs.
var bigGraph = GraphSpec{Generator: "gnp", N: 4096, P: 8.0 / 4096, Seed: 5}

// TestAutoPlacedResultBytes runs jobs on a graph above the placement
// threshold through one Session, placed by the session and pinned to one
// and to four shards: the Result JSON is byte-identical at all three.
// results.golden's graphs are all below the threshold, so this is the test
// in which the session's own placement cuts more than one shard
// (GOMAXPROCS of them, up to four).
func TestAutoPlacedResultBytes(t *testing.T) {
	s := NewSession()
	g, err := s.Graph(bigGraph)
	if err != nil {
		t.Fatal(err)
	}
	if size := g.N() + 2*g.M(); size < autoShardSize {
		t.Fatalf("n + 2m = %d is below the placement threshold %d", size, autoShardSize)
	}
	specs := []JobSpec{
		{Graph: bigGraph, Algo: "a1", Seed: 7},
		{Graph: bigGraph, Algo: "twohop", Seed: 7},
		{Graph: bigGraph, Algo: "tester", Seed: 7},
		{Graph: bigGraph, Algo: "find", Seed: 7, Repetitions: 1},
		{Graph: bigGraph, Algo: "count", Seed: 7},
		{Graph: bigGraph, Algo: "find", Seed: 7, Repetitions: 1, Faults: &FaultSpec{
			Seed: 11, Crashes: []FaultCrash{{Node: 3, Round: 5}}, Loss: 0.1, Dup: 0.05, DelayMax: 2,
		}},
	}
	for _, spec := range specs {
		var want []byte
		for _, shards := range []int{0, 1, 4} {
			s.shards = shards
			res, err := s.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", spec.Algo, shards, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if shards == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s (faults %v): Result at shards=%d differs from the auto-placed one", spec.Algo, spec.Faults != nil, shards)
			}
		}
	}
}

// TestSessionPlacesEveryJob runs checkpointed jobs on bigGraph whose specs
// differ only in Shards and Parallel: the session ignores both, so every
// run writes checkpoints recording placeShards(n + 2m, GOMAXPROCS), and
// every Result JSON is byte-identical once the two fields a spec echoes,
// Meta.Parallel and the checkpoint directory, are cleared.
func TestSessionPlacesEveryJob(t *testing.T) {
	s := NewSession()
	g, err := s.Graph(bigGraph)
	if err != nil {
		t.Fatal(err)
	}
	placed := placeShards(g.N()+2*g.M(), runtime.GOMAXPROCS(0))
	for _, algo := range []string{"a1", "twohop"} {
		var want []byte
		for _, v := range []struct {
			shards   int
			parallel bool
		}{{0, false}, {1, false}, {7, false}, {0, true}, {1, true}, {7, true}} {
			dir := t.TempDir()
			spec := JobSpec{Graph: bigGraph, Algo: algo, Seed: 7, Shards: v.shards, Parallel: v.parallel,
				Checkpoint: &CheckpointSpec{Every: 2, Dir: dir}}
			res, err := s.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", algo, v.shards, err)
			}
			ck, _, err := checkpoint.Nearest(dir, spec.SpecHash(), math.MaxInt)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", algo, v.shards, err)
			}
			if ck.Meta.Shards != placed {
				t.Errorf("%s shards=%d parallel=%v: checkpoint records %d shards, the session places %d",
					algo, v.shards, v.parallel, ck.Meta.Shards, placed)
			}
			res.Meta.Parallel = false
			res.Meta.Checkpoint.Dir = ""
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s shards=%d parallel=%v: Result differs from the Shards 0 one", algo, v.shards, v.parallel)
			}
		}
	}
}
