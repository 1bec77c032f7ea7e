package congest

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
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
// algorithms, unsharded and at four shards — one shape, as the shard
// count is a per-run setting, here on a small graph) and paper's (the lister on 16 graphs and the finder on 8, gnp and
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
			if s.cachedGraph(spec.Graph.key()) == nil {
				t.Fatalf("%s: graph %s was evicted", mix.name, spec.Graph.key())
			}
		}
		if idle := s.engines.IdleEngines(); idle != mix.shapes {
			t.Fatalf("%s: %d idle engines after a pass, want one per shape (%d)", mix.name, idle, mix.shapes)
		}
	}
}

// TestSessionOneEnginePerGraph runs jobs over one graph at several shard
// counts and bandwidths through one Session: they share one pooled engine,
// which the session keeps as its only idle engine, and every Result is
// byte-identical to the same job's on a fresh Session.
func TestSessionOneEnginePerGraph(t *testing.T) {
	gs := GraphSpec{Generator: "gnp", N: 80, P: 0.1, Seed: 5}
	s := NewSession()
	for i, st := range []struct{ shards, b int }{{0, 0}, {4, 1}, {1, 5}, {7, 2}, {64, 3}, {4, 1}} {
		for _, algo := range []string{"a1", "twohop", "tester"} {
			spec := JobSpec{Graph: gs, Algo: algo, Seed: int64(i), Shards: st.shards, Bandwidth: st.b}
			got, err := s.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewSession().Run(context.Background(), spec)
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
