package core

// Master property test: one-sided error is structural across the whole
// algorithm zoo — no combination of random input family, random seed and
// random bandwidth may ever output a non-triangle.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
)

func randomGraph(rng *rand.Rand) *graph.Graph {
	n := 8 + rng.Intn(28)
	switch rng.Intn(6) {
	case 0:
		return graph.Gnp(n, rng.Float64(), rng)
	case 1:
		return graph.RandomBipartite(n/2, n-n/2, rng.Float64(), rng)
	case 2:
		return graph.BarabasiAlbert(n, 1+rng.Intn(4), rng)
	case 3:
		g, _ := graph.PlantedTriangles(n, 1+rng.Intn(4), rng)
		return g
	case 4:
		return graph.PlantedHeavyEdge(n, 2+rng.Intn(n/2), 0.1, rng)
	default:
		return graph.RingWithChords(n, rng.Intn(n), rng)
	}
}

func TestOneSidednessIsUniversal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		b := 1 + rng.Intn(4)
		eps := 0.2 + 0.6*rng.Float64()
		p := Params{N: g.N(), Eps: eps, B: b}
		cfg := sim.Config{Seed: seed, BandwidthWords: b}

		var results []Result
		s1, mk1 := NewA1(p)
		r1, err := NewEngineCache().RunSingle(g, s1, mk1, cfg)
		if err != nil {
			return false
		}
		results = append(results, r1)
		s2, mk2, err := NewA2(p)
		if err != nil {
			return false
		}
		r2, err := NewEngineCache().RunSingle(g, s2, mk2, cfg)
		if err != nil {
			return false
		}
		results = append(results, r2)
		s3, mk3 := NewA3(p)
		r3, err := NewEngineCache().RunSingle(g, s3, mk3, cfg)
		if err != nil {
			return false
		}
		results = append(results, r3)
		_, rt, err := NewEngineCache().TestTriangleFreeness(g, 4, cfg)
		if err != nil {
			return false
		}
		results = append(results, rt)

		for _, res := range results {
			if VerifyOneSided(g, res) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestListerCompletenessProperty: the full Theorem-2 pipeline lists T(G)
// entirely across random families (completeness is probabilistic but the
// amplified failure odds are negligible at these sizes).
func TestListerCompletenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		res, err := NewEngineCache().ListAllTriangles(g, ListerOptions{}, sim.Config{Seed: seed})
		if err != nil {
			return false
		}
		return VerifyListing(g, graph.CountTriangles(g), res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
