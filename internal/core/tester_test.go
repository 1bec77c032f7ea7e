package core

import (
	"math/rand"
	"testing"

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
