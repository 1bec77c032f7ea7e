package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestSmokeListerGnp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Gnp(40, 0.3, rng)
	res, err := NewEngineCache().ListAllTriangles(g, ListerOptions{}, sim.Config{Seed: 7})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		t.Fatalf("listing incomplete: %v", err)
	}
	t.Logf("n=40 rounds=%d triangles=%d bits=%d", res.ScheduledRounds, len(res.Union), res.Metrics.TotalBits())
}

func TestSmokeFinderPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, _ := graph.PlantedTriangles(60, 4, rng)
	found, res, err := NewEngineCache().FindTriangles(g, FinderOptions{}, sim.Config{Seed: 3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := VerifyOneSided(g, res); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("planted triangles not found")
	}
}

func TestSmokeAXRDeterministicX(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(36, 0.4, rng)
	n := g.N()
	x := graph.NewVertexSet(n)
	for v := 0; v < n; v += 7 {
		x.Add(v)
	}
	p := Params{N: n, Eps: 0.5, B: 2}
	sched, mk := NewAXR(p, AXROptions{InX: func(id int) bool { return x.Has(id) }})
	res, err := NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 11})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := VerifyOneSided(g, res); err != nil {
		t.Fatal(err)
	}
	want := graph.NewTriangleSet(graph.TrianglesInDeltaX(g, x))
	for tr := range want {
		if !res.Union.Has(tr) {
			t.Fatalf("Delta(X)-triangle %v not listed (got %d, want >= %d)", tr, len(res.Union), len(want))
		}
	}
}
