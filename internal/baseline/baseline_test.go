package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestTwoHopListsEverything(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(30, 0.4, rng)
		sched, mk := NewTwoHop(2, g.MaxDegree())
		res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTwoHopLocalCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(24, 0.5, rng)
	sched, mk := NewTwoHop(2, g.MaxDegree())
	res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		want := graph.NewTriangleSet(graph.TrianglesOf(g, v))
		got := graph.NewTriangleSet(res.Outputs[v])
		if !got.ContainsAll(want) {
			t.Fatalf("node %d: local listing incomplete: %d of %d", v, len(got), len(want))
		}
	}
}

func TestDolevCubeRootListsEverything(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(40, 0.5, rng)
		sched, mk, err := NewDolev(g, 2, DolevCubeRoot)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: seed, Mode: sim.ModeClique})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("n=40 dolev rounds=%d", res.ScheduledRounds)
	}
}

func TestDolevDegreeAwareListsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, _ := graph.PlantedTriangles(48, 10, rng)
	sched, mk, err := NewDolev(g, 2, DolevDegreeAware)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 8, Mode: sim.ModeClique})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyListing(g, graph.CountTriangles(g), res); err != nil {
		t.Fatal(err)
	}
}
