package repro

// Cross-module integration tests: every distributed algorithm in the
// repository run on the same inputs, checked against the centralized
// oracle and against each other.

import (
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestAllAlgorithmsAgreeOnOneGraph is the whole-repo consistency matrix.
func TestAllAlgorithmsAgreeOnOneGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	g := graph.Gnp(36, 0.5, rng)
	oracle := graph.NewTriangleSet(graph.ListTriangles(g))

	type listerCase struct {
		name string
		run  func() (core.Result, error)
	}
	listers := []listerCase{
		{"thm2-lister", func() (core.Result, error) {
			return core.NewEngineCache().ListAllTriangles(g, core.ListerOptions{}, sim.Config{Seed: 1})
		}},
		{"twohop", func() (core.Result, error) {
			s, mk := baseline.NewTwoHop(2, g.MaxDegree())
			return core.NewEngineCache().RunSingle(g, s, mk, sim.Config{Seed: 2})
		}},
		{"twohop-broadcast", func() (core.Result, error) {
			s, mk := baseline.NewTwoHop(2, g.MaxDegree())
			return core.NewEngineCache().RunSingle(g, s, mk, sim.Config{Seed: 3, Mode: sim.ModeBroadcast})
		}},
		{"dolev-direct", func() (core.Result, error) {
			s, mk, err := baseline.NewDolev(g, 2, baseline.DolevCubeRoot)
			if err != nil {
				return core.Result{}, err
			}
			return core.NewEngineCache().RunSingle(g, s, mk, sim.Config{Seed: 4, Mode: sim.ModeClique})
		}},
		{"dolev-relay", func() (core.Result, error) {
			s, mk, err := baseline.NewDolevRouted(g, 2, baseline.DolevCubeRoot, baseline.RelayRouting)
			if err != nil {
				return core.Result{}, err
			}
			return core.NewEngineCache().RunSingle(g, s, mk, sim.Config{Seed: 5, Mode: sim.ModeClique})
		}},
		{"dolev-degree", func() (core.Result, error) {
			s, mk, err := baseline.NewDolev(g, 2, baseline.DolevDegreeAware)
			if err != nil {
				return core.Result{}, err
			}
			return core.NewEngineCache().RunSingle(g, s, mk, sim.Config{Seed: 6, Mode: sim.ModeClique})
		}},
	}
	for _, lc := range listers {
		t.Run(lc.name, func(t *testing.T) {
			res, err := lc.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyOneSided(g, res); err != nil {
				t.Fatal(err)
			}
			if !res.Union.Equal(oracle) {
				t.Fatalf("union has %d triangles, oracle %d", len(res.Union), len(oracle))
			}
		})
	}

	t.Run("thm1-finder", func(t *testing.T) {
		found, res, err := core.NewEngineCache().FindTriangles(g, core.FinderOptions{}, sim.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatal("missed a triangle on dense input")
		}
		for tr := range res.Union {
			if !oracle.Has(tr) {
				t.Fatalf("finder output %v not in oracle", tr)
			}
		}
	})

	t.Run("counter", func(t *testing.T) {
		cres, err := agg.CountTriangles(g, 0, sim.Config{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if int(cres.Count) != len(oracle) {
			t.Fatalf("count %d, oracle %d", cres.Count, len(oracle))
		}
	})

	t.Run("property-tester", func(t *testing.T) {
		found, res, err := core.NewEngineCache().TestTriangleFreeness(g, 12, sim.Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyOneSided(g, res); err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Log("tester missed on this seed (allowed, probabilistic)")
		}
	})
}

// TestModelSeparationOrdering verifies the Table-1 ordering on a single
// dense input: clique listing uses far fewer rounds than CONGEST listing,
// finding fewer than listing, counting fewer than listing.
func TestModelSeparationOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.Gnp(48, 0.5, rng)

	sDolev, mkDolev, err := baseline.NewDolev(g, 2, baseline.DolevCubeRoot)
	if err != nil {
		t.Fatal(err)
	}
	clique, err := core.NewEngineCache().RunSingle(g, sDolev, mkDolev, sim.Config{Seed: 1, Mode: sim.ModeClique})
	if err != nil {
		t.Fatal(err)
	}
	lister, err := core.NewEngineCache().ListAllTriangles(g, core.ListerOptions{}, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, finder, err := core.NewEngineCache().FindTriangles(g, core.FinderOptions{}, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	count, err := agg.CountTriangles(g, 0, sim.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	if clique.ScheduledRounds*10 > lister.ScheduledRounds {
		t.Fatalf("clique listing (%d rounds) not far below CONGEST listing (%d)",
			clique.ScheduledRounds, lister.ScheduledRounds)
	}
	if finder.ScheduledRounds >= lister.ScheduledRounds {
		t.Fatalf("finding (%d rounds) not cheaper than listing (%d)",
			finder.ScheduledRounds, lister.ScheduledRounds)
	}
	if count.Rounds*10 > lister.ScheduledRounds {
		t.Fatalf("counting (%d rounds) not far below listing (%d)",
			count.Rounds, lister.ScheduledRounds)
	}
}

// TestEmptyAndTinyGraphsEndToEnd pins down the degenerate sizes across all
// entry points.
func TestEmptyAndTinyGraphsEndToEnd(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		g := graph.Complete(n)
		res, err := core.NewEngineCache().ListAllTriangles(g, core.ListerOptions{RepetitionsOverride: 2}, sim.Config{Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d lister: %v", n, err)
		}
		if err := core.VerifyListing(g, res); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		found, _, err := core.NewEngineCache().FindTriangles(g, core.FinderOptions{Repetitions: 3}, sim.Config{Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d finder: %v", n, err)
		}
		if (n >= 3) != found && n >= 3 {
			t.Fatalf("n=%d: K_n triangle not found", n)
		}
		if n < 3 && found {
			t.Fatalf("n=%d: impossible triangle", n)
		}
		cres, err := agg.CountTriangles(g, 0, sim.Config{Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d counter: %v", n, err)
		}
		want := int64(0)
		if n >= 3 {
			want = int64(n * (n - 1) * (n - 2) / 6)
		}
		if cres.Count != want {
			t.Fatalf("n=%d: count %d, want %d", n, cres.Count, want)
		}
	}
}
