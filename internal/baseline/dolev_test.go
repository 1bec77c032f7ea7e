package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestDolevPlanCoversAllTriples(t *testing.T) {
	for _, n := range []int{1, 7, 27, 40, 64} {
		plan, err := newDolevPlan(n, DolevCubeRoot, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := plan.numGroups
		wantTriples := g * (g + 1) * (g + 2) / 6 // combos with repetition
		if len(plan.ownerOf) != wantTriples {
			t.Fatalf("n=%d: %d triples, want %d", n, len(plan.ownerOf), wantTriples)
		}
		// Every vertex maps to a valid group.
		for v := 0; v < n; v++ {
			if gg := plan.group(v); gg < 0 || gg >= g {
				t.Fatalf("group(%d) = %d out of range", v, gg)
			}
		}
		// Every owner is a real node and ownTriples is consistent.
		count := 0
		for ti, owner := range plan.ownerOf {
			if owner < 0 || owner >= n {
				t.Fatalf("triple %d owned by %d", ti, owner)
			}
			found := false
			for _, oti := range plan.ownTriples[owner] {
				if oti == ti {
					found = true
				}
			}
			if !found {
				t.Fatalf("triple %d missing from ownTriples[%d]", ti, owner)
			}
			count++
		}
		if count != wantTriples {
			t.Fatal("ownership count mismatch")
		}
	}
}

func TestDolevDestinationsContainTripleOwners(t *testing.T) {
	plan, err := newDolevPlan(30, DolevCubeRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		u, v, w := rng.Intn(30), rng.Intn(30), rng.Intn(30)
		// Owner of the triple of groups {g(u),g(v),g(w)} must be among the
		// destinations of every pair of the triple.
		a, b, c := plan.group(u), plan.group(v), plan.group(w)
		key := [3]int{a, b, c}
		sort3(&key)
		owner := plan.ownerOf[plan.tripleIdx[key]]
		for _, pair := range [][2]int{{u, v}, {u, w}, {v, w}} {
			dests := plan.destinations(pair[0], pair[1])
			found := false
			for _, d := range dests {
				if d == owner {
					found = true
				}
			}
			if !found {
				t.Fatalf("owner %d of triple %v not reached from pair %v", owner, key, pair)
			}
		}
	}
}

func sort3(k *[3]int) {
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	if k[1] > k[2] {
		k[1], k[2] = k[2], k[1]
	}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
}

func TestDolevGroupCountNearCubeRoot(t *testing.T) {
	plan, err := newDolevPlan(64, DolevCubeRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	cr := int(math.Ceil(math.Cbrt(64)))
	if plan.numGroups > cr || plan.numGroups < cr-1 {
		t.Fatalf("numGroups = %d, want ~%d", plan.numGroups, cr)
	}
	// Degree-aware: group size d_max.
	plan2, err := newDolevPlan(64, DolevDegreeAware, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.groupSize != 8 || plan2.numGroups != 8 {
		t.Fatalf("degree-aware plan: gs=%d groups=%d", plan2.groupSize, plan2.numGroups)
	}
	if _, err := newDolevPlan(0, DolevCubeRoot, 0); err == nil {
		t.Fatal("empty network accepted")
	}
	if _, err := newDolevPlan(10, DolevVariant(99), 0); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestDolevOnVariousFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	plantedG, _ := graph.PlantedTriangles(36, 8, rng)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete", graph.Complete(20)},
		{"bipartite", graph.RandomBipartite(16, 16, 0.5, rng)},
		{"planted", plantedG},
		{"ba", graph.BarabasiAlbert(32, 3, rng)},
		{"empty", graph.Empty(12)},
	}
	for _, tc := range cases {
		for _, variant := range []DolevVariant{DolevCubeRoot, DolevDegreeAware} {
			sched, mk, err := NewDolev(tc.g, 2, variant)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			res, err := core.NewEngineCache().RunSingle(tc.g, sched, mk, sim.Config{Mode: sim.ModeClique, Seed: 3})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := core.VerifyListing(tc.g, res); err != nil {
				t.Fatalf("%s (variant %d): %v", tc.name, variant, err)
			}
		}
	}
}

// TestDolevSublinearOnDense: the whole point of the clique algorithm — its
// rounds must be far below the Theta(n) two-hop cost on dense inputs.
func TestDolevSublinearOnDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Gnp(96, 0.5, rng)
	sched, _, err := NewDolev(g, 2, DolevCubeRoot)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Total() > g.N()/2 {
		t.Fatalf("Dolev schedule %d rounds on n=96 — not sublinear", sched.Total())
	}
}

func TestDolevRelayRoutingListsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.Gnp(40, 0.5, rng)},
		{"ba-hubs", graph.BarabasiAlbert(40, 4, rng)},
		{"complete", graph.Complete(18)},
		{"empty", graph.Empty(10)},
	} {
		for _, variant := range []DolevVariant{DolevCubeRoot, DolevDegreeAware} {
			sched, mk, err := NewDolevRouted(tc.g, 2, variant, RelayRouting)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			res, err := core.NewEngineCache().RunSingle(tc.g, sched, mk, sim.Config{Mode: sim.ModeClique, Seed: 10})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := core.VerifyListing(tc.g, res); err != nil {
				t.Fatalf("%s relay variant %d: %v", tc.name, variant, err)
			}
		}
	}
}

func TestDolevRoutedRejectsUnknownRouting(t *testing.T) {
	if _, _, err := NewDolevRouted(graph.Complete(5), 2, DolevCubeRoot, DolevRouting(0)); err == nil {
		t.Fatal("unknown routing accepted")
	}
}

func TestRelayOfCyclesOverOthers(t *testing.T) {
	n := 6
	for u := 0; u < n; u++ {
		seen := map[int]int{}
		for seq := 0; seq < 2*(n-1); seq++ {
			r := relayOf(u, seq, n)
			if r == u || r < 0 || r >= n {
				t.Fatalf("relayOf(%d,%d,%d) = %d", u, seq, n, r)
			}
			seen[r]++
		}
		for v := 0; v < n; v++ {
			if v != u && seen[v] != 2 {
				t.Fatalf("relay %d used %d times for sender %d, want 2", v, seen[v], u)
			}
		}
	}
}

// TestRelayRoutingBalancesSkewedLoad: on a graph engineered so one owner's
// announcements all target the same few responsible nodes, relay routing
// must yield a strictly shorter makespan than direct routing.
func TestRelayRoutingBalancesSkewedLoad(t *testing.T) {
	// A dense bipartite-ish block keeps group pairs (hence owner sets)
	// highly repetitive.
	b := graph.NewBuilder(64)
	for u := 0; u < 8; u++ {
		for v := 32; v < 64; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	direct, _, err := NewDolevRouted(g, 2, DolevCubeRoot, DirectRouting)
	if err != nil {
		t.Fatal(err)
	}
	relay, _, err := NewDolevRouted(g, 2, DolevCubeRoot, RelayRouting)
	if err != nil {
		t.Fatal(err)
	}
	if relay.Total() >= direct.Total() {
		t.Fatalf("relay (%d rounds) not shorter than direct (%d rounds) on skewed load",
			relay.Total(), direct.Total())
	}
}

func TestTwoHopRoundBudget(t *testing.T) {
	sched, _ := NewTwoHop(2, 40)
	if sched.Total() != 20 { // ceil(40/2)
		t.Fatalf("two-hop schedule = %d, want 20", sched.Total())
	}
	sched0, _ := NewTwoHop(2, 0)
	if sched0.Total() != 1 {
		t.Fatalf("degenerate schedule = %d, want 1", sched0.Total())
	}
}
