package baseline

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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
		// Every vertex maps to a valid group.
		for v := 0; v < n; v++ {
			if gg := plan.group(v); gg < 0 || gg >= g {
				t.Fatalf("group(%d) = %d out of range", v, gg)
			}
		}
		// Every sorted triple has a real owner, and the triples spread
		// evenly: each node owns floor(T/n) or ceil(T/n) of the T triples.
		owned := make([]int, n)
		triples := 0
		for a := 0; a < g; a++ {
			for b := a; b < g; b++ {
				for c := b; c < g; c++ {
					owner := plan.owner(a, b, c)
					if owner < 0 || owner >= n {
						t.Fatalf("n=%d: triple (%d,%d,%d) owned by %d", n, a, b, c, owner)
					}
					owned[owner]++
					triples++
				}
			}
		}
		if want := g * (g + 1) * (g + 2) / 6; triples != want { // combos with repetition
			t.Fatalf("n=%d: %d triples, want %d", n, triples, want)
		}
		for v, k := range owned {
			if k < triples/n || k > (triples+n-1)/n {
				t.Fatalf("n=%d: node %d owns %d of %d triples", n, v, k, triples)
			}
		}
	}
}

// dolevTable is the table-driven plan the closed form replaced: every
// sorted group triple numbered in enumeration order, node idx mod n owning
// triple idx.
type dolevTable struct {
	ownerOf   []int
	tripleIdx map[[3]int]int
}

func newDolevTable(p dolevPlan) dolevTable {
	t := dolevTable{tripleIdx: make(map[[3]int]int)}
	idx := 0
	for a := 0; a < p.numGroups; a++ {
		for b := a; b < p.numGroups; b++ {
			for c := b; c < p.numGroups; c++ {
				t.tripleIdx[[3]int{a, b, c}] = idx
				t.ownerOf = append(t.ownerOf, idx%p.n)
				idx++
			}
		}
	}
	return t
}

// destinations is the table plan's destination list: the distinct owners
// of the triples containing the group pair of u and v, deduplicated in a
// map, in first-occurrence order over the third group.
func (t dolevTable) destinations(p dolevPlan, u, v int) []int {
	gu, gv := p.group(u), p.group(v)
	seen := make(map[int]struct{}, p.numGroups)
	var out []int
	for x := 0; x < p.numGroups; x++ {
		key := [3]int{gu, gv, x}
		sort3(&key)
		owner := t.ownerOf[t.tripleIdx[key]]
		if _, dup := seen[owner]; !dup {
			seen[owner] = struct{}{}
			out = append(out, owner)
		}
	}
	return out
}

// TestDolevOwnerMatchesTable: the closed-form owner is the table's for
// every sorted triple, and destinations lists the table's owners in the
// table's order for every group pair, at every n in 1..200 for both
// variants. The degree-aware plans take group sizes that make about 40, 7,
// 2 and 1 groups, so plans with more triples than nodes, where owners
// repeat, are covered as well as plans with fewer.
func TestDolevOwnerMatchesTable(t *testing.T) {
	for n := 1; n <= 200; n++ {
		var plans []dolevPlan
		for _, variant := range []DolevVariant{DolevCubeRoot, DolevDegreeAware} {
			for _, d := range []int{(n + 39) / 40, (n + 6) / 7, n/2 + 1, n} {
				plan, err := newDolevPlan(n, variant, d)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, plan)
				if variant == DolevCubeRoot {
					break // the cube-root plan ignores d_max
				}
			}
		}
		for _, plan := range plans {
			table := newDolevTable(plan)
			g := plan.numGroups
			for key, idx := range table.tripleIdx {
				if got, want := plan.owner(key[0], key[1], key[2]), table.ownerOf[idx]; got != want {
					t.Fatalf("n=%d groups=%d: owner%v = %d, table %d", n, g, key, got, want)
				}
				if got := plan.owner(key[2], key[0], key[1]); got != table.ownerOf[idx] {
					t.Fatalf("n=%d groups=%d: owner of unsorted %v = %d, table %d", n, g, key, got, table.ownerOf[idx])
				}
			}
			var dests dolevDests
			for gu := 0; gu < g; gu++ {
				for gv := 0; gv < g; gv++ {
					u, v := gu*plan.groupSize, gv*plan.groupSize
					want := table.destinations(plan, u, v)
					if got := plan.destinations(u, v, &dests); !slices.Equal(got, want) {
						t.Fatalf("n=%d groups=%d: destinations(%d,%d) = %v, table %v", n, g, u, v, got, want)
					}
				}
			}
		}
	}
}

// TestDolevPlanBounded: the degree-aware plan on a sparse graph makes
// (n/d_max)^3/6 group triples, 6.2M on this 1000-vertex graph of maximum
// degree 3, and building the schedule allocates nothing per triple.
func TestDolevPlanBounded(t *testing.T) {
	g := graph.NearRegular(1000, 3, rand.New(rand.NewSource(5)))
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree %d, want 3", g.MaxDegree())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sched, _, err := NewDolevRouted(g, 2, DolevDegreeAware, DirectRouting)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Total() < 1 {
		t.Fatalf("schedule of %d rounds", sched.Total())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("NewDolevRouted allocated %d bytes, want under 1 MiB", alloc)
	}
}

func TestDolevDestinationsContainTripleOwners(t *testing.T) {
	plan, err := newDolevPlan(30, DolevCubeRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	var dests dolevDests
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		u, v, w := rng.Intn(30), rng.Intn(30), rng.Intn(30)
		// Owner of the triple of groups {g(u),g(v),g(w)} must be among the
		// destinations of every pair of the triple.
		owner := plan.owner(plan.group(u), plan.group(v), plan.group(w))
		for _, pair := range [][2]int{{u, v}, {u, w}, {v, w}} {
			if !slices.Contains(plan.destinations(pair[0], pair[1], &dests), owner) {
				t.Fatalf("owner %d of the groups of %d, %d, %d not reached from pair %v", owner, u, v, w, pair)
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
			if err := core.VerifyListing(tc.g, graph.CountTriangles(tc.g), res); err != nil {
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
			if err := core.VerifyListing(tc.g, graph.CountTriangles(tc.g), res); err != nil {
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
