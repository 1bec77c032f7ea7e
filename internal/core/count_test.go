package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// countTriangles runs one count on an empty cache, that is on a fresh
// engine.
func countTriangles(g *graph.Graph, root int, cfg sim.Config) (CountResult, error) {
	return NewEngineCache().Count(context.Background(), g, root, cfg, nil)
}

func TestCountMatchesOracleOnConnectedGraphs(t *testing.T) {
	cases := []struct {
		name string
		mk   func(rng *rand.Rand) *graph.Graph
	}{
		{"gnp-dense", func(rng *rand.Rand) *graph.Graph { return graph.Gnp(40, 0.5, rng) }},
		{"gnp-medium", func(rng *rand.Rand) *graph.Graph { return graph.Gnp(40, 0.25, rng) }},
		{"complete", func(rng *rand.Rand) *graph.Graph { return graph.Complete(20) }},
		{"ba", func(rng *rand.Rand) *graph.Graph { return graph.BarabasiAlbert(40, 3, rng) }},
		{"chords", func(rng *rand.Rand) *graph.Graph { return graph.RingWithChords(40, 25, rng) }},
		{"ring", func(rng *rand.Rand) *graph.Graph { return graph.Ring(20) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := tc.mk(rng)
			want := int64(graph.CountTriangles(g))
			res, err := countTriangles(g, 0, sim.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count = %d, want %d", res.Count, want)
			}
			t.Logf("n=%d count=%d rounds=%d", g.N(), res.Count, res.Rounds)
		})
	}
}

func TestCountAllRootsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(24, 0.5, rng) // connected w.h.p.
	want := int64(graph.CountTriangles(g))
	for root := 0; root < g.N(); root += 5 {
		res, err := countTriangles(g, root, sim.Config{Seed: int64(root)})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if res.Count != want {
			t.Fatalf("root %d: count %d, want %d", root, res.Count, want)
		}
	}
}

func TestCountBandwidthIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Gnp(26, 0.4, rng)
	want := int64(graph.CountTriangles(g))
	for _, b := range []int{1, 2, 3, 8} {
		res, err := countTriangles(g, 0, sim.Config{Seed: 5, BandwidthWords: b})
		if err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
		if res.Count != want {
			t.Fatalf("B=%d: count %d, want %d", b, res.Count, want)
		}
	}
}

func TestCountDisconnectedCountsRootComponent(t *testing.T) {
	// Two K4 blocks, no cross edges: 4 triangles per component.
	b := graph.NewBuilder(8)
	for _, base := range []int{0, 4} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if err := b.AddEdge(base+i, base+j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g := b.Build()
	res, err := countTriangles(g, 0, sim.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 {
		t.Fatalf("count = %d, want the root component's 4", res.Count)
	}
}

// TestCountUnreachableVerticesSleep: a vertex the root's wave never reaches
// sleeps until its deadline, bfsStart + 2n, instead of stepping every
// round, and wakes once, the round after, to finish. On two disjoint
// triangles the count still ends at that round, and it steps only the
// rounds a count of the root's triangle alone steps, plus that one.
func TestCountUnreachableVerticesSleep(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	two := b.Build()
	stepped := func(res CountResult) int { return res.Rounds - res.Metrics.FastForwardedRounds }
	for _, bw := range []int{1, 2} {
		cfg := sim.Config{Seed: 1, BandwidthWords: bw}
		res, err := countTriangles(two, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := countTriangles(graph.Complete(3), 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 1 || alone.Count != 1 {
			t.Fatalf("B=%d: counts %d and %d, want 1 and 1", bw, res.Count, alone.Count)
		}
		deadline := newCounter(two, 0, bw).bfsStart + 2*two.N()
		if res.Rounds != deadline+2 {
			t.Fatalf("B=%d: %d rounds, want the deadline %d plus 2", bw, res.Rounds, deadline)
		}
		if got, want := stepped(res), stepped(alone)+1; got != want {
			t.Fatalf("B=%d: stepped %d of %d rounds, want %d", bw, got, res.Rounds, want)
		}
	}
}

func TestCountRoundsScaleWithDmaxPlusDiameter(t *testing.T) {
	// A long ring has tiny d_max but large diameter: rounds ~ D.
	g := graph.Ring(60)
	res, err := countTriangles(g, 0, sim.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("ring count = %d", res.Count)
	}
	if res.Rounds < 30 { // diameter/ wave must cross ~n/2
		t.Fatalf("rounds = %d, expected >= diameter 30", res.Rounds)
	}
	// A dense graph has diameter ~2 but d_max ~ n: rounds ~ d_max/B.
	rng := rand.New(rand.NewSource(8))
	gd := graph.Gnp(60, 0.5, rng)
	resD, err := countTriangles(gd, 0, sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if resD.Rounds > 60 {
		t.Fatalf("dense rounds = %d, expected ~d_max/B + O(1)", resD.Rounds)
	}
}

// TestCountRoundBudgetFormula: rounds must stay within a small multiple of
// d_max/B + D, the Theta(d_max + D) claim.
func TestCountRoundBudgetFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(11)) // #nosec G404
	for _, g := range []*graph.Graph{
		graph.Gnp(50, 0.5, rng),
		graph.Ring(50),
		graph.BarabasiAlbert(50, 3, rng),
	} {
		if !graph.Connected(g) {
			continue
		}
		res, err := countTriangles(g, 0, sim.Config{Seed: 12, BandwidthWords: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Wave costs D rounds; the sum chain costs <= (1 + ceil(4/B)) per
		// depth level; plus the two-hop prefix d_max/B.
		budget := g.MaxDegree()/2 + 4*graph.Diameter(g) + 20
		if res.Rounds > budget {
			t.Fatalf("rounds %d exceed dmax/B + 4D + 20 = %d", res.Rounds, budget)
		}
	}
}

func TestCountRejectsBadRoot(t *testing.T) {
	g := graph.Complete(4)
	if _, err := countTriangles(g, -1, sim.Config{}); err == nil {
		t.Fatal("negative root accepted")
	}
	if _, err := countTriangles(g, 4, sim.Config{}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// TestSumEncoding round-trips subtree sums through encodeSum and the
// receiver's digit fold, and checks that C(n,3) always fits.
func TestSumEncoding(t *testing.T) {
	decodeSum := func(ws [sumWords]sim.Word, n int) int64 {
		place := sumPlaces(n)
		var v int64
		for i, w := range ws {
			v += int64(w) * place[i]
		}
		return v
	}
	maxCount := func(n int) int64 { return int64(math.Pow(float64(sumBase(n)), sumWords)) - 1 }
	for _, n := range []int{2, 3, 10, 64, 500} {
		for _, v := range []int64{0, 1, int64(n) - 1, int64(n), 12345 % maxCount(n)} {
			if v > maxCount(n) {
				continue
			}
			got := decodeSum(encodeSum(v, n), n)
			if got != v {
				t.Fatalf("n=%d: roundtrip %d -> %d", n, v, got)
			}
		}
		// C(n,3) must fit.
		c3 := int64(n) * int64(n-1) * int64(n-2) / 6
		if c3 > maxCount(n) {
			t.Fatalf("n=%d: C(n,3)=%d exceeds maxCount=%d", n, c3, maxCount(n))
		}
	}
}

// TestCountShardsAgree counts a graph with a giant component and isolated
// vertices on one pooled engine at 0, 1 and 4 shards: the shard workers
// drive one shared counter, and every CountResult is identical. CI runs it
// under -race.
func TestCountShardsAgree(t *testing.T) {
	g := graph.Gnp(3000, 6.0/3000, rand.New(rand.NewSource(21)))
	c := NewEngineCache()
	var want CountResult
	for _, shards := range []int{0, 1, 4} {
		got, err := c.Count(context.Background(), g, 0, sim.Config{Seed: 3, Shards: shards}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if shards == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: count %d in %d rounds, want %d in %d", shards, got.Count, got.Rounds, want.Count, want.Rounds)
		}
	}
	if want.Count == 0 || want.Count > int64(graph.CountTriangles(g)) {
		t.Fatalf("count %d, want a positive count of at most |T(G)| = %d", want.Count, graph.CountTriangles(g))
	}
}
