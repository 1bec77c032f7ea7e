package core_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// ExampleEngineCache_ListAllTriangles runs the Theorem-2 lister end to end
// and verifies it against the centralized oracle.
func ExampleEngineCache_ListAllTriangles() {
	rng := rand.New(rand.NewSource(42))
	g := graph.Gnp(32, 0.5, rng)

	res, err := core.NewEngineCache().ListAllTriangles(g, core.ListerOptions{}, sim.Config{Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("complete:", core.VerifyListing(g, graph.CountTriangles(g), res) == nil)
	fmt.Println("distinct:", len(res.Union) == graph.CountTriangles(g))
	// Output:
	// complete: true
	// distinct: true
}

// ExampleEngineCache_FindTriangles shows the Theorem-1 finder's one-sided
// guarantee: a witness is always a real triangle, and triangle-free inputs
// can never produce one.
func ExampleEngineCache_FindTriangles() {
	rng := rand.New(rand.NewSource(1))
	free := graph.RandomBipartite(16, 16, 0.5, rng)
	found, _, err := core.NewEngineCache().FindTriangles(free, core.FinderOptions{}, sim.Config{Seed: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("triangle in bipartite graph:", found)
	// Output:
	// triangle in bipartite graph: false
}

// ExampleNewAXR demonstrates the deterministic Proposition-4 contract of
// Algorithm A(X,r): with X empty, Delta(X) is every pair, so the protocol
// must list every triangle of the graph.
func ExampleNewAXR() {
	g := graph.Complete(8)
	p := core.Params{N: g.N(), Eps: 0.5, B: 2}
	sched, mk := core.NewAXR(p, core.AXROptions{InX: func(int) bool { return false }})
	res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 3})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("triangles listed:", len(res.Union))
	// Output:
	// triangles listed: 56
}
