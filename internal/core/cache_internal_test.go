package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestIdleEngineHoldsNoNodes pins that an engine waiting in the cache keeps
// its node slice for the next run but no node objects: a finished job's
// per-vertex state machines are garbage as soon as the run returns, for a
// single-schedule run and a sequence run alike.
func TestIdleEngineHoldsNoNodes(t *testing.T) {
	g := graph.Gnp(24, 0.4, rand.New(rand.NewSource(1)))
	c := NewEngineCache()
	if _, _, err := c.TestTriangleFreeness(g, 4, sim.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListAllTriangles(g, ListerOptions{RepetitionsOverride: 1}, sim.Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if len(c.idle) != 1 {
		t.Fatalf("%d idle engines, want the one recycled engine", len(c.idle))
	}
	nodes := c.idle[0].nodes
	if len(nodes) != g.N() {
		t.Fatalf("idle engine keeps %d node slots for %d vertices", len(nodes), g.N())
	}
	for v, nd := range nodes {
		if nd != nil {
			t.Fatalf("idle engine still holds node %d (%T)", v, nd)
		}
	}
}
