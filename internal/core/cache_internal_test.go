package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestIdleEngineHoldsNoNodes pins that an engine waiting in the cache keeps
// its phasedRun for the next run but no node and no handler: a finished
// job's per-vertex state machines, the schedule they ran and a count's
// counter are garbage as soon as the run returns, for a single-schedule
// run, a sequence run and a count alike, which all share the one engine.
func TestIdleEngineHoldsNoNodes(t *testing.T) {
	g := graph.Gnp(24, 0.4, rand.New(rand.NewSource(1)))
	c := NewEngineCache()
	if _, _, err := c.TestTriangleFreeness(g, 4, sim.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListAllTriangles(g, ListerOptions{RepetitionsOverride: 1}, sim.Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(context.Background(), g, 0, sim.Config{Seed: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if len(c.idle) != 1 {
		t.Fatalf("%d idle engines, want the one recycled engine", len(c.idle))
	}
	for v, nd := range c.idle[0].nodes {
		if nd != nil {
			t.Fatalf("idle engine still names node %d (%T)", v, nd)
		}
	}
	run := c.idle[0].run
	if len(run.handlers) != g.N() {
		t.Fatalf("idle engine keeps %d handler slots for %d vertices", len(run.handlers), g.N())
	}
	for v, h := range run.handlers {
		if h != nil {
			t.Fatalf("idle engine still holds handler %d (%T)", v, h)
		}
	}
	if run.sched != nil {
		t.Fatal("idle engine still holds the last run's schedule")
	}
}
