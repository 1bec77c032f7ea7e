package core

import (
	"context"
	"errors"
	"slices"
	"sync"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
)

// EngineCache is core's only runner: every run goes through Run. It pools
// idle engines, each with its node slice, keyed by what sizes an engine's
// slabs or compiles into it — vertex count, mode, scheduler and fault
// plan. The seed, bandwidth and shard count are per-run settings, and so
// is the graph: a borrowed engine takes them in Engine.Rebind, its one
// rewind, which keeps every slab allocation, swaps the topology only for
// another graph and re-cuts the shard plan only for a new shard count or
// graph. By the determinism contract none of those settings can tell a
// pooled engine from a fresh one. That serves both reuse patterns: a
// Session running many jobs over one cached graph, at whatever shard
// counts and bandwidths they ask for, and sweep cells running over freshly
// generated graphs of recurring sizes. Results are identical to a run on a
// freshly built engine (what an empty cache does) for the same (graph,
// config, seed), which the pooled-vs-fresh tests assert.
//
// The cache is safe for concurrent use; each borrowed engine belongs to one
// run until it is returned, so k concurrent runs of one shape cost k
// engines. Config.MaxRounds is not part of the key either: the planned
// runs the cache executes drive the engine with explicit round budgets and
// never consult it. Idle retention is bounded at MaxIdleEngines engines
// across all shapes: a return beyond the bound drops the oldest idle one.
// Every key field and run setting can come from an untrusted request, so a
// long-lived process's memory then scales with concurrent load, not with
// the variety of shapes and settings it has ever served.
type EngineCache struct {
	mu   sync.Mutex
	idle []idleEngine // oldest first
}

// idleEngine is a returned engine, the node slice it last ran (cleared,
// so it pins no node objects) and the shape it was keyed under.
type idleEngine struct {
	key   engineKey
	eng   *sim.Engine
	nodes []sim.Node
}

type engineKey struct {
	n         int
	mode      sim.Mode
	scheduler sim.Scheduler
	// faults is the fault-plan fingerprint: engines carry their compiled
	// plan across every Rebind, so plans are part of the slab identity.
	faults uint64
}

// MaxIdleEngines bounds the idle engines, and with them the node slices,
// an EngineCache retains across all shapes. It covers the largest mix the
// benchmark harness runs: paper's jobs have 22 shapes, one per vertex
// count, and its two clients can leave two idle engines of each (44).
// congest.Session's doc quotes its value.
const MaxIdleEngines = 48

// NewEngineCache returns an empty cache.
func NewEngineCache() *EngineCache { return &EngineCache{} }

// keyFor keys on the engine's own default resolution, so explicit and
// defaulted configs share a pool.
func keyFor(n int, cfg sim.Config) engineKey {
	cfg = cfg.Normalized()
	return engineKey{n: n, mode: cfg.Mode, scheduler: cfg.Scheduler, faults: faults.Fingerprint(cfg.Faults)}
}

// get takes the most recently returned idle engine of shape key, or
// returns an idleEngine with no engine and a fresh n-node slice.
func (c *EngineCache) get(key engineKey) idleEngine {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.idle) - 1; i >= 0; i-- {
		if ie := c.idle[i]; ie.key == key {
			c.idle = slices.Delete(c.idle, i, i+1)
			return ie
		}
	}
	return idleEngine{key: key, nodes: make([]sim.Node, key.n)}
}

// put returns ie to the pool, dropping the oldest idle engine beyond
// MaxIdleEngines.
func (c *EngineCache) put(ie idleEngine) {
	clear(ie.nodes) // drop node references before pooling the slice
	c.mu.Lock()
	c.idle = append(c.idle, ie)
	if len(c.idle) > MaxIdleEngines {
		c.idle = slices.Delete(c.idle, 0, 1)
	}
	c.mu.Unlock()
}

// Idle reports how many returned engines the cache holds for n-vertex
// graphs under cfg, ready for reuse.
func (c *EngineCache) Idle(n int, cfg sim.Config) int {
	key := keyFor(n, cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	count := 0
	for _, ie := range c.idle {
		if ie.key == key {
			count++
		}
	}
	return count
}

// IdleEngines reports how many returned engines the cache holds across
// all shapes; it never exceeds MaxIdleEngines.
func (c *EngineCache) IdleEngines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// errEmptySequence rejects zero-segment runs.
var errEmptySequence = errors.New("core: empty segment sequence")

// Run executes a sequence of segments (e.g. the Theorem-1 finder's
// repeated A1;A3) on g, with cancellation, streaming observation and a
// checkpoint plan; a nil obs or ckpt disables that part. A single-schedule
// algorithm is a one-segment sequence (see Single): its nodes are the
// segment's own, with no sequencing wrapper, so their snapshots carry no
// wrapper state.
//
// Cancellation is honored at round boundaries only: the returned Result is
// then the deterministic prefix of the uncancelled run (same seed, same
// everything) up to ExecutedRounds, and the error is ctx.Err(). With a
// plan, the run snapshots at the plan's cadence and on cancellation and,
// when the plan carries a resume point, starts from it instead of round 0.
func (c *EngineCache) Run(ctx context.Context, g *graph.Graph, segs []Segment, cfg sim.Config, obs Observer, ckpt *CheckpointPlan) (Result, error) {
	if len(segs) == 0 {
		return Result{}, errEmptySequence
	}
	ie := c.get(keyFor(g.N(), cfg))
	if len(segs) == 1 {
		mk := segs[0].Mk
		for v := range ie.nodes {
			ie.nodes[v] = mk(v)
		}
	} else {
		for v := range ie.nodes {
			ie.nodes[v] = NewSequenceNode(segs, v)
		}
	}
	var err error
	if ie.eng == nil {
		ie.eng, err = sim.NewEngine(g, ie.nodes, cfg)
	} else {
		err = ie.eng.Rebind(g, ie.nodes, cfg)
	}
	if err != nil {
		return Result{}, err
	}
	res, err := runPlanned(ctx, ie.eng, Plan(segs), obs, ckpt)
	// A cancelled engine still has queued words; the next borrower's
	// Rebind drains them, so returning it is safe either way.
	c.put(ie)
	return res, err
}

// RunSingle executes a single-schedule algorithm on g.
func (c *EngineCache) RunSingle(g *graph.Graph, sched *sim.Schedule, mk func(id int) sim.Node, cfg sim.Config) (Result, error) {
	return c.Run(context.Background(), g, Single(sched, mk), cfg, nil, nil)
}

// RunSequence executes a sequence of segments on g.
func (c *EngineCache) RunSequence(g *graph.Graph, segs []Segment, cfg sim.Config) (Result, error) {
	return c.Run(context.Background(), g, segs, cfg, nil, nil)
}

// FindTriangles runs the Theorem-1 finder on g and reports whether a
// triangle was found (plus the full result).
func (c *EngineCache) FindTriangles(g *graph.Graph, opt FinderOptions, cfg sim.Config) (bool, Result, error) {
	segs, err := NewFinder(g.N(), cfg.Normalized().BandwidthWords, opt)
	if err != nil {
		return false, Result{}, err
	}
	res, err := c.RunSequence(g, segs, cfg)
	if err != nil {
		return false, res, err
	}
	return len(res.Union) > 0, res, nil
}

// ListAllTriangles runs the Theorem-2 lister on g.
func (c *EngineCache) ListAllTriangles(g *graph.Graph, opt ListerOptions, cfg sim.Config) (Result, error) {
	segs, err := NewLister(g.N(), cfg.Normalized().BandwidthWords, opt)
	if err != nil {
		return Result{}, err
	}
	return c.RunSequence(g, segs, cfg)
}

// TestTriangleFreeness runs the property tester (NewPropertyTester) and
// reports whether a triangle witness was found. A false return on a graph
// far from triangle-free is possible but exponentially unlikely in
// `probes`; a true return is always backed by a real triangle (one-sided).
func (c *EngineCache) TestTriangleFreeness(g *graph.Graph, probes int, cfg sim.Config) (bool, Result, error) {
	sched, mk := NewPropertyTester(g.N(), cfg.Normalized().BandwidthWords, probes)
	res, err := c.RunSingle(g, sched, mk, cfg)
	if err != nil {
		return false, res, err
	}
	return len(res.Union) > 0, res, nil
}
