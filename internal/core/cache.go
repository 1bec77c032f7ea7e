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

// EngineCache is core's only runner: every run goes through one. It pools
// engines and node slices across runs, keyed by what sizes an engine's
// slabs or compiles into it — vertex count, mode, scheduler and fault
// plan. The seed, bandwidth and shard count are per-run settings: a
// borrowed engine takes them when it is rewound, with Engine.Reset when it
// last ran over the very same graph and with Engine.Rebind otherwise,
// keeping every slab allocation either way, and a new shard count only
// re-cuts its shard plan. By the determinism contract none of those
// settings can tell a pooled engine from a fresh one. That serves both
// reuse patterns: a Session running many jobs over one cached graph, at
// whatever shard counts and bandwidths they ask for, and sweep cells
// running over freshly generated graphs of recurring sizes. Results are
// identical to a run on a freshly built engine (what an empty cache does)
// for the same (graph, config, seed), which the pooled-vs-fresh tests
// assert.
//
// The cache is safe for concurrent use; each borrowed engine belongs to one
// run until it is returned, so k concurrent runs of one shape cost k
// engines. Config.MaxRounds is not part of the key either: the planned
// runs the cache executes drive the engine with explicit round budgets and
// never consult it. Idle retention is bounded at MaxIdleEngines engines,
// and as many node slices, across all shapes: a return beyond the bound
// drops the oldest idle one. Every key field and run setting can come from
// an untrusted request, so a long-lived process's memory then scales with
// concurrent load, not with the variety of shapes and settings it has ever
// served.
type EngineCache struct {
	mu      sync.Mutex
	engines []idleEngine // oldest first
	nodes   [][]sim.Node // oldest first
}

// idleEngine is a returned engine and the shape it was keyed under.
type idleEngine struct {
	key engineKey
	eng *sim.Engine
}

type engineKey struct {
	n         int
	mode      sim.Mode
	scheduler sim.Scheduler
	// faults is the fault-plan fingerprint: engines carry their compiled
	// plan across Reset/Rebind, so plans are part of the slab identity.
	faults uint64
}

// MaxIdleEngines bounds the idle engines an EngineCache retains across all
// shapes, and separately its idle node slices. It covers the largest mix
// the benchmark harness runs: paper's jobs have 22 shapes, one per vertex
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

func (c *EngineCache) getNodes(n int) []sim.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.nodes) - 1; i >= 0; i-- {
		if buf := c.nodes[i]; len(buf) == n {
			c.nodes = slices.Delete(c.nodes, i, i+1)
			return buf
		}
	}
	return make([]sim.Node, n)
}

func (c *EngineCache) putNodes(nodes []sim.Node) {
	clear(nodes) // drop node references before pooling the slice
	c.mu.Lock()
	c.nodes = append(c.nodes, nodes)
	if len(c.nodes) > MaxIdleEngines {
		c.nodes = slices.Delete(c.nodes, 0, 1)
	}
	c.mu.Unlock()
}

// getEngine returns an engine over g initialized for a fresh run under cfg,
// reusing a shape-compatible pooled engine when one is free.
func (c *EngineCache) getEngine(g *graph.Graph, nodes []sim.Node, cfg sim.Config) (*sim.Engine, error) {
	key := keyFor(g.N(), cfg)
	c.mu.Lock()
	var e *sim.Engine
	for i := len(c.engines) - 1; i >= 0; i-- {
		if c.engines[i].key == key {
			e = c.engines[i].eng
			c.engines = slices.Delete(c.engines, i, i+1)
			break
		}
	}
	c.mu.Unlock()
	if e == nil {
		return sim.NewEngine(g, nodes, cfg)
	}
	if e.Input() == g {
		if err := e.Reset(nodes, cfg); err != nil {
			return nil, err
		}
		return e, nil
	}
	if err := e.Rebind(g, nodes, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

func (c *EngineCache) putEngine(cfg sim.Config, e *sim.Engine) {
	key := keyFor(e.Input().N(), cfg)
	c.mu.Lock()
	c.engines = append(c.engines, idleEngine{key: key, eng: e})
	if len(c.engines) > MaxIdleEngines {
		c.engines = slices.Delete(c.engines, 0, 1)
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
	for _, ie := range c.engines {
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
	return len(c.engines)
}

func (c *EngineCache) run(ctx context.Context, g *graph.Graph, mkNodes func(nodes []sim.Node), plan []SegmentPlan, cfg sim.Config, obs Observer, ckpt *CheckpointPlan) (Result, error) {
	nodes := c.getNodes(g.N())
	mkNodes(nodes)
	eng, err := c.getEngine(g, nodes, cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := runPlanned(ctx, eng, plan, obs, ckpt)
	// A cancelled engine still has queued words; Reset and Rebind drain
	// them on the next borrow, so returning it is safe either way.
	c.putEngine(cfg, eng)
	c.putNodes(nodes)
	return res, err
}

// singlePlan wraps one schedule as a one-segment plan.
func singlePlan(sched *sim.Schedule) []SegmentPlan {
	return []SegmentPlan{{Name: "run", Rounds: TotalRounds(sched)}}
}

// errEmptySequence rejects zero-segment sequence runs.
var errEmptySequence = errors.New("core: empty segment sequence")

// RunSingle executes a single-schedule algorithm on g.
func (c *EngineCache) RunSingle(g *graph.Graph, sched *sim.Schedule, mk func(id int) sim.Node, cfg sim.Config) (Result, error) {
	return c.RunSingleCheckpointed(context.Background(), g, sched, mk, cfg, nil, nil)
}

// RunSingleCheckpointed is RunSingle with cancellation, streaming
// observation and a checkpoint plan. A nil obs or ckpt disables that part.
//
// Cancellation is honored at round boundaries only: the returned Result is
// then the deterministic prefix of the uncancelled run (same seed, same
// everything) up to ExecutedRounds, and the error is ctx.Err(). With a
// plan, the run snapshots at the plan's cadence and on cancellation and,
// when the plan carries a resume point, starts from it instead of round 0.
func (c *EngineCache) RunSingleCheckpointed(ctx context.Context, g *graph.Graph, sched *sim.Schedule, mk func(id int) sim.Node, cfg sim.Config, obs Observer, ckpt *CheckpointPlan) (Result, error) {
	return c.run(ctx, g, func(nodes []sim.Node) {
		for v := range nodes {
			nodes[v] = mk(v)
		}
	}, singlePlan(sched), cfg, obs, ckpt)
}

// RunSequence executes a sequence of segments (e.g. the Theorem-1 finder's
// repeated A1;A3) on g.
func (c *EngineCache) RunSequence(g *graph.Graph, segs []Segment, cfg sim.Config) (Result, error) {
	return c.RunSequenceCheckpointed(context.Background(), g, segs, cfg, nil, nil)
}

// RunSequenceCheckpointed is RunSequence with cancellation, streaming
// observation and a checkpoint plan (see RunSingleCheckpointed).
func (c *EngineCache) RunSequenceCheckpointed(ctx context.Context, g *graph.Graph, segs []Segment, cfg sim.Config, obs Observer, ckpt *CheckpointPlan) (Result, error) {
	if len(segs) == 0 {
		return Result{}, errEmptySequence
	}
	return c.run(ctx, g, func(nodes []sim.Node) {
		for v := range nodes {
			nodes[v] = NewSequenceNode(segs, v)
		}
	}, Plan(segs), cfg, obs, ckpt)
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
