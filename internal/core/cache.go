package core

import (
	"context"
	"sync"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
)

// EngineCache is the engine pool: it recycles engines and node slices
// across runs, keyed by everything that fixes an engine's slab shape —
// vertex count, mode, bandwidth, scheduler, shard count and fault plan.
// A borrowed engine is rewound with Engine.Reset when it last ran over the
// very same graph and re-pointed with Engine.Rebind otherwise, keeping
// every slab allocation either way. That serves both reuse patterns: a
// Session running many jobs over one cached graph, and sweep cells running
// over freshly generated graphs of recurring sizes. Results are identical
// to the one-shot package functions for the same (graph, config, seed) —
// the determinism contract — which the pooled-vs-fresh tests assert.
//
// The cache is safe for concurrent use; each borrowed engine belongs to one
// run until it is returned, so k concurrent runs of one shape cost k
// engines. Config.MaxRounds is not part of the key: the planned runs the
// cache executes drive the engine with explicit round budgets and never
// consult it. Idle retention is bounded at maxFreePerKey engines (and node
// slices) per shape — enough for a full sweep fan-out's concurrency — so a
// long-lived process's memory scales with concurrent load, not with the
// variety of shapes it has ever served.
type EngineCache struct {
	mu      sync.Mutex
	engines map[engineKey][]*sim.Engine
	nodes   map[int][][]sim.Node
}

type engineKey struct {
	n         int
	mode      sim.Mode
	bandwidth int
	scheduler sim.Scheduler
	shards    int
	// faults is the fault-plan fingerprint: engines carry their compiled
	// plan across Reset/Rebind, so plans are part of the slab identity.
	faults uint64
}

// maxFreePerKey bounds the idle engines (and node slices) retained per
// shape; returns beyond it are dropped for the GC.
const maxFreePerKey = 8

// NewEngineCache returns an empty cache.
func NewEngineCache() *EngineCache {
	return &EngineCache{
		engines: make(map[engineKey][]*sim.Engine),
		nodes:   make(map[int][][]sim.Node),
	}
}

// keyFor keys on the engine's own default resolution, so explicit and
// defaulted configs share a pool.
func keyFor(n int, cfg sim.Config) engineKey {
	cfg = cfg.Normalized()
	return engineKey{n: n, mode: cfg.Mode, bandwidth: cfg.BandwidthWords,
		scheduler: cfg.Scheduler, shards: cfg.Shards, faults: faults.Fingerprint(cfg.Faults)}
}

func (c *EngineCache) getNodes(n int) []sim.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	bufs := c.nodes[n]
	if len(bufs) == 0 {
		return make([]sim.Node, n)
	}
	buf := bufs[len(bufs)-1]
	bufs[len(bufs)-1] = nil
	c.nodes[n] = bufs[:len(bufs)-1]
	return buf
}

func (c *EngineCache) putNodes(nodes []sim.Node) {
	clear(nodes) // drop node references before pooling the slice
	c.mu.Lock()
	if len(c.nodes[len(nodes)]) < maxFreePerKey {
		c.nodes[len(nodes)] = append(c.nodes[len(nodes)], nodes)
	}
	c.mu.Unlock()
}

// getEngine returns an engine over g initialized for a fresh run, reusing a
// shape-compatible pooled engine when one is free.
func (c *EngineCache) getEngine(g *graph.Graph, nodes []sim.Node, cfg sim.Config) (*sim.Engine, error) {
	key := keyFor(g.N(), cfg)
	c.mu.Lock()
	var e *sim.Engine
	if free := c.engines[key]; len(free) > 0 {
		e = free[len(free)-1]
		free[len(free)-1] = nil
		c.engines[key] = free[:len(free)-1]
	}
	c.mu.Unlock()
	if e == nil {
		return sim.NewEngine(g, nodes, cfg)
	}
	if e.Input() == g {
		if err := e.Reset(nodes, cfg.Seed); err != nil {
			return nil, err
		}
		return e, nil
	}
	if err := e.Rebind(g, nodes, cfg.Seed); err != nil {
		return nil, err
	}
	return e, nil
}

func (c *EngineCache) putEngine(cfg sim.Config, e *sim.Engine) {
	key := keyFor(e.Input().N(), cfg)
	c.mu.Lock()
	if len(c.engines[key]) < maxFreePerKey {
		c.engines[key] = append(c.engines[key], e)
	}
	c.mu.Unlock()
}

// Idle reports how many returned engines the cache holds for n-vertex
// graphs under cfg, ready for reuse.
func (c *EngineCache) Idle(n int, cfg sim.Config) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.engines[keyFor(n, cfg)])
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

// RunSingle is the package-level RunSingle with cached engine and node
// state.
func (c *EngineCache) RunSingle(g *graph.Graph, sched *sim.Schedule, mk func(id int) sim.Node, cfg sim.Config) (Result, error) {
	return c.RunSingleCheckpointed(context.Background(), g, sched, mk, cfg, nil, nil)
}

// RunSingleCheckpointed is RunSingle with cancellation, streaming
// observation and a checkpoint plan (see the package-level
// RunSingleContext for the cancellation contract): the run snapshots at
// the plan's cadence and on cancellation and, when the plan carries a
// resume point, starts from it instead of round 0. A nil obs or ckpt
// disables that part.
func (c *EngineCache) RunSingleCheckpointed(ctx context.Context, g *graph.Graph, sched *sim.Schedule, mk func(id int) sim.Node, cfg sim.Config, obs Observer, ckpt *CheckpointPlan) (Result, error) {
	return c.run(ctx, g, func(nodes []sim.Node) {
		for v := range nodes {
			nodes[v] = mk(v)
		}
	}, singlePlan(sched), cfg, obs, ckpt)
}

// RunSequence is the package-level RunSequence with cached engine and node
// state.
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

// FindTriangles is the package-level FindTriangles with cached engine and
// node state.
func (c *EngineCache) FindTriangles(g *graph.Graph, opt FinderOptions, cfg sim.Config) (bool, Result, error) {
	segs, err := NewFinder(g.N(), bandwidthOf(cfg), opt)
	if err != nil {
		return false, Result{}, err
	}
	res, err := c.RunSequence(g, segs, cfg)
	if err != nil {
		return false, res, err
	}
	return len(res.Union) > 0, res, nil
}

// ListAllTriangles is the package-level ListAllTriangles with cached engine
// and node state.
func (c *EngineCache) ListAllTriangles(g *graph.Graph, opt ListerOptions, cfg sim.Config) (Result, error) {
	segs, err := NewLister(g.N(), bandwidthOf(cfg), opt)
	if err != nil {
		return Result{}, err
	}
	return c.RunSequence(g, segs, cfg)
}

// TestTriangleFreeness is the package-level TestTriangleFreeness with
// cached engine and node state.
func (c *EngineCache) TestTriangleFreeness(g *graph.Graph, probes int, cfg sim.Config) (bool, Result, error) {
	sched, mk := NewPropertyTester(g.N(), bandwidthOf(cfg), probes)
	res, err := c.RunSingle(g, sched, mk, cfg)
	if err != nil {
		return false, res, err
	}
	return len(res.Union) > 0, res, nil
}
