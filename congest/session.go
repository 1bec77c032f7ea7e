package congest

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
)

// Session executes jobs while caching the expensive state between them:
// graphs are materialized once per GraphSpec, each with its triangle count
// |T(G)| once a verification needs it, and engines are pooled in
// one core.EngineCache keyed by engine shape (vertex count, mode and
// fault plan; seed, bandwidth and shard count are per-job settings), so
// repeated jobs reuse one slab allocation. Both caches are bounded,
// whatever specs arrive: the session keeps the 32 most recently used
// graphs and at most 48 idle engines. A Session is safe for concurrent
// use; Service builds on it.
//
// The session also places every job: a job runs on one shard if its
// graph's n + 2m is below 16384, and otherwise on one shard per 8192 of
// n + 2m, at most GOMAXPROCS and at most 64. Nothing in a JobSpec changes
// the placement; JobSpec.Shards and JobSpec.Parallel are accepted and
// ignored.
//
// Results are deterministic: a job is fully determined by its JobSpec, and
// pooled engines are bit-identical to fresh ones, at every shard count.
type Session struct {
	opts    options
	engines *core.EngineCache
	shards  int // when positive, every job's shard count; only tests set it

	// oraclePasses counts the oracle's triangle counts; only tests read it.
	oraclePasses atomic.Int64

	mu     sync.Mutex
	graphs []cachedGraph // least recently used first
}

// cachedGraph is one materialized graph, its GraphSpec key and its
// triangle count.
type cachedGraph struct {
	key string
	g   *graph.Graph
	tri *triangleCount
}

// triangleCount is |T(G)| of one cached graph, counted by the centralized
// oracle when a job's verification first needs it, and the triangles of
// vertex 0's connected component, counted when a count job's verification
// first needs them. It is two ints per cached graph and goes with the
// graph's cache entry; a job holds the counts of the entry it took its
// graph from, so a graph evicted while the job runs is still counted,
// once, for that job alone.
type triangleCount struct {
	once sync.Once
	n    int

	rootOnce sync.Once
	root     int
}

// triangles returns |T(G)| of c's graph, running the oracle on first use.
func (s *Session) triangles(c cachedGraph) int {
	c.tri.once.Do(func() { c.tri.n = s.oracleCount(c.g) })
	return c.tri.n
}

// rootTriangles returns the triangles of vertex 0's connected component in
// c's graph: the number a count job, which counts at root 0, is checked
// against. On a connected graph that is |T(G)|. A triangle lies in one
// component, so on a disconnected one it is |T(G)| less the triangles
// among the vertices 0 does not reach, which are counted on first use.
func (s *Session) rootTriangles(c cachedGraph) int {
	c.tri.rootOnce.Do(func() {
		c.tri.root = s.triangles(c)
		var rest []int
		for v, d := range graph.BFSDepths(c.g, 0) {
			if d < 0 {
				rest = append(rest, v)
			}
		}
		if len(rest) > 0 {
			sub, _ := c.g.Subgraph(rest)
			c.tri.root -= s.oracleCount(sub)
		}
	})
	return c.tri.root
}

// oracleCount is one oracle pass: the triangle count of g.
func (s *Session) oracleCount(g *graph.Graph) int {
	s.oraclePasses.Add(1)
	oracle := graph.OracleScratch{Workers: s.opts.oracleWorkers}
	return oracle.CountTriangles(g)
}

// maxCachedGraphs bounds the graphs a Session keeps materialized; using
// one more evicts the least recently used. It covers the largest mix the
// benchmark harness runs, paper's 24 graphs. The Session and Graph docs
// quote its value.
const maxCachedGraphs = 32

// NewSession returns an empty session.
func NewSession(opts ...Option) *Session {
	return &Session{
		opts:    resolveOptions(opts),
		engines: core.NewEngineCache(),
	}
}

// Graph materializes (or returns the cached) graph for a spec. File-backed
// specs are cached by path. The session keeps the 32 most recently used
// graphs.
func (s *Session) Graph(gs GraphSpec) (*graph.Graph, error) {
	c, err := s.graph(gs)
	return c.g, err
}

// graph is Graph returning the whole cache entry.
func (s *Session) graph(gs GraphSpec) (cachedGraph, error) {
	key := gs.key()
	if c, ok := s.cachedGraph(key); ok {
		return c, nil
	}
	// Admission control BEFORE materialization where the size is declared
	// (generator and inline specs): an oversized spec must not cost the
	// build. File specs reveal their size only after reading.
	max := s.opts.maxVertices
	if max > 0 && gs.File == "" && gs.N > max {
		return cachedGraph{}, fmt.Errorf("congest: graph spec declares %d vertices, session admits at most %d", gs.N, max)
	}
	// Build outside the lock; racing builders are rare and the loser's
	// graph is dropped.
	g, err := gs.build()
	if err != nil {
		return cachedGraph{}, err
	}
	if max > 0 && g.N() > max {
		return cachedGraph{}, fmt.Errorf("congest: graph has %d vertices, session admits at most %d", g.N(), max)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.touchGraph(key); ok {
		return c, nil
	}
	c := cachedGraph{key: key, g: g, tri: &triangleCount{}}
	s.graphs = append(s.graphs, c)
	if len(s.graphs) > maxCachedGraphs {
		s.graphs = slices.Delete(s.graphs, 0, 1)
	}
	return c, nil
}

// cachedGraph returns the cache entry for key, if there is one.
func (s *Session) cachedGraph(key string) (cachedGraph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touchGraph(key)
}

// touchGraph returns the cache entry for key, if there is one, marking it
// the most recently used. The caller holds s.mu.
func (s *Session) touchGraph(key string) (cachedGraph, bool) {
	for i, c := range s.graphs {
		if c.key == key {
			s.graphs = append(slices.Delete(s.graphs, i, i+1), c)
			return c, true
		}
	}
	return cachedGraph{}, false
}

// Run executes one job to completion (or cancellation) and returns its
// result. On cancellation the returned Result is the deterministic prefix
// of the uncancelled run (Meta.Cancelled is set) and the error is
// ctx.Err(); any other error means the job could not run at all.
func (s *Session) Run(ctx context.Context, spec JobSpec) (Result, error) {
	return s.RunObserved(ctx, spec, nil)
}

// RunObserved is Run with a streaming Observer (see Observer for the
// callback contract).
func (s *Session) RunObserved(ctx context.Context, spec JobSpec, obs Observer) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	return s.runJob(ctx, spec, obs)
}

// Run executes one job in a throwaway session: the one-shot entry point
// for CLIs and examples. Session/Service amortize graph and engine state
// across jobs; Run rebuilds them each call.
func Run(ctx context.Context, spec JobSpec, opts ...Option) (Result, error) {
	return NewSession(opts...).Run(ctx, spec)
}

// RunObserved is Run with a streaming Observer.
func RunObserved(ctx context.Context, spec JobSpec, obs Observer, opts ...Option) (Result, error) {
	return NewSession(opts...).RunObserved(ctx, spec, obs)
}
