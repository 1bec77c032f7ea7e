package congest

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// Session executes jobs while caching the expensive state between them:
// graphs are materialized once per GraphSpec, and engines are pooled in
// one core.EngineCache keyed by engine shape (vertex count, mode and
// fault plan; seed, bandwidth and shard count are per-job settings), so
// repeated jobs reuse one slab allocation. Both caches are bounded,
// whatever specs arrive: the session keeps the 32 most recently used
// graphs and at most 48 idle engines. A Session is safe for concurrent
// use; Service builds on it.
//
// Results are deterministic: a job is fully determined by its JobSpec, and
// pooled engines are bit-identical to fresh ones.
type Session struct {
	opts    options
	engines *core.EngineCache

	mu     sync.Mutex
	graphs []cachedGraph // least recently used first
}

// cachedGraph is one materialized graph and its GraphSpec key.
type cachedGraph struct {
	key string
	g   *graph.Graph
}

// maxCachedGraphs bounds the graphs a Session keeps materialized; using
// one more evicts the least recently used. It covers the largest mix the
// benchmark harness runs, paper's 24 graphs. The Session and Graph docs
// quote its value.
const maxCachedGraphs = 32

// NewSession returns an empty session. WithOracleWorkers defaults to all
// CPUs here; see the option docs.
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
	key := gs.key()
	if g := s.cachedGraph(key); g != nil {
		return g, nil
	}
	// Admission control BEFORE materialization where the size is declared
	// (generator and inline specs): an oversized spec must not cost the
	// build. File specs reveal their size only after reading.
	max := s.opts.maxVertices
	if max > 0 && gs.File == "" && gs.N > max {
		return nil, fmt.Errorf("congest: graph spec declares %d vertices, session admits at most %d", gs.N, max)
	}
	// Build outside the lock; racing builders are rare and the loser's
	// graph is dropped.
	g, err := gs.build()
	if err != nil {
		return nil, err
	}
	if max > 0 && g.N() > max {
		return nil, fmt.Errorf("congest: graph has %d vertices, session admits at most %d", g.N(), max)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached := s.touchGraph(key); cached != nil {
		return cached, nil
	}
	s.graphs = append(s.graphs, cachedGraph{key: key, g: g})
	if len(s.graphs) > maxCachedGraphs {
		s.graphs = slices.Delete(s.graphs, 0, 1)
	}
	return g, nil
}

// cachedGraph returns the cached graph for key, or nil.
func (s *Session) cachedGraph(key string) *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touchGraph(key)
}

// touchGraph returns the cached graph for key, marking it the most
// recently used, or nil. The caller holds s.mu.
func (s *Session) touchGraph(key string) *graph.Graph {
	for i, c := range s.graphs {
		if c.key == key {
			s.graphs = append(slices.Delete(s.graphs, i, i+1), c)
			return c.g
		}
	}
	return nil
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
