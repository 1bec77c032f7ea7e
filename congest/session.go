package congest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// Session executes jobs while caching the expensive state between them:
// graphs are materialized once per GraphSpec, and engines are pooled in
// one core.EngineCache keyed by engine shape, so repeated jobs reuse one
// slab allocation. A Session is safe for concurrent use; Service builds
// on it.
//
// Results are deterministic: a job is fully determined by its JobSpec, and
// pooled engines are bit-identical to fresh ones.
type Session struct {
	opts    options
	engines *core.EngineCache

	mu     sync.Mutex
	graphs map[string]*graph.Graph
}

// NewSession returns an empty session. WithOracleWorkers defaults to all
// CPUs here; see the option docs.
func NewSession(opts ...Option) *Session {
	return &Session{
		opts:    resolveOptions(opts),
		engines: core.NewEngineCache(),
		graphs:  make(map[string]*graph.Graph),
	}
}

// Graph materializes (or returns the cached) graph for a spec. File-backed
// specs are cached by path for the session's lifetime.
func (s *Session) Graph(gs GraphSpec) (*graph.Graph, error) {
	key := gs.key()
	s.mu.Lock()
	if g, ok := s.graphs[key]; ok {
		s.mu.Unlock()
		return g, nil
	}
	s.mu.Unlock()
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
	if cached, ok := s.graphs[key]; ok {
		return cached, nil
	}
	s.graphs[key] = g
	return g, nil
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
