package expt

import (
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// Per-cell resource reuse. Most sweep cells generate their own graph, so a
// per-graph pool would never get a second hit — but cell SIZES recur, both
// across an experiment's repetitions and across repeated sweeps (benchmark
// loops, the regression gate, service-driven experiment jobs). The
// package-level EngineCache keys drained engines by shape (n, mode,
// scheduler, fault plan) and rewinds them with Engine.Rebind, which
// re-points them at each cell's fresh graph and keeps the topology when
// cells share a graph (the ab-good ablation), and the scratch pool reuses
// the centralized oracle's buffers for per-cell verification. Together they cut a steady-state sweep's
// allocations to graph generation plus the per-node state machines (see
// the allocs-per-op bound in alloc_test.go).

// cells pools engines, with their node slices, across sweep cells. Safe for
// concurrent use by the bounded cell workers.
var cells = core.NewEngineCache()

// oracleScratches pools verification oracles. Workers=1 on purpose:
// verification runs inside already-parallel sweep cells, where a nested
// GOMAXPROCS-wide oracle fan-out would oversubscribe the CPU.
var oracleScratches = sync.Pool{
	New: func() any { return &graph.OracleScratch{Workers: 1} },
}

// verifyListing checks a complete-listing run against the pooled oracle.
func verifyListing(g *graph.Graph, res core.Result) error {
	s := oracleScratches.Get().(*graph.OracleScratch)
	defer oracleScratches.Put(s)
	return core.VerifyListingAgainst(g, s.ListTriangles(g), res)
}

// verifyFinding checks the finding contract against the pooled oracle.
func verifyFinding(g *graph.Graph, res core.Result) error {
	s := oracleScratches.Get().(*graph.OracleScratch)
	defer oracleScratches.Put(s)
	return core.VerifyFindingWithCount(g, s.CountTriangles(g), res)
}

// oracleCount is |T(G)| from the pooled oracle.
func oracleCount(g *graph.Graph) int {
	s := oracleScratches.Get().(*graph.OracleScratch)
	defer oracleScratches.Put(s)
	return s.CountTriangles(g)
}
