package expt

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// runExtCount measures the finding < counting < listing hierarchy the
// paper's Table-1 commentary establishes for the clique, on the CONGEST
// side: exact counting needs only Theta(d_max + D) rounds (BFS
// convergecast over two-hop knowledge) while complete listing pays the
// Theorem-2 price — yet counting reveals no triangle identities, which is
// why the listing lower bound does not apply to it.
func runExtCount(cfg Config) (*Table, error) {
	t := &Table{
		ID: "ext-count", Title: "Exact distributed counting vs listing, CONGEST, G(n,1/2)",
		PaperBound: "counting: Theta(d_max + D); listing: O(n^{3/4} log n) (Thm 2)",
		Metric:     "countRounds",
		Cols:       []string{"countRounds", "listerRounds", "count", "oracleCount"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 1000 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		cres, err := cells.Count(context.Background(), g, 0, cfg.simCfg(seed, sim.ModeCONGEST), nil)
		if err != nil {
			return nil, err
		}
		oracle := oracleCount(g)
		if cres.Count != int64(oracle) {
			return nil, fmt.Errorf("ext-count n=%d: counted %d, oracle %d", n, cres.Count, oracle)
		}
		lres, err := cells.ListAllTriangles(g, core.ListerOptions{}, cfg.simCfg(seed+1, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"countRounds":  float64(cres.Rounds),
			"listerRounds": float64(lres.ScheduledRounds),
			"count":        float64(cres.Count),
			"oracleCount":  float64(oracle),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(func(n int) float64 { return float64(n) / 2 }) // d_max + D ~ n/2 on G(n,1/2)
	t.Notes = append(t.Notes,
		"count verified exact against the oracle at every size",
		"counting reveals a single number, not triangle identities — the Theorem-3 information argument does not constrain it, which the round gap makes visible")
	return t, nil
}

// runExtTester measures property testing vs exact finding: the tester's
// rounds are independent of n (the paper's Section-1 point that the
// property-testing relaxation is 'significantly easier'), while the exact
// finder pays Theorem 1's polynomial price.
func runExtTester(cfg Config) (*Table, error) {
	const probes = 16
	t := &Table{
		ID: "ext-test", Title: "Triangle-freeness property tester vs Theorem-1 finder",
		PaperBound: "testing: O(1) rounds for constant eps; exact finding: O(n^{2/3} (log n)^{2/3})",
		Metric:     "finderRounds",
		Cols:       []string{"testerRounds", "finderRounds", "testerDetected", "bipartiteFalsePos"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 1100 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		det, tres, err := cells.TestTriangleFreeness(g, probes, cfg.simCfg(seed, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyOneSided(g, tres); err != nil {
			return nil, err
		}
		gb := graph.RandomBipartite(n/2, n-n/2, 0.5, rng)
		fp, bres, err := cells.TestTriangleFreeness(gb, probes, cfg.simCfg(seed+1, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyOneSided(gb, bres); err != nil {
			return nil, err
		}
		if fp {
			return nil, fmt.Errorf("ext-test n=%d: impossible false positive on bipartite input", n)
		}
		_, fres, err := cells.FindTriangles(g, core.FinderOptions{}, cfg.simCfg(seed+2, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"testerRounds":      float64(tres.ScheduledRounds),
			"finderRounds":      float64(fres.ScheduledRounds),
			"testerDetected":    b2f(det),
			"bipartiteFalsePos": b2f(fp),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(nil)
	t.Notes = append(t.Notes,
		"tester rounds are constant in n; the finder's grow polynomially — the hierarchy the paper draws between testing and exact finding")
	return t, nil
}
