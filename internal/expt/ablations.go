package expt

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// runAbEps sweeps the heaviness exponent eps for the Theorem-1 finder at a
// fixed network size and reports how the cost splits between A1
// (O(n^{1-eps})) and A3 (O(n^{1-eps} + n^{(1+eps)/2} log n)). The total is
// minimized near the theorem's n^eps = n^{1/3} balance point.
func runAbEps(cfg Config) (*Table, error) {
	n := 96
	if cfg.Quick {
		n = 48
	}
	t := &Table{
		ID: "ab-eps", Title: fmt.Sprintf("eps sweep for one (A1;A3) repetition at n=%d", n),
		PaperBound: "Thm 1 balances at n^eps = n^{1/3}/(log n)^{2/3}",
		Metric:     "totalRounds",
		Cols:       []string{"eps100", "a1Rounds", "a3Rounds", "totalRounds"},
	}
	for _, e100 := range []int{15, 20, 25, 30, 33, 40, 50, 60, 70, 80} {
		eps := float64(e100) / 100
		p := core.Params{N: n, Eps: eps, B: cfg.bandwidth()}
		s1, _ := core.NewA1(p)
		s3, _ := core.NewA3(p)
		// The ablation compares schedules (round complexity), which is the
		// quantity the theorem optimizes; correctness at each eps is covered
		// by the core test suite.
		t.AddPoint(e100, map[string]float64{
			"eps100":      float64(e100),
			"a1Rounds":    float64(core.TotalRounds(s1)),
			"a3Rounds":    float64(core.TotalRounds(s3)),
			"totalRounds": float64(core.TotalRounds(s1) + core.TotalRounds(s3)),
		})
	}
	t.Finalize(nil)
	t.Notes = append(t.Notes,
		"x column is eps*100; a1Rounds falls with eps while a3Rounds grows — the crossover sits near eps=1/3 as the theorem proves")
	return t, nil
}

// runAbHash sweeps the A2 hash bucket count on a planted-heavy-edge input
// and reports the recall of heavy triangles against the rounds spent: more
// buckets means fewer rounds but lower per-repetition hit probability.
func runAbHash(cfg Config) (*Table, error) {
	n := 72
	trials := 8
	if cfg.Quick {
		n, trials = 48, 4
	}
	t := &Table{
		ID: "ab-hash", Title: fmt.Sprintf("A2 bucket sweep on planted heavy edge, n=%d (%d trials each)", n, trials),
		PaperBound: "Fig 1: buckets = floor(n^{eps/2}), success prob >= 3/(4 n^eps) per apex",
		Metric:     "rounds",
		Cols:       []string{"buckets", "rounds", "recall"},
	}
	w := int(math.Sqrt(float64(n))) * 2 // heavy edge in w triangles
	epses := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	type hashRow struct {
		buckets int
		vals    map[string]float64
	}
	rows, err := runCells(cfg, len(epses), func(i int) (hashRow, bool, error) {
		p := core.Params{N: n, Eps: epses[i], B: cfg.bandwidth()}
		buckets := p.A2Buckets()
		hits := 0
		var rounds int
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*17))
			g := graph.PlantedHeavyEdge(n, w, 0.05, rng)
			sched, mk, err := core.NewA2(p)
			if err != nil {
				return hashRow{}, false, err
			}
			res, err := cells.RunSingle(g, sched, mk, cfg.simCfg(cfg.Seed+int64(trial), sim.ModeCONGEST))
			if err != nil {
				return hashRow{}, false, err
			}
			if err := core.VerifyOneSided(g, res); err != nil {
				return hashRow{}, false, err
			}
			rounds = res.ScheduledRounds
			// Recall of the planted heavy triangles {0, 1, apex}.
			found := 0
			for apex := 2; apex < 2+w; apex++ {
				if res.Union.Has(graph.NewTriangle(0, 1, apex)) {
					found++
				}
			}
			if found > 0 {
				hits++
			}
		}
		return hashRow{buckets: buckets, vals: map[string]float64{
			"buckets": float64(buckets),
			"rounds":  float64(rounds),
			"recall":  float64(hits) / float64(trials),
		}}, true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddPoint(r.buckets, r.vals)
	}
	t.Finalize(nil)
	t.Notes = append(t.Notes,
		"x column is the bucket count; recall is the fraction of trials finding at least one planted heavy triangle in ONE repetition (Thm 2 amplifies with ceil(c log n) repetitions)")
	return t, nil
}

// runAbRoute compares direct sender-push routing against Lenzen-style
// two-hop relay routing inside the Dolev clique lister, on inputs whose
// announcements concentrate on few responsible nodes (dense blocks between
// two vertex groups). This ablates the substitution DESIGN.md documents:
// direct routing suffices on G(n,1/2), relay routing wins under skew.
func runAbRoute(cfg Config) (*Table, error) {
	t := &Table{
		ID: "ab-route", Title: "Dolev routing: direct vs Lenzen-style relays on skewed block graphs",
		PaperBound: "Lenzen routing guarantees O(max traffic / n) rounds regardless of skew",
		Metric:     "directRounds",
		Cols:       []string{"directRounds", "relayRounds", "gnpDirect", "gnpRelay"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		if n < 16 {
			return nil, nil // skipped row
		}
		seed := cfg.Seed + 900 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		// Skewed input: a dense block between a small set and a large one.
		b := graph.NewBuilder(n)
		for u := 0; u < n/8; u++ {
			for v := n / 2; v < n; v++ {
				if err := b.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
		}
		skew := b.Build()
		gnp := graph.Gnp(n, 0.5, rng)
		vals := map[string]float64{}
		for _, rc := range []struct {
			key     string
			g       *graph.Graph
			routing baseline.DolevRouting
		}{
			{"directRounds", skew, baseline.DirectRouting},
			{"relayRounds", skew, baseline.RelayRouting},
			{"gnpDirect", gnp, baseline.DirectRouting},
			{"gnpRelay", gnp, baseline.RelayRouting},
		} {
			sched, mk, err := baseline.NewDolevRouted(rc.g, cfg.bandwidth(), baseline.DolevCubeRoot, rc.routing)
			if err != nil {
				return nil, err
			}
			res, err := cells.RunSingle(rc.g, sched, mk, cfg.simCfg(seed, sim.ModeClique))
			if err != nil {
				return nil, err
			}
			if err := core.VerifyListing(rc.g, oracleCount(rc.g), res); err != nil {
				return nil, fmt.Errorf("ab-route n=%d %s: %w", n, rc.key, err)
			}
			vals[rc.key] = float64(res.ScheduledRounds)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(nil)
	t.Notes = append(t.Notes,
		"on skewed blocks relays beat direct routing; on G(n,1/2) direct routing is already balanced (the DESIGN.md substitution), at half the per-message word cost")
	return t, nil
}

// runAbGood sweeps the good-node threshold r in A(X,r) and reports the
// completeness of Delta(X)-triangle listing: below the Lemma-3 threshold
// the while loop's fixed log n iterations may terminate before U empties,
// losing triangles; at or above it, listing is complete.
func runAbGood(cfg Config) (*Table, error) {
	n := 64
	if cfg.Quick {
		n = 40
	}
	eps := 0.5
	t := &Table{
		ID: "ab-good", Title: fmt.Sprintf("A(X,r) threshold sweep at n=%d, eps=%.2f", n, eps),
		PaperBound: "Lemma 3: r >= sqrt(54 n^{1+eps} log n) keeps every U halving step valid",
		Metric:     "rounds",
		Cols:       []string{"rFrac100", "r", "rounds", "coverage"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	g := graph.Gnp(n, 0.5, rng)
	p := core.Params{N: n, Eps: eps, B: cfg.bandwidth()}
	x := graph.NewVertexSet(n)
	xr := rand.New(rand.NewSource(cfg.Seed + 32))
	for v := 0; v < n; v++ {
		if xr.Float64() < p.XSampleProb() {
			x.Add(v)
		}
	}
	want := graph.NewTriangleSet(graph.TrianglesInDeltaX(g, x))
	rFull := p.GoodThreshold()
	// All cells run over the same graph, so the package cell cache
	// rewinds one engine per worker with a same-graph Engine.Rebind across
	// fracs.
	simCfg := cfg.simCfg(cfg.Seed+33, sim.ModeCONGEST)
	fracs := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}
	type goodRow struct {
		frac float64
		vals map[string]float64
	}
	rows, err := runCells(cfg, len(fracs), func(i int) (goodRow, bool, error) {
		frac := fracs[i]
		r := rFull * frac
		if r < 1 {
			r = 1
		}
		sched, mk := core.NewAXR(p, core.AXROptions{
			R:   r,
			InX: func(id int) bool { return x.Has(id) },
		})
		res, err := cells.RunSingle(g, sched, mk, simCfg)
		if err != nil {
			return goodRow{}, false, err
		}
		if err := core.VerifyOneSided(g, res); err != nil {
			return goodRow{}, false, err
		}
		covered := 0
		for tr := range want {
			if res.Union.Has(tr) {
				covered++
			}
		}
		coverage := 1.0
		if len(want) > 0 {
			coverage = float64(covered) / float64(len(want))
		}
		return goodRow{frac: frac, vals: map[string]float64{
			"rFrac100": frac * 100,
			"r":        r,
			"rounds":   float64(res.ScheduledRounds),
			"coverage": coverage,
		}}, true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddPoint(int(r.frac*100), r.vals)
	}
	t.Finalize(nil)
	t.Notes = append(t.Notes,
		"x column is r as a percentage of the Lemma-3 threshold; coverage of Delta(X)-triangles must reach 1.0 at 100%")
	return t, nil
}
