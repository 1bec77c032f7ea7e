package expt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/sim"
)

// Config controls a sweep run.
type Config struct {
	// Ctx, when non-nil, cancels the sweep: no new cell starts after Ctx is
	// done, and the sweep returns Ctx.Err(). In-flight cells finish.
	Ctx context.Context
	// Sizes are the network sizes swept. Nil selects defaults (Quick aware).
	Sizes []int
	// Seed drives all randomness.
	Seed int64
	// Bandwidth is B in words/round (default 2).
	Bandwidth int
	// Quick shrinks defaults for smoke runs.
	Quick bool
	// Workers bounds the sweep-cell worker pool: independent (algorithm,
	// size, seed) cells run concurrently, with row order and every value
	// byte-identical to a sequential sweep. 0 selects GOMAXPROCS; 1 forces
	// sequential execution.
	Workers int
}

func (c Config) sizes() []int {
	if len(c.Sizes) > 0 {
		out := append([]int(nil), c.Sizes...)
		sort.Ints(out)
		return out
	}
	if c.Quick {
		return []int{24, 32, 48, 64}
	}
	return []int{32, 48, 64, 96, 128, 192}
}

// bandwidth resolves B through the engine's own defaulting.
func (c Config) bandwidth() int {
	return sim.Config{BandwidthWords: c.Bandwidth}.Normalized().BandwidthWords
}

func (c Config) simCfg(seed int64, mode sim.Mode) sim.Config {
	return sim.Config{
		Mode:           mode,
		BandwidthWords: c.bandwidth(),
		Seed:           seed,
	}
}

// Experiment is a registered, runnable reproduction of one Table-1 row or
// one design ablation.
type Experiment struct {
	ID         string
	Title      string
	PaperBound string
	Run        func(Config) (*Table, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "e1", Title: "Dolev et al. listing, CONGEST clique (n^{1/3} groups)",
			PaperBound: "O(n^{1/3} (log n)^{2/3}) rounds", Run: runE1},
		{ID: "e2", Title: "Dolev et al. degree-aware listing, CONGEST clique",
			PaperBound: "O(d_max^3 / n) rounds", Run: runE2},
		{ID: "e3", Title: "Censor-Hillel et al. clique finding (contextual)",
			PaperBound: "O(n^{0.1572}) rounds", Run: runE3},
		{ID: "e4", Title: "THIS PAPER Thm 1: triangle finding, CONGEST",
			PaperBound: "O(n^{2/3} (log n)^{2/3}) rounds", Run: runE4},
		{ID: "e5", Title: "THIS PAPER Thm 2: triangle listing, CONGEST",
			PaperBound: "O(n^{3/4} log n) rounds", Run: runE5},
		{ID: "e6", Title: "Drucker et al. conditional finding LB (contextual)",
			PaperBound: "Omega(n / (e^{sqrt(log n)} log n)), broadcast CONGEST", Run: runE6},
		{ID: "e7", Title: "THIS PAPER Thm 3: listing LB measurements on G(n,1/2)",
			PaperBound: "Omega(n^{1/3}/log n) rounds; |P(T_w)| = Omega(n^{4/3})", Run: runE7},
		{ID: "e8", Title: "Prop 5: local listing LB measurements",
			PaperBound: "Omega(n/log n) rounds; bits to each node = Omega(n^2)", Run: runE8},
		{ID: "e9", Title: "Trivial two-hop baseline, CONGEST",
			PaperBound: "Theta(d_max) rounds (linear on dense graphs)", Run: runE9},
		{ID: "ab-eps", Title: "Ablation: heaviness exponent eps in the Thm-1 finder",
			PaperBound: "optimum near n^eps = n^{1/3}", Run: runAbEps},
		{ID: "ab-hash", Title: "Ablation: A2 hash bucket count vs heavy-triangle recall",
			PaperBound: "Figure 1 uses floor(n^{eps/2}) buckets", Run: runAbHash},
		{ID: "ab-good", Title: "Ablation: good-node threshold r in A(X,r)",
			PaperBound: "Lemma 3 needs r >= sqrt(54 n^{1+eps} log n)", Run: runAbGood},
		{ID: "ab-route", Title: "Ablation: Dolev routing, direct vs Lenzen-style relays",
			PaperBound: "Lenzen routing: O(max traffic / n) rounds", Run: runAbRoute},
		{ID: "ext-count", Title: "Extension: exact distributed counting vs listing, CONGEST",
			PaperBound: "counting Theta(d_max + D) vs listing O(n^{3/4} log n)", Run: runExtCount},
		{ID: "ext-test", Title: "Extension: triangle-freeness property tester vs exact finding",
			PaperBound: "testing O(1) rounds vs finding O(n^{2/3} (log n)^{2/3})", Run: runExtTester},
		{ID: "churn-window", Title: "Churn: sliding-window stream, incremental oracle vs full recompute",
			PaperBound: "per-batch delta work << O(m^{3/2}) re-listing", Run: runChurnWindow},
		{ID: "churn-flip", Title: "Churn: random edge flips, incremental oracle vs full recompute",
			PaperBound: "per-batch delta work << O(m^{3/2}) re-listing", Run: runChurnFlip},
		{ID: "churn-growth", Title: "Churn: preferential growth, incremental oracle vs full recompute",
			PaperBound: "per-batch delta work << O(m^{3/2}) re-listing", Run: runChurnGrowth},
		{ID: "faults-crash", Title: "Faults: crash-stop nodes vs the algo panel",
			PaperBound: "reliable-model protocols, measured degradation", Run: runFaultsCrash},
		{ID: "faults-loss", Title: "Faults: per-link word loss vs the algo panel",
			PaperBound: "reliable-model protocols, measured degradation", Run: runFaultsLoss},
		{ID: "faults-delay", Title: "Faults: bounded adversarial delay vs the algo panel",
			PaperBound: "reliable-model protocols, measured degradation", Run: runFaultsDelay},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q", id)
}

// --- E1: Dolev cube-root clique listing -------------------------------

func runE1(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e1", Title: "Dolev et al. clique listing on G(n,1/2)",
		PaperBound: "O(n^{1/3} (log n)^{2/3})",
		Metric:     "rounds",
		Cols:       []string{"rounds", "triangles", "totalBits", "maxRecvBits"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		g := graph.Gnp(n, 0.5, rng)
		sched, mk, err := baseline.NewDolev(g, cfg.bandwidth(), baseline.DolevCubeRoot)
		if err != nil {
			return nil, err
		}
		res, err := cells.RunSingle(g, sched, mk, cfg.simCfg(cfg.Seed+int64(i), sim.ModeClique))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyListing(g, oracleCount(g), res); err != nil {
			return nil, fmt.Errorf("e1 n=%d: %w", n, err)
		}
		_, maxBits := res.Metrics.MaxBitsReceived()
		return map[string]float64{
			"rounds":      float64(res.ScheduledRounds),
			"triangles":   float64(len(res.Union)),
			"totalBits":   float64(res.Metrics.TotalBits()),
			"maxRecvBits": float64(maxBits),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(func(n int) float64 {
		return math.Cbrt(float64(n)) * math.Pow(math.Log2(float64(n)), 2.0/3.0)
	})
	t.Notes = append(t.Notes, "listing verified complete against the centralized oracle at every size")
	return t, nil
}

// --- E2: Dolev degree-aware clique listing ----------------------------

func runE2(cfg Config) (*Table, error) {
	const d = 12
	t := &Table{
		ID: "e2", Title: fmt.Sprintf("Dolev et al. degree-aware clique listing, near-regular d=%d", d),
		PaperBound: "O(d_max^3/n)",
		Metric:     "rounds",
		Cols:       []string{"rounds", "dmax", "triangles", "totalBits"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		if n <= d {
			return nil, nil // skipped row
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(i)))
		g := graph.NearRegular(n, d, rng)
		sched, mk, err := baseline.NewDolev(g, cfg.bandwidth(), baseline.DolevDegreeAware)
		if err != nil {
			return nil, err
		}
		res, err := cells.RunSingle(g, sched, mk, cfg.simCfg(cfg.Seed+200+int64(i), sim.ModeClique))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyListing(g, oracleCount(g), res); err != nil {
			return nil, fmt.Errorf("e2 n=%d: %w", n, err)
		}
		return map[string]float64{
			"rounds":    float64(res.ScheduledRounds),
			"dmax":      float64(g.MaxDegree()),
			"triangles": float64(len(res.Union)),
			"totalBits": float64(res.Metrics.TotalBits()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(func(n int) float64 {
		v := float64(d*d*d) / float64(n)
		if v < 1 {
			v = 1
		}
		return v
	})
	t.Notes = append(t.Notes,
		"with d_max fixed the bound collapses toward O(1); rounds must stay flat/falling as n grows",
		"our direct routing replaces Lenzen routing (see DESIGN.md); constants differ, shape preserved")
	return t, nil
}

// --- E3: contextual clique-finding row --------------------------------

func runE3(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e3", Title: "Censor-Hillel et al. clique finding (formula) vs clique listing LB (formula)",
		PaperBound: "finding O(n^{0.1572}) << listing Omega(n^{1/3}/log n)",
		Metric:     "findingBound",
		Cols:       []string{"findingBound", "listingLB", "separation"},
	}
	for _, n := range cfg.sizes() {
		fb := math.Pow(float64(n), 0.1572)
		lb := lower.PredictedListingRoundLB(n)
		t.AddPoint(n, map[string]float64{
			"findingBound": fb,
			"listingLB":    lb,
			"separation":   lb / fb,
		})
	}
	t.Finalize(func(n int) float64 { return math.Pow(float64(n), 0.1572) })
	t.Notes = append(t.Notes,
		"not re-implemented: requires distributed fast matrix multiplication over the clique (out of scope, see DESIGN.md)",
		"its Table-1 role — listing strictly harder than finding in the clique — is shown by the growing separation column")
	return t, nil
}

// --- E4: Theorem 1 finder ---------------------------------------------

func runE4(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e4", Title: "Theorem 1 finder on G(n,1/2) (plus planted / triangle-free checks)",
		PaperBound: "O(n^{2/3} (log n)^{2/3})",
		Metric:     "rounds",
		Cols:       []string{"rounds", "found", "plantedFound", "bipartiteFound", "totalBits"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 300 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		found, res, err := cells.FindTriangles(g, core.FinderOptions{}, cfg.simCfg(seed, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyFinding(g, oracleCount(g), res); err != nil {
			return nil, fmt.Errorf("e4 n=%d: %w", n, err)
		}
		gp, _ := graph.PlantedTriangles(n, 2+n/16, rng)
		pFound, pRes, err := cells.FindTriangles(gp, core.FinderOptions{}, cfg.simCfg(seed+1, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyOneSided(gp, pRes); err != nil {
			return nil, err
		}
		gb := graph.RandomBipartite(n/2, n-n/2, 0.5, rng)
		bFound, bRes, err := cells.FindTriangles(gb, core.FinderOptions{}, cfg.simCfg(seed+2, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyOneSided(gb, bRes); err != nil {
			return nil, err
		}
		if bFound {
			return nil, fmt.Errorf("e4 n=%d: impossible — triangle reported in a bipartite graph", n)
		}
		return map[string]float64{
			"rounds":         float64(res.ScheduledRounds),
			"found":          b2f(found),
			"plantedFound":   b2f(pFound),
			"bipartiteFound": b2f(bFound),
			"totalBits":      float64(res.Metrics.TotalBits()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// With the pure exponent n^eps = n^{1/3} (no log correction), one
	// repetition costs O(n^{2/3} (log n)^{3/2}): A1 is n^{2/3} and A3 is
	// r * iterations = n^{2/3} sqrt(log n) * log n. The paper's
	// log-corrected eps trades this down to the stated (log n)^{2/3}; the
	// polynomial exponent 2/3 — the quantity that decides who wins — is
	// identical.
	t.Finalize(func(n int) float64 {
		return math.Pow(float64(n), 2.0/3.0) * math.Pow(math.Log2(float64(n)), 1.5)
	})
	t.Notes = append(t.Notes,
		"theory column uses n^{2/3} (log n)^{3/2}, the bound for the pure eps=1/3 parameterization benchmarked here (paper's log-corrected eps gives (log n)^{2/3})")
	return t, nil
}

// --- E5: Theorem 2 lister ---------------------------------------------

func runE5(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e5", Title: "Theorem 2 lister on G(n,1/2)",
		PaperBound: "O(n^{3/4} log n)",
		Metric:     "rounds",
		Cols:       []string{"rounds", "reps", "triangles", "complete", "totalBits"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 400 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		res, err := cells.ListAllTriangles(g, core.ListerOptions{}, cfg.simCfg(seed, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		complete := 1.0
		if err := core.VerifyListing(g, oracleCount(g), res); err != nil {
			complete = 0 // probabilistic miss; reported, not fatal
		}
		if err := core.VerifyOneSided(g, res); err != nil {
			return nil, err
		}
		return map[string]float64{
			"rounds":    float64(res.ScheduledRounds),
			"reps":      float64(core.ListerOptions{}.Repetitions(n)),
			"triangles": float64(len(res.Union)),
			"complete":  complete,
			"totalBits": float64(res.Metrics.TotalBits()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// With the pure exponent n^eps = n^{1/2}, one repetition costs
	// O(n^{3/4} (log n)^{3/2}) (A3's r * iterations term) and there are
	// ceil(c log n) repetitions: n^{3/4} (log n)^{5/2} total. The paper's
	// log-corrected eps absorbs the extra polylogs into the stated
	// O(n^{3/4} log n); the polynomial exponent 3/4 is identical.
	t.Finalize(func(n int) float64 {
		return math.Pow(float64(n), 0.75) * math.Pow(math.Log2(float64(n)), 2.5)
	})
	t.Notes = append(t.Notes,
		"theory column uses n^{3/4} (log n)^{5/2}, the bound for the pure eps=1/2 parameterization benchmarked here (paper's log-corrected eps gives n^{3/4} log n)")
	return t, nil
}

// --- E6: contextual Drucker LB row ------------------------------------

func runE6(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e6", Title: "Drucker et al. conditional broadcast-CONGEST finding LB vs broadcast finders",
		PaperBound: "Omega(n / (e^{sqrt(log n)} log n)) conditional, broadcast CONGEST",
		Metric:     "bcastTwoHopRounds",
		Cols:       []string{"druckerLB", "bcastTwoHopRounds", "bcastA1Rounds", "a1HeavyFound"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 500 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		// A complete broadcast-CONGEST finder: two-hop exchange restricted
		// to the one-message-per-round broadcast channel.
		sched, mk := baseline.NewTwoHop(cfg.bandwidth(), g.MaxDegree())
		res, err := cells.RunSingle(g, sched, mk, cfg.simCfg(seed, sim.ModeBroadcast))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyListing(g, oracleCount(g), res); err != nil {
			return nil, fmt.Errorf("e6 n=%d: %w", n, err)
		}
		// Algorithm A1 is also broadcast-legal; on dense G(n,1/2) almost
		// every triangle is heavy, so it finds one with good probability in
		// O(n^{1-eps}) broadcast rounds.
		p := core.Params{N: n, Eps: core.EpsFindingPure, B: cfg.bandwidth()}
		s1, mk1 := core.NewA1(p)
		res1, err := cells.RunSingle(g, s1, mk1, cfg.simCfg(seed+1, sim.ModeBroadcast))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyOneSided(g, res1); err != nil {
			return nil, err
		}
		ln := math.Log(float64(n))
		dlb := float64(n) / (math.Exp(math.Sqrt(ln)) * ln)
		if float64(res.ScheduledRounds) < dlb {
			return nil, fmt.Errorf("e6 n=%d: broadcast lister beat the conditional LB shape — constants need review", n)
		}
		return map[string]float64{
			"druckerLB":         dlb,
			"bcastTwoHopRounds": float64(res.ScheduledRounds),
			"bcastA1Rounds":     float64(res1.ScheduledRounds),
			"a1HeavyFound":      b2f(len(res1.Union) > 0),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(func(n int) float64 {
		ln := math.Log(float64(n))
		return float64(n) / (math.Exp(math.Sqrt(ln)) * ln)
	})
	t.Notes = append(t.Notes,
		"both finders run in the genuine broadcast CONGEST model (unicast panics); the complete two-hop finder's rounds stay above the conditional LB shape at every size",
		"A1 alone is not a complete finder (heavy triangles only): its rounds grow as the sublinear n^{2/3}, though the constant 4 in its set cap keeps it above the linear baseline at these sizes")
	return t, nil
}

// --- E7: Theorem 3 lower-bound measurements ---------------------------

func runE7(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e7", Title: "Theorem 3 quantities for Dolev clique listing on G(n,1/2)",
		PaperBound: "|P(T_w)| = Omega(n^{4/3}); rounds = Omega(n^{1/3}/log n)",
		Metric:     "PTw",
		Cols: []string{"PTw", "Tw", "bitsRecvW", "infoFloor", "rivinFloor",
			"roundFloor", "measuredRounds", "lbShape"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 600 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		sched, mk, err := baseline.NewDolev(g, cfg.bandwidth(), baseline.DolevCubeRoot)
		if err != nil {
			return nil, err
		}
		res, err := cells.RunSingle(g, sched, mk, cfg.simCfg(seed, sim.ModeClique))
		if err != nil {
			return nil, err
		}
		rep := lower.Analyze(g, res.Outputs, res.Metrics)
		if err := rep.Check(); err != nil {
			return nil, fmt.Errorf("e7 n=%d: %w", n, err)
		}
		return map[string]float64{
			"PTw":            float64(rep.PTW),
			"Tw":             float64(rep.TW),
			"bitsRecvW":      float64(rep.BitsReceivedW),
			"infoFloor":      float64(rep.InfoFloorBits),
			"rivinFloor":     rep.RivinFloor,
			"roundFloor":     rep.RoundFloor,
			"measuredRounds": float64(res.ScheduledRounds),
			"lbShape":        lower.PredictedListingRoundLB(n),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(func(n int) float64 { return math.Pow(float64(n), 4.0/3.0) })
	t.Notes = append(t.Notes,
		"Check() verified on every row: bits received by w(T) >= |P(T_w)| - (n-1), and |P(T_w)| >= Rivin floor")
	return t, nil
}

// --- E8: Proposition 5 local-listing measurements ----------------------

func runE8(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e8", Title: "Proposition 5 quantities for local listing on G(n,1/2)",
		PaperBound: "each node receives Omega(n^2) bits => Omega(n/log n) rounds",
		Metric:     "maxNodeBits",
		Cols:       []string{"maxNodeBits", "minInfoFloor", "rounds", "lbShape"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 700 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		sched, mk := baseline.NewTwoHop(cfg.bandwidth(), g.MaxDegree())
		res, err := cells.RunSingle(g, sched, mk, cfg.simCfg(seed, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		reps := lower.AnalyzeLocal(g, res.Outputs, res.Metrics)
		if err := lower.CheckLocal(reps); err != nil {
			return nil, fmt.Errorf("e8 n=%d: %w", n, err)
		}
		var maxBits int64
		minFloor := int64(math.MaxInt64)
		for _, r := range reps {
			if r.BitsReceived > maxBits {
				maxBits = r.BitsReceived
			}
			if r.InfoFloorBits < minFloor {
				minFloor = r.InfoFloorBits
			}
		}
		return map[string]float64{
			"maxNodeBits":  float64(maxBits),
			"minInfoFloor": float64(minFloor),
			"rounds":       float64(res.ScheduledRounds),
			"lbShape":      lower.PredictedLocalRoundLB(n),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(func(n int) float64 { return float64(n) * float64(n) })
	return t, nil
}

// --- E9: trivial two-hop baseline -------------------------------------

func runE9(cfg Config) (*Table, error) {
	t := &Table{
		ID: "e9", Title: "Trivial two-hop lister on G(n,1/2): the linear-round baseline Thm 2 beats",
		PaperBound: "Theta(d_max) ~ n/2 rounds on dense graphs",
		Metric:     "rounds",
		Cols:       []string{"rounds", "dmax", "triangles"},
	}
	err := sweepSizes(t, cfg, func(i, n int) (map[string]float64, error) {
		seed := cfg.Seed + 800 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(n, 0.5, rng)
		sched, mk := baseline.NewTwoHop(cfg.bandwidth(), g.MaxDegree())
		res, err := cells.RunSingle(g, sched, mk, cfg.simCfg(seed, sim.ModeCONGEST))
		if err != nil {
			return nil, err
		}
		if err := core.VerifyListing(g, oracleCount(g), res); err != nil {
			return nil, fmt.Errorf("e9 n=%d: %w", n, err)
		}
		return map[string]float64{
			"rounds":    float64(res.ScheduledRounds),
			"dmax":      float64(g.MaxDegree()),
			"triangles": float64(len(res.Union)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Finalize(func(n int) float64 { return float64(n) / 2 })
	return t, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
