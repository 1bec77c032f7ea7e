package expt

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Fault-degradation family: the paper's algorithms (and the baseline
// listers) re-run under the deterministic fault layer — crash-stop nodes,
// lossy links, adversarial delay — sweeping fault severity against the
// whole algo panel. Rows are severities (percent of nodes crashed, percent
// link loss, max delay rounds); per row every panel algorithm runs twice
// over the same graph and seed, fault-free and faulted, and reports output
// degradation. recall(algo) is the fraction of the algorithm's own
// fault-free output it still produces (1 - recall is the partial-output
// rate); wrongRate is the fraction of all faulted outputs that are not
// triangles of G (the protocols assume reliable channels, so loss can make
// them emit garbage — measuring that is the experiment); rounds and words
// aggregate rounds-to-completion and words delivered across the panel. The
// severity-0 row is the anchor: recall 1, wrongRate 0 by construction.

// faultSeverities returns the crash/loss percentage rows.
func (c Config) faultSeverities() []int {
	if c.Quick {
		return []int{0, 10, 30}
	}
	return []int{0, 5, 10, 20, 40}
}

// faultDelays returns the max-delay rows (rounds).
func (c Config) faultDelays() []int {
	if c.Quick {
		return []int{0, 2, 6}
	}
	return []int{0, 1, 2, 4, 8}
}

// faultSize picks the panel's network size: the largest configured size,
// capped at 96 — the panel is 2 runs x |algos| x |rows| on one graph, so it
// trades the top sweep sizes for row coverage.
func (c Config) faultSize() int {
	sizes := c.sizes()
	n := sizes[0]
	for _, s := range sizes {
		if s <= 96 {
			n = s
		}
	}
	return n
}

// faultAlgo is one panel entry: an algorithm run over a prebuilt graph
// under an arbitrary sim config (the fault plan rides cfg.Faults).
type faultAlgo struct {
	name string
	mode sim.Mode
	run  func(scfg sim.Config) (core.Result, error)
}

// faultPanel builds the algo panel over g: the paper's subroutines and
// composed protocols in CONGEST, plus the clique and broadcast baselines.
func faultPanel(cfg Config, g *graph.Graph) ([]faultAlgo, error) {
	n, bw := g.N(), cfg.bandwidth()
	pf := core.Params{N: n, Eps: core.EpsFindingPure, B: bw}
	pl := core.Params{N: n, Eps: core.EpsListingPure, B: bw}
	single := func(sched *sim.Schedule, mk func(id int) sim.Node) func(sim.Config) (core.Result, error) {
		return func(scfg sim.Config) (core.Result, error) {
			return cells.RunSingle(g, sched, mk, scfg)
		}
	}
	s1, mk1 := core.NewA1(pf)
	s2, mk2, err := core.NewA2(pf)
	if err != nil {
		return nil, err
	}
	s3, mk3 := core.NewA3(pl)
	sx, mkx := core.NewAXR(pl, core.AXROptions{})
	dsched, dmk, err := baseline.NewDolev(g, bw, baseline.DolevCubeRoot)
	if err != nil {
		return nil, err
	}
	bsched, bmk := baseline.NewTwoHop(bw, g.MaxDegree())
	return []faultAlgo{
		{"a1", sim.ModeCONGEST, single(s1, mk1)},
		{"a2", sim.ModeCONGEST, single(s2, mk2)},
		{"a3", sim.ModeCONGEST, single(s3, mk3)},
		{"axr", sim.ModeCONGEST, single(sx, mkx)},
		{"find", sim.ModeCONGEST, func(scfg sim.Config) (core.Result, error) {
			_, res, err := cells.FindTriangles(g, core.FinderOptions{}, scfg)
			return res, err
		}},
		{"list", sim.ModeCONGEST, func(scfg sim.Config) (core.Result, error) {
			return cells.ListAllTriangles(g, core.ListerOptions{}, scfg)
		}},
		{"test", sim.ModeCONGEST, func(scfg sim.Config) (core.Result, error) {
			_, res, err := cells.TestTriangleFreeness(g, 16, scfg)
			return res, err
		}},
		{"dolev", sim.ModeClique, single(dsched, dmk)},
		{"bcast2hop", sim.ModeBroadcast, single(bsched, bmk)},
	}, nil
}

// crashPlanFor spreads pct% crash-stop kills (at least one for pct>0)
// across seeded node picks, with crash rounds cycling over the early
// rounds so every schedule length gets hit mid-protocol.
func crashPlanFor(seed int64, n, pct int) *faults.Plan {
	k := n * pct / 100
	if pct > 0 && k == 0 {
		k = 1
	}
	if k == 0 {
		return nil
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	p := &faults.Plan{Seed: seed}
	for i := 0; i < k; i++ {
		p.Crashes = append(p.Crashes, faults.Crash{Node: perm[i], Round: 1 + i%6})
	}
	return p
}

func runFaultsCrash(cfg Config) (*Table, error) {
	return runFaults(cfg, "faults-crash", "crashed nodes (% of n)", cfg.faultSeverities(),
		func(seed int64, n, x int) *faults.Plan { return crashPlanFor(seed, n, x) })
}

func runFaultsLoss(cfg Config) (*Table, error) {
	return runFaults(cfg, "faults-loss", "per-link word loss (%)", cfg.faultSeverities(),
		func(seed int64, n, x int) *faults.Plan {
			if x == 0 {
				return nil
			}
			return &faults.Plan{Seed: seed, Loss: float64(x) / 100}
		})
}

func runFaultsDelay(cfg Config) (*Table, error) {
	return runFaults(cfg, "faults-delay", "max per-link delay (rounds)", cfg.faultDelays(),
		func(seed int64, n, x int) *faults.Plan {
			if x == 0 {
				return nil
			}
			return &faults.Plan{Seed: seed, DelayMax: x}
		})
}

// runFaults is the shared sweep. Cells are (severity, algo) pairs fanned
// across the worker pool; each runs the algorithm fault-free and faulted
// on the shared graph and measures the degradation.
func runFaults(cfg Config, id, axis string, rows []int, mkPlan func(seed int64, n, x int) *faults.Plan) (*Table, error) {
	n := cfg.faultSize()
	rng := rand.New(rand.NewSource(cfg.Seed + 9000))
	g := graph.Gnp(n, 0.5, rng)
	panel, err := faultPanel(cfg, g)
	if err != nil {
		return nil, err
	}
	oracle := make(graph.TriangleSet)
	for _, tr := range graph.ListTriangles(g) {
		oracle.Add(tr)
	}

	cols := make([]string, 0, len(panel)+3)
	for _, a := range panel {
		cols = append(cols, "recall("+a.name+")")
	}
	cols = append(cols, "wrongRate", "rounds", "words")
	t := &Table{
		ID: id, Title: fmt.Sprintf("Fault degradation on G(%d,1/2); rows: %s", n, axis),
		PaperBound: "protocols assume reliable synchronous channels; degradation under faults is measured, not bounded",
		Metric:     "recall(list)",
		Cols:       cols,
	}

	type cell struct {
		x, algo       int
		recall, wrong float64
		outputs       float64
		rounds, words float64
	}
	cs, err := runCells(cfg, len(rows)*len(panel), func(i int) (cell, bool, error) {
		x, a := rows[i/len(panel)], panel[i%len(panel)]
		seed := cfg.Seed + 9100 + int64(i/len(panel))
		scfg := cfg.simCfg(cfg.Seed+9200+int64(i%len(panel)), a.mode)
		base, err := a.run(scfg)
		if err != nil {
			return cell{}, false, fmt.Errorf("%s %s x=%d baseline: %w", id, a.name, x, err)
		}
		plan := mkPlan(seed, n, x)
		if err := plan.ValidateFor(n); err != nil {
			return cell{}, false, fmt.Errorf("%s x=%d: %w", id, x, err)
		}
		scfg.Faults = plan
		res, err := a.run(scfg)
		if err != nil {
			return cell{}, false, fmt.Errorf("%s %s x=%d: %w", id, a.name, x, err)
		}
		c := cell{x: x, algo: i % len(panel),
			rounds: float64(res.Meta.ExecutedRounds), words: float64(res.Metrics.WordsDelivered)}
		kept := 0
		for tr := range res.Union {
			if _, ok := base.Union[tr]; ok {
				kept++
			}
			if _, ok := oracle[tr]; !ok {
				c.wrong++
			}
			c.outputs++
		}
		if len(base.Union) == 0 {
			c.recall = 1
		} else {
			c.recall = float64(kept) / float64(len(base.Union))
		}
		return c, true, nil
	})
	if err != nil {
		return nil, err
	}

	for _, x := range rows {
		vals := map[string]float64{}
		var wrong, outputs float64
		for _, c := range cs {
			if c.x != x {
				continue
			}
			vals["recall("+panel[c.algo].name+")"] = c.recall
			vals["rounds"] += c.rounds
			vals["words"] += c.words
			wrong += c.wrong
			outputs += c.outputs
		}
		if outputs > 0 {
			vals["wrongRate"] = wrong / outputs
		}
		t.AddPoint(x, vals)
	}
	t.Finalize(nil)
	t.Notes = append(t.Notes,
		"recall(algo): fraction of the algorithm's own fault-free output still produced under the row's faults (1 - recall = partial-output rate); severity 0 anchors at 1",
		"wrongRate: faulted outputs that are not triangles of G, over all outputs — reliable-channel protocols may emit garbage under loss",
		"rounds/words: executed rounds and delivered words summed over the panel's faulted runs")
	return t, nil
}
