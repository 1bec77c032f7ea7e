package lower

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestAnalyzePicksMaxOutputNode(t *testing.T) {
	g := graph.Complete(5)
	outputs := make([][]graph.Triangle, 5)
	outputs[2] = graph.ListTriangles(g) // node 2 outputs everything
	outputs[4] = outputs[2][:1]
	m := sim.Metrics{
		WordBits:         sim.WordBits(5),
		PerNodeWordsRecv: []int64{0, 0, 1000, 0, 10},
		PerNodeWordsSent: make([]int64, 5),
	}
	rep := Analyze(g, outputs, m)
	if rep.WNode != 2 {
		t.Fatalf("w = %d, want 2", rep.WNode)
	}
	if rep.TW != 10 { // C(5,3)
		t.Fatalf("|T_w| = %d, want 10", rep.TW)
	}
	if rep.PTW != 10 { // all C(5,2) edges
		t.Fatalf("|P(T_w)| = %d, want 10", rep.PTW)
	}
	if rep.InfoFloorBits != 10-4 {
		t.Fatalf("info floor = %d, want 6", rep.InfoFloorBits)
	}
	if rep.TotalTriangles != 10 {
		t.Fatalf("total = %d", rep.TotalTriangles)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
}

func TestCheckDetectsInfoViolation(t *testing.T) {
	rep := Report{PTW: 100, RivinFloor: 1, InfoFloorBits: 50, BitsReceivedW: 10}
	if err := rep.Check(); err == nil {
		t.Fatal("bits below floor accepted")
	}
	rep = Report{PTW: 1, TW: 1000, RivinFloor: 47.1, BitsReceivedW: 1 << 20}
	if err := rep.Check(); err == nil {
		t.Fatal("Rivin violation accepted")
	}
}

func TestAnalyzeDedupesOutputs(t *testing.T) {
	g := graph.Complete(3)
	tr := graph.NewTriangle(0, 1, 2)
	outputs := [][]graph.Triangle{{tr, tr, tr}, nil, nil}
	m := sim.Metrics{WordBits: 2, PerNodeWordsRecv: make([]int64, 3), PerNodeWordsSent: make([]int64, 3)}
	rep := Analyze(g, outputs, m)
	if rep.TW != 1 {
		t.Fatalf("duplicates not collapsed: TW=%d", rep.TW)
	}
}

func TestAnalyzeLocalAndCheckLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Gnp(24, 0.5, rng)
	sched, mk := baseline.NewTwoHop(g.N(), 2, g.MaxDegree(), baseline.TwoHopLocal)
	res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	reps := AnalyzeLocal(g, res.Outputs, res.Metrics)
	if len(reps) != g.N() {
		t.Fatalf("got %d reports", len(reps))
	}
	if err := CheckLocal(reps); err != nil {
		t.Fatalf("real run failed the information floor: %v", err)
	}
	// Every node's P(T_i) must cover the triangles containing it.
	for _, r := range reps {
		want := len(graph.PEdges(graph.TrianglesOf(g, r.Node)))
		if r.PTI < want {
			t.Fatalf("node %d: PTI=%d < %d", r.Node, r.PTI, want)
		}
	}
	// Fabricated violation must be caught.
	bad := []LocalReport{{Node: 0, InfoFloorBits: 10, BitsReceived: 9}}
	if err := CheckLocal(bad); err == nil {
		t.Fatal("violation accepted")
	}
}

// TestTheoremThreeChainOnRealRuns: the measured chain must hold for every
// correct listing algorithm, across models and sizes.
func TestTheoremThreeChainOnRealRuns(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.Gnp(n, 0.5, rng)
		// CONGEST-clique run (Dolev).
		sched, mk, err := baseline.NewDolev(g, 2, baseline.DolevCubeRoot)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngineCache().RunSingle(g, sched, mk, sim.Config{Mode: sim.ModeClique, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		if err := Analyze(g, res.Outputs, res.Metrics).Check(); err != nil {
			t.Fatalf("clique n=%d: %v", n, err)
		}
		// CONGEST run (two-hop).
		s2, mk2 := baseline.NewTwoHop(g.N(), 2, g.MaxDegree(), baseline.TwoHopGlobal)
		res2, err := core.NewEngineCache().RunSingle(g, s2, mk2, sim.Config{Seed: int64(n + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := Analyze(g, res2.Outputs, res2.Metrics).Check(); err != nil {
			t.Fatalf("congest n=%d: %v", n, err)
		}
	}
}

func TestPredictedShapes(t *testing.T) {
	if PredictedListingRoundLB(1000) <= PredictedListingRoundLB(100) {
		t.Fatal("listing LB shape not increasing")
	}
	if PredictedLocalRoundLB(1000) <= PredictedLocalRoundLB(100) {
		t.Fatal("local LB shape not increasing")
	}
	if PredictedListingRoundLB(2) != 1 || PredictedLocalRoundLB(2) != 1 {
		t.Fatal("small-n guard missing")
	}
	// N/8 for G(n,1/2): C(4,3)/8 = 0.5.
	if ExpectedTrianglesGnpHalf(4) != 0.5 {
		t.Fatalf("expected triangles formula: %v", ExpectedTrianglesGnpHalf(4))
	}
}
