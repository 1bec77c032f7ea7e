package congest

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func gnpSpec(algo string) JobSpec {
	return JobSpec{
		Graph: GraphSpec{Generator: "gnp", N: 28, P: 0.5, Seed: 3},
		Algo:  algo,
		Seed:  7,
	}
}

// TestRunAllAlgorithms runs every algorithm through the facade and checks
// the verification verdicts that must hold deterministically.
func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range AlgorithmNames() {
		t.Run(algo, func(t *testing.T) {
			spec := gnpSpec(algo)
			if algo == "churn" {
				spec.Churn = &ChurnSpec{Workload: "flip", BatchSize: 8, Epochs: 3}
			}
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Meta.Algo != algo {
				t.Fatalf("meta algo %q", res.Meta.Algo)
			}
			if res.Graph.N != 28 {
				t.Fatalf("graph info n=%d", res.Graph.N)
			}
			if res.Verify == nil {
				t.Fatal("auto verification did not run")
			}
			// One-sided correctness can never fail; completeness/finding on
			// dense G(n,1/2) is probabilistic but these seeds succeed, and a
			// regression here must be noticed.
			if !res.Verify.OK {
				t.Fatalf("verify %s failed: %s", res.Verify.Mode, res.Verify.Detail)
			}
			if res.Meta.Cancelled {
				t.Fatal("uncancelled run marked cancelled")
			}
			if res.Meta.ExecutedRounds != res.Meta.ScheduledRounds {
				t.Fatalf("executed %d != scheduled %d", res.Meta.ExecutedRounds, res.Meta.ScheduledRounds)
			}
		})
	}
}

// TestRunDeterminism pins the facade's core contract: same spec, same
// result, across one-shot runs, sessions and repeated session use.
func TestRunDeterminism(t *testing.T) {
	spec := gnpSpec("list")
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	for i := 0; i < 3; i++ {
		b, err := s.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("session run %d differs from one-shot run", i)
		}
	}
}

// TestRunResultJSONRoundTrips checks the result model is losslessly
// serializable (the server contract).
func TestRunResultJSONRoundTrips(t *testing.T) {
	res, err := Run(context.Background(), gnpSpec("find"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("result JSON round trip lost data:\n%s", data)
	}
}

// TestRunInlineEdges checks the inline-edge graph source.
func TestRunInlineEdges(t *testing.T) {
	spec := JobSpec{
		Graph: GraphSpec{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}},
		Algo:  "twohop",
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.TriangleCount != 1 || res.Triangles[0] != (Triangle{0, 1, 2}) {
		t.Fatalf("got %v", res.Triangles)
	}
	if !res.Verify.OK {
		t.Fatalf("verify failed: %s", res.Verify.Detail)
	}
}

// TestRunLowerBound checks the Theorem-3 analysis rides along on a
// complete listing job.
func TestRunLowerBound(t *testing.T) {
	spec := gnpSpec("dolev")
	spec.LowerBound = true
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound == nil || !res.LowerBound.OK {
		t.Fatalf("lower-bound chain: %+v", res.LowerBound)
	}
	if res.LowerBound.PTW <= 0 {
		t.Fatal("no edges revealed by the largest output")
	}
}

// TestRunMaxTriangles checks the output cap leaves the count intact.
func TestRunMaxTriangles(t *testing.T) {
	spec := gnpSpec("list")
	spec.MaxTriangles = 2
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) != 2 {
		t.Fatalf("cap ignored: %d triangles", len(res.Triangles))
	}
	if res.TriangleCount <= 2 {
		t.Fatalf("count %d should exceed the cap on G(28, 1/2)", res.TriangleCount)
	}
	spec.MaxTriangles = -1
	res, err = Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != nil {
		t.Fatal("negative cap kept triangles")
	}
}

// TestChurnVerified checks the churn job's maintained set against the
// fresh oracle across all workloads.
func TestChurnVerified(t *testing.T) {
	for _, w := range []string{"window", "flip", "growth"} {
		spec := JobSpec{
			Graph: GraphSpec{Generator: "gnm", N: 48, K: 96, Seed: 5},
			Algo:  "churn",
			Seed:  11,
			Churn: &ChurnSpec{Workload: w, BatchSize: 24, Epochs: 4},
		}
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Churn == nil || res.Churn.Epochs != 4 {
			t.Fatalf("%s: churn summary %+v", w, res.Churn)
		}
		if !res.Verify.OK {
			t.Fatalf("%s: verify failed: %s", w, res.Verify.Detail)
		}
		if int64(res.TriangleCount) != res.Churn.FinalCount {
			t.Fatalf("%s: listed %d, maintained count %d", w, res.TriangleCount, res.Churn.FinalCount)
		}
	}
}

// TestSessionAlternatingGraphs follows the triserve "serve" traffic: jobs
// over four gnp(48, 0.2) graphs alternate through one Session, so its
// engine cache keeps moving pooled engines between graphs and back onto
// the same one (both by Engine.Rebind). Every Result must be
// byte-equal to the same job's in a fresh session.
func TestSessionAlternatingGraphs(t *testing.T) {
	algos := []string{"a1", "tester", "twohop", "count", "dolev"}
	s := NewSession()
	for i := 0; i < 20; i++ {
		spec := JobSpec{
			Graph: GraphSpec{Generator: "gnp", N: 48, P: 0.2, Seed: int64(i % 4)},
			Algo:  algos[i%len(algos)],
			Seed:  int64(100 + i),
		}
		got, err := s.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSession().Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("job %d (%s on graph %d): pooled Result differs from a fresh session's", i, spec.Algo, i%4)
		}
	}
}
