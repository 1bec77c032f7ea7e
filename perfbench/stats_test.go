package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
)

// ramp returns n, n-1, ..., 1: descending, so the helpers must sort.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailOf(t *testing.T) {
	cases := []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{8000, 7920, 99, 80}, // p99.9 would leave only 8 beyond
		{10010, 10000, 99.9, 10},
		{144, 130, 90, 14},
		{40, 30, 75, 10},
		{19, 19, 100, 0}, // p50 would leave only 9 beyond: the maximum instead
	}
	for _, c := range cases {
		got := tailOf(ramp(c.n))
		if got.Value != c.value || math.Abs(got.Percentile-c.pct) > 1e-9 || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("tailOf(%d samples) = %+v, want value %v at p%.4g with %d beyond", c.n, got, c.value, c.pct, c.beyond)
		}
	}
	if got := tailOf(nil); !math.IsNaN(got.Value) || got.Samples != 0 {
		t.Errorf("tailOf(nil) = %+v, want NaN over 0 samples", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median(ramp(4)); got != 2.5 {
		t.Errorf("median(4,3,2,1) = %v, want 2.5", got)
	}
}

func TestTallyAccounting(t *testing.T) {
	var tl tally
	if tl.correct() {
		t.Error("a run that attempted nothing is not correct")
	}
	ref := []byte(`{"found":true}`)
	tl.record(checkResponse(http.StatusOK, ref, ref, nil))
	if !tl.correct() {
		t.Fatalf("an exact 200 reply failed: %+v", tl)
	}
	failures := []struct {
		name string
		err  error
	}{
		{"429", checkResponse(http.StatusTooManyRequests, []byte(`{"error":"queue full at 1024"}`), ref, nil)},
		{"different bytes", checkResponse(http.StatusOK, []byte(`{"found":false}`), ref, nil)},
		{"transport error", checkResponse(0, nil, ref, errors.New("connection refused"))},
	}
	for _, f := range failures {
		if f.err == nil {
			t.Errorf("%s passed the gate", f.name)
		}
		tl.record(f.err)
	}
	if tl.attempted != 4 || tl.failed != 3 || tl.correct() {
		t.Errorf("after 1 pass and 3 failures: %+v, correct=%v", tl, tl.correct())
	}
	if !strings.Contains(tl.firstErr, "429") {
		t.Errorf("first failure %q should be the 429", tl.firstErr)
	}
	var sum tally
	sum.add(tally{attempted: 2})
	sum.add(tl)
	if sum.attempted != 6 || sum.failed != 3 || sum.firstErr != tl.firstErr {
		t.Errorf("merged tally %+v", sum)
	}
}

func TestCheckVerified(t *testing.T) {
	if err := checkVerified([]byte(`{"verify":{"mode":"listing","ok":true}}`)); err != nil {
		t.Errorf("verified result refused: %v", err)
	}
	for _, body := range []string{
		`{"verify":{"mode":"finding","ok":false,"detail":"G has triangles but none was found"}}`,
		`{"found":true}`,
		`not json`,
	} {
		if checkVerified([]byte(body)) == nil {
			t.Errorf("checkVerified(%s) passed", body)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 3, End: 6, Parent: 0},  // overlaps a
		{Name: "c", Start: 8, End: 12, Parent: 0}, // runs past its parent
		{Name: "g", Start: 2, End: 3, Parent: 1},  // child of a
	}
	// root is covered by [1,6] and [8,10]: 7 of its 10 seconds.
	want := map[string]float64{"root": 3, "a": 2, "b": 3, "c": 4, "g": 1}
	got := selfTimes(spans)
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestSelfTimesTileASessionRun(t *testing.T) {
	// One RunObserved call as sessionSpans records it: the self times of
	// its layers add up to the call, leaving the root nothing.
	spans := []span{
		{Name: "session.run", Start: 0, End: 1, Parent: -1},
		{Name: "session.prepare", Start: 0, End: 0.1, Parent: 0},
		{Name: "core.a1", Start: 0.1, End: 0.4, Parent: 0},
		{Name: "sim.first_round", Start: 0.1, End: 0.15, Parent: 2},
		{Name: "core.a3", Start: 0.4, End: 0.9, Parent: 0},
		{Name: "sim.first_round", Start: 0.4, End: 0.5, Parent: 4},
		{Name: "session.finish", Start: 0.9, End: 1, Parent: 0},
	}
	self := selfTimes(spans)
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 || math.Abs(self["session.run"]) > 1e-12 {
		t.Errorf("self times %v sum to %v, want 1 with nothing left to session.run", self, sum)
	}
	if math.Abs(self["core.a1"]-0.25) > 1e-12 || math.Abs(self["sim.first_round"]-0.15) > 1e-12 {
		t.Errorf("segment self times %v", self)
	}
}

func TestFamily(t *testing.T) {
	cases := []struct{ seg, algo, want string }{
		{"a1#0", "find", "a1"},
		{"a3#4", "list", "a3"},
		{"a2#1", "list", "a2"},
		{"run", "a1", "a1"},
		{"run", "tester", "run"},
	}
	for _, c := range cases {
		if got := family(c.seg, c.algo); got != c.want {
			t.Errorf("family(%q, %q) = %q, want %q", c.seg, c.algo, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the harness's metric table and the
// metric lists in BENCHMARK.json in step, names and units both.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range b.EndToEnd {
		declared["e2e "+m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared["layer "+m.Name] = m.Unit
	}
	for _, m := range metricTable {
		key := "e2e " + m.name
		if m.layer {
			key = "layer " + m.name
		}
		if u, ok := declared[key]; !ok || u != m.unit {
			t.Errorf("%s (%s) is not declared with that unit in BENCHMARK.json (got %q)", key, m.unit, u)
		}
		delete(declared, key)
	}
	for k := range declared {
		t.Errorf("BENCHMARK.json declares %s, which the harness never reports", k)
	}
}
