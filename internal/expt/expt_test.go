package expt

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFitExponentExact(t *testing.T) {
	cases := []struct {
		name string
		exp  float64
	}{
		{"linear", 1}, {"sqrt", 0.5}, {"cubic", 3}, {"inverse", -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var xs, ys []float64
			for _, x := range []float64{8, 16, 32, 64, 128} {
				xs = append(xs, x)
				ys = append(ys, 5*math.Pow(x, tc.exp))
			}
			f, err := FitExponent(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(f.Exponent-tc.exp) > 1e-9 {
				t.Fatalf("exponent %v, want %v", f.Exponent, tc.exp)
			}
			if math.Abs(f.Scale-5) > 1e-6 {
				t.Fatalf("scale %v, want 5", f.Scale)
			}
			if f.R2 < 0.999999 {
				t.Fatalf("R2 %v for exact power law", f.R2)
			}
		})
	}
}

func TestFitExponentRejectsDegenerate(t *testing.T) {
	if _, err := FitExponent([]float64{2}, []float64{4}); err == nil {
		t.Fatal("want error for single point")
	}
	if _, err := FitExponent([]float64{2, 2}, []float64{4, 8}); err == nil {
		t.Fatal("want error for identical x")
	}
	if _, err := FitExponent([]float64{1, 2}, []float64{3}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if _, err := FitExponent([]float64{-1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("want error when no positive points remain")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Metric: "rounds", Cols: []string{"rounds"}}
	tbl.AddPoint(16, map[string]float64{"rounds": 8})
	tbl.AddPoint(64, map[string]float64{"rounds": 16})
	tbl.AddPoint(32, map[string]float64{"rounds": 11.3})
	tbl.Finalize(func(n int) float64 { return math.Sqrt(float64(n)) })
	if tbl.Points[0].N != 16 || tbl.Points[2].N != 64 {
		t.Fatal("points not sorted by n")
	}
	if math.Abs(tbl.Measured.Exponent-0.5) > 0.02 {
		t.Fatalf("measured exponent %v, want ~0.5", tbl.Measured.Exponent)
	}
	if math.Abs(tbl.Theory.Exponent-0.5) > 1e-9 {
		t.Fatalf("theory exponent %v, want 0.5", tbl.Theory.Exponent)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "rounds", "fitted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "n,rounds\n16,8\n") {
		t.Fatalf("csv unexpected:\n%s", buf.String())
	}
}

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%s) failed: %v", e.ID, err)
		}
		if e.Run == nil {
			t.Fatalf("experiment %s has no Run", e.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("want error for unknown id")
	}
}

// TestQuickExperimentsRun exercises every registered experiment end to end
// at smoke sizes; each experiment self-verifies correctness internally.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs all experiments")
	}
	cfg := Config{Quick: true, Seed: 42, Sizes: []int{20, 28, 36}}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Points) == 0 {
				t.Fatalf("%s: no points", e.ID)
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + buf.String())
		})
	}
}

// TestPaperExponents asserts the paper's round-complexity claims on the
// cmd/experiments -quick tables (sizes 24..64, seed 1), so a change that
// alters round behaviour fails here rather than in review:
//   - e4 (Theorem 1 finder) and e5 (Theorem 2 lister) fit a round exponent
//     within ±0.1 of their theory curve over the same sizes, with R² ≥ 0.95,
//     and every row found a triangle / listed all of them;
//   - e7 (Theorem 3) fits |P(T_w)| no flatter than its n^{4/3} theory
//     exponent minus 0.1 — the same band, one-sided because it is a lower
//     bound — and every row's measured rounds sit above the Ω(n^{1/3}/log n)
//     curve.
func TestPaperExponents(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs the quick e4, e5 and e7 sweeps")
	}
	const band = 0.1
	cfg := Config{Quick: true, Seed: 1}
	for _, tc := range []struct{ id, okCol string }{{"e4", "found"}, {"e5", "complete"}} {
		tbl := runQuick(t, tc.id, cfg)
		m, th := tbl.Measured, tbl.Theory
		if !m.OK || !th.OK || math.Abs(m.Exponent-th.Exponent) > band || m.R2 < 0.95 {
			t.Errorf("%s: rounds ~ n^%.3f (R2=%.3f, ok=%v), want within %.1f of theory n^%.3f with R2 >= 0.95",
				tc.id, m.Exponent, m.R2, m.OK, band, th.Exponent)
		}
		for _, p := range tbl.Points {
			if p.Vals[tc.okCol] != 1 {
				t.Errorf("%s n=%d: %s = %v, want 1", tc.id, p.N, tc.okCol, p.Vals[tc.okCol])
			}
		}
	}
	tbl := runQuick(t, "e7", cfg)
	if m, th := tbl.Measured, tbl.Theory; !m.OK || !th.OK || m.Exponent < th.Exponent-band {
		t.Errorf("e7: PTw ~ n^%.3f (ok=%v), want >= theory n^%.3f - %.1f", m.Exponent, m.OK, th.Exponent, band)
	}
	for _, p := range tbl.Points {
		if p.Vals["measuredRounds"] < p.Vals["lbShape"] {
			t.Errorf("e7 n=%d: %v rounds below the lower-bound curve %v", p.N, p.Vals["measuredRounds"], p.Vals["lbShape"])
		}
	}
}

func runQuick(t *testing.T, id string, cfg Config) *Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tbl
}
