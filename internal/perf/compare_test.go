package perf

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	rep := NewReport()
	rep.Entries = []Entry{
		{Name: "A/seq", NsPerOp: 100, AllocsPerOp: 3, TrianglesPerSec: 7},
		{Name: "A/par", NsPerOp: 50, AllocsPerOp: 40, NoAllocGate: true},
	}
	rep.Derived = map[string]float64{"x": 2}
	f := File{Runs: []Report{rep}}
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", f, got)
	}
}

func TestRunForAndMergeRun(t *testing.T) {
	var f File
	one := Report{GOMAXPROCS: 1, Entries: []Entry{{Name: "A", NsPerOp: 10}}}
	four := Report{GOMAXPROCS: 4, Entries: []Entry{{Name: "A", NsPerOp: 3}}}
	f.MergeRun(four)
	f.MergeRun(one)
	if len(f.Runs) != 2 || f.Runs[0].GOMAXPROCS != 1 || f.Runs[1].GOMAXPROCS != 4 {
		t.Fatalf("runs not sorted by gomaxprocs: %+v", f.Runs)
	}
	if r, exact := f.RunFor(4); !exact || r.GOMAXPROCS != 4 {
		t.Fatalf("RunFor(4) = %+v exact=%v", r, exact)
	}
	// No exact match: nearest, ties toward fewer procs.
	if r, exact := f.RunFor(2); exact || r.GOMAXPROCS != 1 {
		t.Fatalf("RunFor(2) = %+v exact=%v, want nearest run (1)", r, exact)
	}
	if r, exact := f.RunFor(16); exact || r.GOMAXPROCS != 4 {
		t.Fatalf("RunFor(16) = %+v exact=%v, want nearest run (4)", r, exact)
	}
	// Merging into an existing proc count replaces entries in place.
	f.MergeRun(Report{GOMAXPROCS: 4, Entries: []Entry{{Name: "A", NsPerOp: 2}}})
	if len(f.Runs) != 2 {
		t.Fatalf("merge grew runs: %+v", f.Runs)
	}
	if e, _ := f.Runs[1].Entry("A"); e.NsPerOp != 2 {
		t.Fatalf("merge did not replace: %+v", e)
	}
	// Empty file: nil, not a panic.
	var empty File
	if r, _ := empty.RunFor(1); r != nil {
		t.Fatalf("RunFor on empty file = %+v", r)
	}
}

// TestDefaultToleranceFor pins the proc-dependent floor contract: the
// machine-independent floors always present, the placement floor armed
// from 2 effective procs, and the multicore speedup floors armed only at
// >= 4.
func TestDefaultToleranceFor(t *testing.T) {
	lo := DefaultToleranceFor(1)
	for _, key := range []string{
		"speedup_sparse_activity_vs_dense",
		"speedup_dynamic_incremental_vs_full",
		"speedup_oracle_count_par_vs_seq",
		"speedup_oracle_list_par_vs_seq",
		"speedup_large_sharded_vs_seq",
		"fault_nilplan_vs_sparse",
	} {
		if _, ok := lo.Floors[key]; !ok {
			t.Fatalf("1-proc floors missing %s: %v", key, lo.Floors)
		}
	}
	if lo.Floors["speedup_oracle_count_par_vs_seq"] != 0.8 {
		t.Fatalf("1-proc count floor = %v, want the 0.8 par-not-worse guard", lo.Floors)
	}
	if lo.Floors["speedup_large_sharded_vs_seq"] != 0.5 {
		t.Fatalf("1-proc sharded floor = %v, want the 0.5 sharding-overhead guard", lo.Floors)
	}
	if _, ok := lo.Floors["speedup_large_job_auto_vs_one_shard"]; ok {
		t.Fatalf("1-proc floors arm the placement floor: %v", lo.Floors)
	}
	two := DefaultToleranceFor(2)
	if two.Floors["speedup_large_job_auto_vs_one_shard"] != 1.2 ||
		two.Floors["speedup_oracle_count_par_vs_seq"] != 0.8 {
		t.Fatalf("2-proc floors = %v", two.Floors)
	}
	hi := DefaultToleranceFor(4)
	if hi.Floors["speedup_large_job_auto_vs_one_shard"] != 1.2 ||
		hi.Floors["speedup_oracle_count_par_vs_seq"] != 2.0 ||
		hi.Floors["speedup_oracle_list_par_vs_seq"] != 1.5 ||
		hi.Floors["speedup_large_sharded_vs_seq"] != 1.2 {
		t.Fatalf("4-proc floors = %v", hi.Floors)
	}
}

func TestMergeReplacesAndAppends(t *testing.T) {
	base := Report{Entries: []Entry{
		{Name: "EngineStepSparse/dense", NsPerOp: 900},
		{Name: "EngineStepSparse/activity", NsPerOp: 300},
		{Name: "Old/only", NsPerOp: 5},
	}}
	fresh := NewReport()
	fresh.Entries = []Entry{
		{Name: "EngineStepSparse/activity", NsPerOp: 100},
		{Name: "New/bench", NsPerOp: 7},
	}
	base.Merge(fresh)
	if e, _ := base.Entry("EngineStepSparse/activity"); e.NsPerOp != 100 {
		t.Fatalf("replace failed: %+v", e)
	}
	if _, ok := base.Entry("Old/only"); !ok {
		t.Fatal("untouched entry dropped")
	}
	if _, ok := base.Entry("New/bench"); !ok {
		t.Fatal("new entry not appended")
	}
	// Derived recomputed from the merged entries: 900/100.
	if got := base.Derived["speedup_sparse_activity_vs_dense"]; got != 9 {
		t.Fatalf("derived = %v, want 9", got)
	}
}

func TestCompareBounds(t *testing.T) {
	base := Report{Entries: []Entry{
		{Name: "seq", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "par", NsPerOp: 100, AllocsPerOp: 1, NoAllocGate: true},
	}}
	tol := Tolerance{TimeFactor: 2, AllocFactor: 1.5, AllocSlack: 2}

	fresh := Report{Entries: []Entry{
		{Name: "seq", NsPerOp: 150, AllocsPerOp: 17}, // within 2x time, 10*1.5+2 allocs
		{Name: "par", NsPerOp: 150, AllocsPerOp: 500, NoAllocGate: true},
		{Name: "unbaselined", NsPerOp: 1e9, AllocsPerOp: 1e6},
	}}
	if regs := Compare(base, fresh, tol); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	fresh.Entries[0].NsPerOp = 201
	fresh.Entries[0].AllocsPerOp = 18
	regs := Compare(base, fresh, tol)
	if len(regs) != 2 {
		t.Fatalf("want time+allocs regressions, got %v", regs)
	}
	for _, r := range regs {
		if r.Name != "seq" || r.String() == "" {
			t.Fatalf("bad regression %+v", r)
		}
	}
}

func TestCompareFloors(t *testing.T) {
	tol := Tolerance{Floors: map[string]float64{"speedup_sparse_activity_vs_dense": 2}}
	fresh := Report{
		Entries: []Entry{
			{Name: "EngineStepSparse/dense", NsPerOp: 300},
			{Name: "EngineStepSparse/activity", NsPerOp: 200},
		},
		Derived: map[string]float64{"speedup_sparse_activity_vs_dense": 1.5},
	}
	regs := Compare(Report{}, fresh, tol)
	if len(regs) != 1 || regs[0].Metric != "derived" {
		t.Fatalf("want floor violation, got %v", regs)
	}

	// A partial run that never measured the pair is not a violation...
	if regs := Compare(Report{}, Report{}, tol); len(regs) != 0 {
		t.Fatalf("missing inputs flagged: %v", regs)
	}
	// ...but measuring the pair without the ratio is.
	fresh.Derived = nil
	if regs := Compare(Report{}, fresh, tol); len(regs) != 1 {
		t.Fatalf("measured-but-missing ratio not flagged: %v", regs)
	}
}
