package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/perf"
)

// runBench invokes run() with buffers and returns (exit, stdout, stderr).
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListSuites(t *testing.T) {
	code, out, _ := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"engine:", "oracle:", "sweep:", "dynamic:", "EngineStepSparse/activity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownSuite(t *testing.T) {
	code, _, errb := runBench(t, "-suite", "nope")
	if code != 2 || !strings.Contains(errb, "unknown suite") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestMissingBaselineAdvisesUpdate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_engine.json")
	code, _, errb := runBench(t, "-baseline", base, "-suite", "engine", "-benchtime", "1x")
	if code != 2 || !strings.Contains(errb, "UPDATE_BENCH=1") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

// TestGateLifecycle drives the full re-baseline -> pass -> regression
// cycle on the engine suite at 1 iteration per bench.
func TestGateLifecycle(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_engine.json")

	code, out, errb := runBench(t, "-baseline", base, "-suite", "engine", "-benchtime", "1x", "-update")
	if code != 0 {
		t.Fatalf("update: exit %d\nstderr: %s", code, errb)
	}
	if !strings.Contains(out, "re-baselined") {
		t.Fatalf("update output: %s", out)
	}
	file, err := perf.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 1 {
		t.Fatalf("baseline runs = %d, want 1", len(file.Runs))
	}
	rep := file.Runs[0]
	if _, ok := rep.Entry("EngineStepSparse/activity"); !ok {
		t.Fatalf("baseline missing sparse entry: %+v", rep.Entries)
	}
	if rep.NumCPU == 0 {
		t.Fatalf("baseline run missing num_cpu provenance: %+v", rep)
	}

	// Same machine, immediate re-run: the gate must pass. The time band is
	// opened wide and floors are off because a single sub-microsecond
	// iteration is pure timer noise — the wide speedup floors (sparse
	// fast-forward vs dense scan) would survive it, but the near-1.0
	// fault_nilplan_vs_sparse floor legitimately cannot. This test
	// exercises the gate mechanics, not timing stability; floor mechanics
	// are unit-tested in internal/perf (TestCompareFloors) and enforced
	// for real by CI's 500ms gate runs.
	code, out, errb = runBench(t, "-baseline", base, "-suite", "engine", "-benchtime", "1x", "-time-tol", "1e6", "-floors=false")
	if code != 0 {
		t.Fatalf("gate: exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "regression gate: PASS") {
		t.Fatalf("gate output: %s", out)
	}
	if strings.Contains(out, "note: baseline run from") {
		t.Fatalf("same-machine baseline noted as foreign: %s", out)
	}

	// Tamper the baseline so every wall-time bound is violated even at the
	// wide-open tolerance (limit becomes ~1ns).
	for i := range file.Runs[0].Entries {
		file.Runs[0].Entries[i].NsPerOp = 1e-6
	}
	if err := perf.WriteFile(base, file); err != nil {
		t.Fatal(err)
	}
	code, _, errb = runBench(t, "-baseline", base, "-suite", "engine", "-benchtime", "1x", "-time-tol", "1e6", "-floors=false")
	if code != 1 || !strings.Contains(errb, "regression gate: FAIL") {
		t.Fatalf("tampered gate: exit %d, stderr %q", code, errb)
	}
}

// TestBaselineFromOtherCPUCountNoted: a baseline run recorded with a
// different num_cpu, but the same GOMAXPROCS and Go version, is a
// time-sliced or wider machine, so the gate notes it beside its wall-time
// comparison.
func TestBaselineFromOtherCPUCountNoted(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if code, _, errb := runBench(t, "-baseline", base, "-suite", "engine", "-benchtime", "1x", "-update"); code != 0 {
		t.Fatalf("update: exit %d\nstderr: %s", code, errb)
	}
	file, err := perf.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	file.Runs[0].NumCPU = runtime.NumCPU() + 3
	if err := perf.WriteFile(base, file); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runBench(t, "-baseline", base, "-suite", "engine", "-benchtime", "1x", "-time-tol", "1e6", "-floors=false")
	if code != 0 {
		t.Fatalf("gate: exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	want := fmt.Sprintf("num_cpu=%d, this run %s GOMAXPROCS=%d num_cpu=%d", runtime.NumCPU()+3, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if !strings.Contains(out, "note: baseline run from") || !strings.Contains(out, want) {
		t.Fatalf("gate output lacks the num_cpu note %q:\n%s", want, out)
	}
}

// TestRequireProcs checks the CI guard: asking for more effective procs
// than the machine has must fail fast, before any benchmark runs.
func TestRequireProcs(t *testing.T) {
	code, _, errb := runBench(t, "-require-procs", "100000")
	if code != 2 || !strings.Contains(errb, "-require-procs") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	// A satisfiable requirement proceeds past the guard (and then fails on
	// the unknown suite, proving the guard did not exit).
	code, _, errb = runBench(t, "-require-procs", "1", "-suite", "nope")
	if code != 2 || !strings.Contains(errb, "unknown suite") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

// TestProfileFlags checks -cpuprofile/-memprofile produce non-empty pprof
// files alongside a normal run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_prof.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, errb := runBench(t, "-baseline", base, "-suite", "dynamic", "-benchtime", "1x", "-update",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
