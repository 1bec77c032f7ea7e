// Command bench is the unified perf driver and CI regression gate: it runs
// the internal/perf benchmark suites (engine, oracle, sweep, dynamic,
// large),
// emits one consolidated report in the BENCH_engine.json schema, and
// compares it against the committed baseline within a tolerance band.
//
// Gate mode (the default) exits nonzero when any bound is violated:
//
//	go run ./cmd/bench                   # full matrix vs BENCH_engine.json
//	go run ./cmd/bench -suite engine     # one suite only
//	go run ./cmd/bench -benchtime 200ms  # faster, noisier
//
// Because the committed baseline usually comes from a different machine,
// the hard signals are allocs/op (tight band; parallel fan-outs exempt)
// and the derived same-run speedup ratios (hard floors — e.g. the sparse
// activity-scheduler speedup must stay >= 2x); wall-time is only held
// within a generous factor (-time-tol). Baseline files carry one run per
// GOMAXPROCS setting; the gate compares against the run matching this
// one's, and prints a note when that run's GOMAXPROCS, Go version or
// num_cpu differs from this one's. The floors themselves depend on
// effective parallelism (min(GOMAXPROCS, cores)): at >= 2 a twohop job
// the session places itself must beat the same job pinned to one shard
// by >= 1.2x, and at >= 4 the multicore speedup floors arm —
// parallel CountTriangles must beat sequential by >= 2x, the sharded
// million-node engine by >= 1.2x —
// and CI passes -require-procs 4 so that gate cannot silently run
// single-core and disarm them. Re-baseline the current proc count with
//
//	UPDATE_BENCH=1 go run ./cmd/bench    # or: go run ./cmd/bench -update
//
// Profile a run with -cpuprofile/-memprofile and inspect with go tool pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"repro/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	defer func() {
		if err := perf.RemoveLargeFiles(); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
		}
	}()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline   = fs.String("baseline", "BENCH_engine.json", "baseline report to gate against (and to rewrite with -update)")
		update     = fs.Bool("update", false, "re-baseline: write the fresh numbers to -baseline instead of gating (also UPDATE_BENCH=1)")
		suite      = fs.String("suite", "", "comma-separated suite filter (default: all); see -list")
		list       = fs.Bool("list", false, "list suites and benches, then exit")
		benchtime  = fs.String("benchtime", "1s", "per-bench measuring time (testing -benchtime syntax, e.g. 200ms or 100x)")
		timeTol    = fs.Float64("time-tol", 0, "ns/op tolerance factor (0 = package default)")
		allocTol   = fs.Float64("alloc-tol", 0, "allocs/op tolerance factor (0 = package default)")
		allocSlack = fs.Int64("alloc-slack", -1, "allocs/op absolute slack (-1 = package default)")
		floors     = fs.Bool("floors", true, "enforce hard floors on derived speedup ratios")
		reqProcs   = fs.Int("require-procs", 0, "fail unless at least this many effective procs (min of GOMAXPROCS and cores) are available — CI's guard against multicore floors silently disarming")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs := perf.EffectiveProcs()
	if *reqProcs > 0 && procs < *reqProcs {
		fmt.Fprintf(stderr, "bench: -require-procs %d, but only %d effective (GOMAXPROCS=%d, %d cores)\n",
			*reqProcs, procs, runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	tol := perf.DefaultToleranceFor(procs)
	if *timeTol > 0 {
		tol.TimeFactor = *timeTol
	}
	if *allocTol > 0 {
		tol.AllocFactor = *allocTol
	}
	if *allocSlack >= 0 {
		tol.AllocSlack = *allocSlack
	}
	if !*floors {
		tol.Floors = nil
	}

	suites := perf.Suites()
	if *list {
		for _, s := range suites {
			fmt.Fprintf(stdout, "%s:\n", s.Name)
			for _, b := range s.Benches {
				fmt.Fprintf(stdout, "  %s\n", b.Name)
			}
		}
		return 0
	}
	if *suite != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*suite, ",") {
			want[strings.TrimSpace(name)] = true
		}
		kept := suites[:0]
		for _, s := range suites {
			if want[s.Name] {
				kept = append(kept, s)
				delete(want, s.Name)
			}
		}
		if len(want) > 0 {
			names := make([]string, 0, len(want))
			for name := range want {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(stderr, "bench: unknown suite(s) %s (see -list)\n", strings.Join(names, ", "))
			return 2
		}
		suites = kept
	}

	// Route the requested benchtime to testing.Benchmark: in a non-test
	// binary the testing flags exist but are never parsed, so set the flag
	// value directly.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(stderr, "bench: bad -benchtime %q: %v\n", *benchtime, err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	fresh := perf.NewReport()
	fmt.Fprintf(stdout, "gomaxprocs=%d cores=%d effective=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), procs)
	for _, s := range suites {
		for _, b := range s.Benches {
			e := perf.Measure(b)
			if e.NsPerOp == 0 {
				// A workload that b.Fatal'd yields a zero BenchmarkResult,
				// which would sail under every bound — fail loudly instead.
				fmt.Fprintf(stderr, "bench: %s did not run (workload failed)\n", b.Name)
				return 2
			}
			fresh.Entries = append(fresh.Entries, e)
			fmt.Fprintf(stdout, "%-28s %14.0f ns/op %8d allocs/op\n", b.Name, e.NsPerOp, e.AllocsPerOp)
		}
	}
	fresh.ComputeDerived()
	printDerived(stdout, fresh)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}

	if *update || os.Getenv("UPDATE_BENCH") != "" {
		var merged perf.File
		if prev, err := perf.ReadFile(*baseline); err == nil {
			merged = prev
		}
		merged.MergeRun(fresh)
		if err := perf.WriteFile(*baseline, merged); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "re-baselined %s (gomaxprocs=%d run, %d runs total)\n", *baseline, fresh.GOMAXPROCS, len(merged.Runs))
		return 0
	}

	baseFile, err := perf.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "bench: cannot load baseline: %v\nrun UPDATE_BENCH=1 go run ./cmd/bench to create it\n", err)
		return 2
	}
	base, exact := baseFile.RunFor(fresh.GOMAXPROCS)
	if base == nil {
		fmt.Fprintf(stderr, "bench: baseline %s has no runs\nrun UPDATE_BENCH=1 go run ./cmd/bench to create one\n", *baseline)
		return 2
	}
	if !exact || base.GoVersion != fresh.GoVersion || base.NumCPU != fresh.NumCPU {
		fmt.Fprintf(stdout, "note: baseline run from %s GOMAXPROCS=%d num_cpu=%d, this run %s GOMAXPROCS=%d num_cpu=%d (wall-time compared at %.1fx tolerance)\n",
			base.GoVersion, base.GOMAXPROCS, base.NumCPU, fresh.GoVersion, fresh.GOMAXPROCS, fresh.NumCPU, tol.TimeFactor)
	}
	regs := perf.Compare(*base, fresh, tol)
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "regression gate: PASS (%d entries vs %s, gomaxprocs=%d run)\n", len(fresh.Entries), *baseline, base.GOMAXPROCS)
		return 0
	}
	fmt.Fprintf(stderr, "regression gate: FAIL (%d violations vs %s)\n", len(regs), *baseline)
	for _, r := range regs {
		fmt.Fprintf(stderr, "  %s\n", r)
	}
	fmt.Fprintf(stderr, "if intentional, re-baseline with UPDATE_BENCH=1 go run ./cmd/bench\n")
	return 1
}

func printDerived(w io.Writer, r perf.Report) {
	if len(r.Derived) == 0 {
		return
	}
	keys := make([]string, 0, len(r.Derived))
	for k := range r.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-40s %6.2fx\n", k, r.Derived[k])
	}
}
