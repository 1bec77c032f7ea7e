// Package perf is the unified performance harness: the schema of the
// machine-readable benchmark trajectory file (BENCH_engine.json), the
// benchmark workload suites shared by `go test -bench` and the cmd/bench
// driver, and the baseline comparison that cmd/bench turns into a CI
// regression gate.
//
// The committed baseline files hold numbers from the machine that last
// regenerated them (see each run's go_version/goarch/gomaxprocs/num_cpu
// header), so the gate's machine-portable signals are allocs/op —
// deterministic for the sequential workloads — and the derived same-run
// speedup ratios; wall-time is compared only within a generous tolerance
// band. A baseline file holds one run per GOMAXPROCS setting (File.Runs),
// because parallel workloads have fundamentally different numbers at 1 and
// at >=4 procs; the gate selects the run matching the current setting.
// Re-baseline the current proc count's run with
//
//	UPDATE_BENCH=1 go run ./cmd/bench
//
// and the multicore run with GOMAXPROCS=4 prepended (CI gates both).
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// Entry is one benchmark's measured numbers — the row schema of the
// baseline file.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// Workload-specific throughput metrics (copied from the benchmark's
	// ReportMetric extras; zero values are omitted).
	TrianglesPerSec float64 `json:"triangles_per_sec,omitempty"`
	CellsPerSec     float64 `json:"cells_per_sec,omitempty"`
	EdgesPerSec     float64 `json:"edges_per_sec,omitempty"`
	RoundsPerSec    float64 `json:"rounds_per_sec,omitempty"`
	WordsPerSec     float64 `json:"words_per_sec,omitempty"`
	BytesPerSec     float64 `json:"bytes_per_sec,omitempty"`
	JobsPerSec      float64 `json:"jobs_per_sec,omitempty"`

	// NoAllocGate marks entries whose allocation count legitimately varies
	// across machines (parallel fan-outs allocate per GOMAXPROCS worker);
	// Compare skips the allocs check for them.
	NoAllocGate bool `json:"no_alloc_gate,omitempty"`
}

// Report is a full benchmark run: environment provenance, entries, and
// derived same-run ratios (speedups computed between entries of this run,
// which makes them machine-portable).
type Report struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU records the physical parallelism behind the run: a
	// GOMAXPROCS=4 run on a 1-core box (timesliced, honest but slow) and
	// on a 4-core box measure very different things, and the provenance
	// header is how a reader tells them apart.
	NumCPU  int                `json:"num_cpu,omitempty"`
	Entries []Entry            `json:"entries"`
	Derived map[string]float64 `json:"derived,omitempty"`
}

// NewReport returns a Report stamped with the current environment.
func NewReport() Report {
	return Report{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// EffectiveProcs is the parallelism a run can actually realize:
// min(GOMAXPROCS, NumCPU). Speedup floors key off this — demanding a 2x
// parallel speedup from a GOMAXPROCS=8 run on a single-core machine would
// gate on physics, not regressions.
func EffectiveProcs() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// Entry returns the named entry, if present.
func (r *Report) Entry(name string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Merge replaces or appends fresh entries into r (the partial-suite
// re-baseline path: entries not re-run keep their old numbers) and restamps
// the environment header.
func (r *Report) Merge(fresh Report) {
	for _, e := range fresh.Entries {
		replaced := false
		for i := range r.Entries {
			if r.Entries[i].Name == e.Name {
				r.Entries[i] = e
				replaced = true
				break
			}
		}
		if !replaced {
			r.Entries = append(r.Entries, e)
		}
	}
	r.GoVersion = fresh.GoVersion
	r.GOARCH = fresh.GOARCH
	r.GOMAXPROCS = fresh.GOMAXPROCS
	r.NumCPU = fresh.NumCPU
	r.ComputeDerived()
}

// derivedRatios defines the derived speedups: Key = ns_per_op(Num) /
// ns_per_op(Den). Each is computed within one run, so it compares two
// measurements from the same machine.
var derivedRatios = []struct{ Key, Num, Den string }{
	{"speedup_sparse_activity_vs_dense", "EngineStepSparse/dense", "EngineStepSparse/activity"},
	{"speedup_dynamic_incremental_vs_full", "DynamicApply/full", "DynamicApply/incremental"},
	{"speedup_oracle_list_par_vs_seq", "ListTriangles/seq", "ListTriangles/par"},
	{"speedup_oracle_count_par_vs_seq", "CountTriangles/seq", "CountTriangles/par"},
	{"speedup_sweep_par_vs_seq", "Sweep/seq", "Sweep/par"},
	{"speedup_service_par_vs_seq", "ServiceThroughput/seq", "ServiceThroughput/par"},
	{"speedup_large_load_csrbin_vs_text", "LargeLoad/text", "LargeLoad/csrbin"},
	{"speedup_large_sharded_vs_seq", "EngineStepLarge/seq", "EngineStepLarge/sharded"},
	{"speedup_large_job_auto_vs_one_shard", "LargeJob/one-shard", "LargeJob/auto"},
	{"checkpoint_restore_vs_coldstart", "Checkpoint/coldstart", "Checkpoint/restore"},
	// The fault layer's zero-overhead contract: a nil plan must run at the
	// plain sparse workload's speed (ratio ~1.0; floored), while the
	// loss+delay overhead factor (>= 1) just records what armed fault
	// coins cost per round.
	{"fault_nilplan_vs_sparse", "EngineStepSparse/activity", "EngineStepFaulty/nilplan"},
	{"fault_lossdelay_overhead", "EngineStepFaulty/lossdelay", "EngineStepFaulty/nilplan"},
}

// ComputeDerived rebuilds Derived from the ratio definitions, for every
// ratio whose two entries are present. The map is authoritative: keys no
// longer defined (renamed or retired ratios) are dropped rather than
// carried along forever by the merge path.
func (r *Report) ComputeDerived() {
	r.Derived = nil
	for _, d := range derivedRatios {
		num, okN := r.Entry(d.Num)
		den, okD := r.Entry(d.Den)
		if !okN || !okD || den.NsPerOp <= 0 {
			continue
		}
		if r.Derived == nil {
			r.Derived = map[string]float64{}
		}
		r.Derived[d.Key] = num.NsPerOp / den.NsPerOp
	}
}

// File is the committed baseline file's shape: one run per GOMAXPROCS
// setting, sorted ascending. Parallel workloads measure fundamentally
// different things at 1 and at >=4 procs, so each proc count keeps its own
// baseline and the gate compares like with like.
type File struct {
	Runs []Report `json:"runs"`
}

// RunFor returns the run whose GOMAXPROCS matches procs, and whether the
// match was exact. With no exact match it falls back to the nearest run
// (ties toward fewer procs) so a gate on an unbaselined proc count still
// has a band to compare against — the caller should surface the mismatch.
// Returns nil only for an empty file.
func (f *File) RunFor(procs int) (*Report, bool) {
	var best *Report
	for i := range f.Runs {
		r := &f.Runs[i]
		if r.GOMAXPROCS == procs {
			return r, true
		}
		if best == nil || absInt(r.GOMAXPROCS-procs) < absInt(best.GOMAXPROCS-procs) ||
			(absInt(r.GOMAXPROCS-procs) == absInt(best.GOMAXPROCS-procs) && r.GOMAXPROCS < best.GOMAXPROCS) {
			best = r
		}
	}
	return best, false
}

// MergeRun merges fresh into the run with the same GOMAXPROCS (replacing
// re-run entries, keeping the rest — the partial -suite path) or inserts it
// as a new run, keeping Runs sorted by GOMAXPROCS.
func (f *File) MergeRun(fresh Report) {
	for i := range f.Runs {
		if f.Runs[i].GOMAXPROCS == fresh.GOMAXPROCS {
			f.Runs[i].Merge(fresh)
			return
		}
	}
	fresh.ComputeDerived()
	f.Runs = append(f.Runs, fresh)
	sort.Slice(f.Runs, func(i, j int) bool { return f.Runs[i].GOMAXPROCS < f.Runs[j].GOMAXPROCS })
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// WriteFile writes the baseline file as indented JSON (the diffable
// committed form).
func WriteFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads a baseline written by WriteFile.
func ReadFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	return f, nil
}
