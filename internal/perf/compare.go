package perf

import "fmt"

// Tolerance is the regression-gate band. The defaults (DefaultToleranceFor)
// are deliberately asymmetric: allocs/op is near-deterministic for the
// sequential workloads, so it is held tightly; wall-time is compared only
// within a generous factor because the committed baseline usually comes
// from a different machine; the derived same-run speedup ratios carry hard
// floors because they are machine-portable.
type Tolerance struct {
	// TimeFactor fails an entry when fresh ns/op exceeds baseline ns/op by
	// more than this factor. 0 disables the time check.
	TimeFactor float64
	// AllocFactor and AllocSlack fail an entry when fresh allocs/op exceed
	// baseline*AllocFactor + AllocSlack. 0 disables the allocs check.
	// Entries marked NoAllocGate (in either report) are always skipped.
	AllocFactor float64
	AllocSlack  int64
	// Floors are hard minima on the fresh report's derived ratios,
	// independent of the baseline (e.g. the sparse-scheduler speedup must
	// stay >= 2x). A floor whose ratio is absent from the fresh report is
	// only enforced when both underlying entries were measured.
	Floors map[string]float64
}

// DefaultToleranceFor returns the gate band for a run with the given
// effective parallelism (min of GOMAXPROCS and physical cores).
//
// The machine-independent floors always apply: the sparse-activity and
// incremental-dynamic speedups are algorithmic, and the par-vs-seq oracle
// ratios must never drop below 0.8 — the parallel path degenerates to the
// sequential one at 1 proc, so "parallel strictly worse than sequential"
// is a dispatch-overhead regression at any width, not a missing core.
//
// At >= 2 effective procs the session's placement must pay: a twohop job
// on gnp(10^5, 8/n) placed by the session must beat the same job pinned
// to one shard by >= 1.2x.
//
// At >= 4 effective procs the multicore floors arm: this is the "make
// parallel pay" contract — a 4-core machine must see >= 2x on streaming
// triangle counting, >= 1.5x on listing (output writing has a sequential
// tail), >= 1.2x from the sharded engine on the million-node round loop
// and >= 1.5x from the service worker pool. CI runs this on a 4-vCPU
// runner with -require-procs so the floors can never silently disarm.
func DefaultToleranceFor(procs int) Tolerance {
	floors := map[string]float64{
		"speedup_sparse_activity_vs_dense":    2.0,
		"speedup_dynamic_incremental_vs_full": 1.5,
		"speedup_oracle_count_par_vs_seq":     0.8,
		"speedup_oracle_list_par_vs_seq":      0.8,
		// Loading the million-node graph from the binary CSR container must
		// beat parsing the text edge list outright, on any machine — this is
		// the mmap pipeline's reason to exist and its regression tripwire.
		"speedup_large_load_csrbin_vs_text": 5.0,
		// Sharding must never cost more than 2x even with nothing to gain
		// from it (1 proc: same work plus staging overhead).
		"speedup_large_sharded_vs_seq": 0.5,
		// The durable service stack (admission, priority queue, journal
		// hooks, worker pool) must never cost more than 2x over running the
		// same jobs on one worker — at 1 proc the par run degenerates to the
		// seq one plus scheduling overhead, so the ratio sits near 1.0.
		"speedup_service_par_vs_seq": 0.5,
		// Restoring the round-4096 checkpoint of the sparse workload must
		// beat rebuilding that state by re-running from round 0 — otherwise
		// resume is pointless and cold start should be used instead. The
		// comparison is same-run and algorithmic (O(state) deserialize vs
		// O(rounds) re-execution), so it holds on any machine.
		"checkpoint_restore_vs_coldstart": 2.0,
		// With no fault plan set the engine must run at the plain sparse
		// workload's speed: EngineStepFaulty/nilplan is the identical
		// configuration re-measured in the same run, so the ratio is ~1.0
		// and anything below 0.85 means the nil-plan fast path picked up
		// per-round fault work. Same-run and same-workload, so it holds on
		// any machine at any proc count.
		"fault_nilplan_vs_sparse": 0.85,
	}
	if procs >= 2 {
		// A job the session places must run well faster than the same job
		// pinned to one shard once there is a second CPU to place it on.
		// At 1 proc both sides run on one shard, so a floor there would
		// only measure noise.
		floors["speedup_large_job_auto_vs_one_shard"] = 1.2
	}
	if procs >= 4 {
		floors["speedup_oracle_count_par_vs_seq"] = 2.0
		floors["speedup_oracle_list_par_vs_seq"] = 1.5
		// With real cores behind the shard fan-outs, the sharded engine
		// must pay on the million-node round loop.
		floors["speedup_large_sharded_vs_seq"] = 1.2
		// Independent jobs across a real pool must realize the worker
		// parallelism end to end, through admission and the queue.
		floors["speedup_service_par_vs_seq"] = 1.5
	}
	return Tolerance{
		TimeFactor:  4.0,
		AllocFactor: 1.25,
		AllocSlack:  64,
		Floors:      floors,
	}
}

// Regression is one violated bound.
type Regression struct {
	Name   string  // entry name or derived key
	Metric string  // "ns_per_op", "allocs_per_op" or "derived"
	Base   float64 // baseline value (or the floor, for derived checks)
	Fresh  float64
	Limit  float64 // the bound Fresh violated
}

func (r Regression) String() string {
	switch r.Metric {
	case "derived":
		return fmt.Sprintf("%s: derived ratio %.2f below floor %.2f", r.Name, r.Fresh, r.Limit)
	case "allocs_per_op":
		return fmt.Sprintf("%s: %d allocs/op, baseline %d (limit %d)", r.Name, int64(r.Fresh), int64(r.Base), int64(r.Limit))
	default:
		return fmt.Sprintf("%s: %.0f ns/op, baseline %.0f (limit %.0f)", r.Name, r.Fresh, r.Base, r.Limit)
	}
}

// Compare checks every fresh entry that has a baseline counterpart against
// the tolerance band, plus the derived floors. Entries without a baseline
// counterpart are new and pass (commit a re-baseline to start gating them);
// baseline entries not re-run are ignored (the partial -suite path).
func Compare(base, fresh Report, tol Tolerance) []Regression {
	var regs []Regression
	for _, f := range fresh.Entries {
		b, ok := base.Entry(f.Name)
		if !ok {
			continue
		}
		if tol.TimeFactor > 0 && b.NsPerOp > 0 {
			limit := b.NsPerOp * tol.TimeFactor
			if f.NsPerOp > limit {
				regs = append(regs, Regression{Name: f.Name, Metric: "ns_per_op", Base: b.NsPerOp, Fresh: f.NsPerOp, Limit: limit})
			}
		}
		if tol.AllocFactor > 0 && !f.NoAllocGate && !b.NoAllocGate {
			limit := int64(float64(b.AllocsPerOp)*tol.AllocFactor) + tol.AllocSlack
			if f.AllocsPerOp > limit {
				regs = append(regs, Regression{Name: f.Name, Metric: "allocs_per_op",
					Base: float64(b.AllocsPerOp), Fresh: float64(f.AllocsPerOp), Limit: float64(limit)})
			}
		}
	}
	for key, floor := range tol.Floors {
		v, ok := fresh.Derived[key]
		if !ok {
			// Enforce a missing ratio only when its inputs were measured:
			// a partial -suite run that skipped them is not a regression.
			if !derivedMeasurable(fresh, key) {
				continue
			}
			regs = append(regs, Regression{Name: key, Metric: "derived", Base: floor, Fresh: 0, Limit: floor})
			continue
		}
		if v < floor {
			regs = append(regs, Regression{Name: key, Metric: "derived", Base: floor, Fresh: v, Limit: floor})
		}
	}
	return regs
}

// derivedMeasurable reports whether both entries behind a derived ratio are
// present in the report.
func derivedMeasurable(r Report, key string) bool {
	for _, d := range derivedRatios {
		if d.Key != key {
			continue
		}
		_, okN := r.Entry(d.Num)
		_, okD := r.Entry(d.Den)
		return okN && okD
	}
	return false
}
