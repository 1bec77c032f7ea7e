package main

// metricDef is one reported metric. moves names the end-to-end metric
// (workload/metric) a change to the layer should move; BENCHMARK.json lists
// the same names and units, and a test keeps the two in step.
type metricDef struct {
	name, unit, moves string
	layer             bool // reported by the traced run
}

var metricTable = []metricDef{
	// End to end, measured over triserve with tracing off.
	{"setup_s", "s", "spawn until /healthz answers and one warm-up pass over every distinct spec is done", false},
	{"jobs_per_s", "1/s", "completed jobs over the wall time of the fixed job list", false},
	{"latency_p50_s", "s", "median request latency as the client sees it", false},
	{"latency_tail_s", "s", "highest percentile with at least 10 samples beyond it", false},
	{"peak_rss_mb", "MiB", "triserve's VmHWM", false},

	// internal/httpapi, timed the way its handlers call into congest.
	{"httpapi.decode_s", "s", "serve/latency_p50_s", true},
	{"httpapi.encode_s", "s", "serve/jobs_per_s", true},
	{"httpapi.response_bytes", "bytes", "serve/jobs_per_s", true},
	// congest.Service.
	{"service.submit_s", "s", "serve/jobs_per_s", true},
	{"service.wait_s", "s", "serve/latency_tail_s, paper/latency_tail_s", true},
	{"service.finish_s", "s", "serve/latency_p50_s", true},
	// internal/journal and the job store.
	{"journal.bytes_per_job", "bytes", "serve/jobs_per_s", true},
	{"journal.records_per_job", "count", "serve/jobs_per_s", true},
	{"journal.open_s", "s", "serve/setup_s", true},
	{"journal.replay_s", "s", "serve/setup_s", true},
	// congest.Session.
	{"session.run_s", "s", "latency_p50_s on every workload", true},
	{"session.prepare_s", "s", "large/latency_p50_s", true},
	{"session.finish_s", "s", "paper/latency_p50_s", true},
	{"session.graph_s", "s", "large/setup_s, paper/setup_s", true},
	{"session.graph_cold", "count", "large/setup_s, paper/setup_s", true},
	// internal/core, by segment family.
	{"core.a1_s", "s", "paper/jobs_per_s", true},
	{"core.a2_s", "s", "paper/jobs_per_s", true},
	{"core.a3_s", "s", "paper/jobs_per_s", true},
	{"core.run_s", "s", "serve/jobs_per_s, large/jobs_per_s", true},
	// internal/sim.
	{"sim.first_round_s", "s", "large/latency_p50_s, large/jobs_per_s", true},
	{"sim.round_us", "us", "paper/jobs_per_s", true},
	{"sim.rounds", "count", "none: exact, pins Theorems 1-2", true},
	{"sim.fast_forwarded_rounds", "count", "none: exact", true},
	{"sim.words", "count", "none: exact", true},
	// internal/graph.
	{"graph.load_s", "s", "large/setup_s", true},
	{"graph.oracle_s", "s", "paper/latency_p50_s", true},
	// Go runtime, over the traced service pass.
	{"runtime.allocs_per_job", "count", "serve/jobs_per_s, paper/jobs_per_s", true},
	{"runtime.alloc_bytes_per_job", "bytes", "paper/jobs_per_s, large/peak_rss_mb", true},
	{"runtime.gc_pause_s", "s", "serve/jobs_per_s", true},
	// The benchmark's own tracing.
	{"tracing.overhead", "ratio", "none", true},
}

func unitOf(name string) string {
	for _, m := range metricTable {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}
