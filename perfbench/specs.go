package main

// metricSpec is one metric as BENCHMARK.json names it.
type metricSpec struct {
	name   string
	unit   string
	better string
}

// endToEndSpec lists the end-to-end metrics every untraced run
// reports, in BENCHMARK.json's order.  Each has a meaning on every
// workload; README.md gives it per workload.
var endToEndSpec = []metricSpec{
	{"pass_s", "s", "lower"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerSpec lists the per-layer metrics every traced run reports,
// in BENCHMARK.json's order.  A metric a workload does not exercise
// reads 0 there; README.md maps each to the end-to-end metric it
// should move and the workload it moves it on.
var perLayerSpec = []metricSpec{
	// Phases of a pass, from the trace run's untraced passes.
	{"campaign_s", "s", "lower"},
	{"reload_s", "s", "lower"},
	{"sweep_s", "s", "lower"},
	{"job_cold_units_per_s", "1/s", "higher"},
	{"job_resume_units_per_s", "1/s", "higher"},
	{"shard_units_per_s", "1/s", "higher"},
	{"job_cold.overhead_x", "x", "lower"},
	{"job_resume.overhead_x", "x", "lower"},
	{"shard.overhead_x", "x", "lower"},
	{"error_rate", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},

	// engine
	{"engine.busy_frac", "frac", "higher"},
	{"engine.tail_s", "s", "lower"},

	// core
	{"core.random_s", "s", "lower"},
	{"core.all8_s", "s", "lower"},
	{"core.transition_s", "s", "lower"},
	{"core.random_cycles_per_s", "cycles/s", "higher"},
	{"core.triggered_cycles_per_s", "cycles/s", "higher"},
	{"core.fit_ms", "ms", "lower"},
	{"core.encode_ms", "ms", "lower"},
	{"core.decode_ms", "ms", "lower"},
	{"core.unit_ms", "ms", "lower"},

	// workload, concentrix, monitor (the campaign replay)
	{"workload.boot_ms", "ms", "lower"},
	{"monitor.observed_cycles_per_s", "cycles/s", "higher"},
	{"concentrix.gap_cycles_per_s", "cycles/s", "higher"},
	{"monitor.trigger_hit_frac", "frac", "higher"},

	// store
	{"store.put_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.puts", "count", "lower"},
	{"store.gets", "count", "lower"},
	{"store.study_bytes", "bytes", "lower"},

	// experiments
	{"experiments.render_ms", "ms", "lower"},
	{"experiments.sweep_point_ms.sched", "ms", "lower"},
	{"experiments.sweep_point_ms.cache", "ms", "lower"},
	{"experiments.sweep_point_ms.ce", "ms", "lower"},

	// service
	{"service.unit_ms.p50", "ms", "lower"},
	{"service.unit_ms.p99", "ms", "lower"},
	{"service.batch_ms.p50", "ms", "lower"},
	{"service.batch_ms.p99", "ms", "lower"},
	{"service.backend_busy_frac.fast", "frac", "higher"},
	{"service.backend_busy_frac.slow", "frac", "higher"},
	{"service.shed", "count", "lower"},

	// coord
	{"coord.computed", "count", "lower"},
	{"coord.replayed", "count", "higher"},
	{"coord.stolen", "count", "lower"},
	{"coord.fast_share", "frac", "higher"},
	{"retry.retries", "count", "lower"},

	// remote
	{"remote.batches", "count", "lower"},
	{"remote.hedges", "count", "lower"},
	{"remote.reroutes", "count", "lower"},
	{"remote.fast_share", "frac", "higher"},

	// HTTP client, per phase
	{"http.requests.job_cold", "count", "lower"},
	{"http.requests.job_resume", "count", "lower"},
	{"http.requests.shard", "count", "lower"},
	{"http.conns.job_cold", "count", "lower"},
	{"http.conns.job_resume", "count", "lower"},
	{"http.conns.shard", "count", "lower"},
	{"http.req_bytes.job_cold", "bytes", "lower"},
	{"http.req_bytes.job_resume", "bytes", "lower"},
	{"http.req_bytes.shard", "bytes", "lower"},
	{"http.resp_bytes.job_cold", "bytes", "lower"},
	{"http.resp_bytes.job_resume", "bytes", "lower"},
	{"http.resp_bytes.shard", "bytes", "lower"},

	// Self time per layer: span time not covered by child spans.
	{"self_s.core", "s", "lower"},
	{"self_s.store", "s", "lower"},
	{"self_s.experiments", "s", "lower"},
	{"self_s.workload", "s", "lower"},
	{"self_s.monitor", "s", "lower"},
	{"self_s.concentrix", "s", "lower"},
	{"self_s.service", "s", "lower"},
	{"self_s.coord", "s", "lower"},
	{"self_s.remote", "s", "lower"},
	{"self_s.http", "s", "lower"},
	{"self_s.bench", "s", "lower"},
}
