package main

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run (tracing off), printed for every
// workload. An op is one operation of the workload: a fresh-flow baseline
// analysis, one sweep, or one served query (timed from its due time).
//
// The median op time goes to the run metadata, not here: on a host whose
// speed flips between two levels every few seconds, the median lands in
// either mode and moved by 31% (IQR over median) across ten fig6-sweep runs,
// while the 90th percentile, which lands in the slower mode, moved by 7%.
var endToEnd = []metricDef{
	{"setup_s", "s"},          // median of repeated set-ups: inputs, flow/server, warm-up
	{"op_ms_p90", "ms"},       // 90th-percentile op wall time
	{"alloc_mb_per_op", "MB"}, // heap bytes allocated per op
	{"heap_live_mb", "MB"},    // live heap after a forced GC at the end of the window
}

// perLayer are the metrics of a traced run, per op (ms unless the unit says
// otherwise), printed for every workload; a layer a workload's ops never
// reach reads 0 there. README.md's layer table says which end-to-end metric
// each should move, and on which workloads.
var perLayer = []metricDef{
	{"logicsim.ms", "ms"},
	{"floorplan.ms", "ms"},
	{"place.spread_ms", "ms"},
	{"place.reflow_ms", "ms"},
	{"place.refine_ms", "ms"},
	{"place.fillers_ms", "ms"},
	{"place.refine_swaps", "count"},
	{"power.estimate_ms", "ms"},
	{"power.update_ms", "ms"},
	{"power.map_ms", "ms"},
	{"power.dirty_nets", "count"},
	{"thermal.setup_ms", "ms"},
	{"thermal.solve_ms", "ms"},
	{"thermal.solves", "count"},
	{"thermal.cg_iters", "count"},
	{"thermal.retries", "count"},
	{"hotspot.ms", "ms"},
	{"timing.ms", "ms"},
	{"congestion.ms", "ms"},
	{"core.eri_ms", "ms"},
	{"core.hw_ms", "ms"},
	{"core.triage_ms", "ms"},
	{"core.triage.candidates", "count"},
	{"core.triage.survivors", "count"},
	{"core.triage.coarse_solves", "count"},
	{"core.triage.exact_solves", "count"},
	{"core.triage.front_pct", "%"},
	{"serve.hit_pct", "%"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.analyze_ms_p50", "ms"},
	{"serve.eri_ms_p50", "ms"},
	{"serve.hw_ms_p50", "ms"},
	{"serve.sweep_ms_p50", "ms"},
	{"serve.evicted", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
}
