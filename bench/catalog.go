package main

import (
	"fmt"
	"math"
)

// metricKind says where a metric is reported.
type metricKind uint8

const (
	// endToEnd metrics are what a user of the simulator sees; reported
	// with --trace 0 and bounded in BENCHMARK.json.
	endToEnd metricKind = iota
	// layer metrics attribute work and time to one package; reported with
	// --trace 1.
	layer
	// diag metrics are printed for context (sample counts, tails) but are
	// in neither metric set.
	diag
)

type metricDef struct {
	name, unit, better string
	kind               metricKind
}

// profileLayers are the internal/ packages the CPU profile is folded into,
// plus the Go runtime and everything else.
var profileLayers = []string{
	"sim", "core", "policy", "compute", "perfmodel", "cluster", "engine",
	"memctl", "kvcache", "consolidator", "metrics", "fleet", "faults",
	"invariants", "telemetry", "workload", "runtime", "other",
}

// catalog lists every metric in output order. BENCHMARK.json restates the
// end-to-end and layer entries (TestBenchmarkJSONMatchesCatalog).
var catalog = func() []metricDef {
	e := func(name, unit, better string) metricDef { return metricDef{name, unit, better, endToEnd} }
	l := func(name, unit, better string) metricDef { return metricDef{name, unit, better, layer} }
	d := func(name, unit string) metricDef { return metricDef{name, unit, "", diag} }
	defs := []metricDef{
		e("setup_s", "s", "lower"),
		e("replay_reqs_per_s", "req/s", "higher"),
		e("replay_ms_p50", "ms", "lower"),
		e("alloc_mb_per_kreq", "MB", "lower"),
		e("peak_rss_mb", "MB", "lower"),
		e("served_slo_attain", "frac", "higher"),
		d("setup_s_wall", "s"),
		d("replay_reqs_per_s_wall", "req/s"),
		d("host_slowdown", "ratio"),
		d("replay_ms_p90", "ms"),
		d("replay_samples", "count"),
		d("measure_passes", "count"),
		d("served_ttft_samples", "count"),
		d("ops_total", "count"),
		d("ops_failed", "count"),

		l("served_ttft_p50_s", "s", "lower"),
		l("served_ttft_p99_s", "s", "lower"),
		l("served_failed_frac", "frac", "lower"),
		l("workload.gen_s", "s", "lower"),
		l("traceio.encode_s", "s", "lower"),
		l("traceio.decode_s", "s", "lower"),
		l("traceio.mb", "MB", "lower"),
		l("sim.events_per_req", "count", "lower"),
		l("sim.ns_per_event", "ns", "lower"),
		l("sim.heap_max", "count", "lower"),
		l("core.queue_depth_mean", "count", "lower"),
		l("core.queue_depth_max", "count", "lower"),
		l("core.instances_created_per_kreq", "count", "lower"),
		l("policy.place_new.calls_per_req", "count", "lower"),
		l("policy.place_new.ok_frac", "frac", "higher"),
		l("policy.place_new.busy_frac", "frac", "lower"),
		l("policy.preempt.calls_per_req", "count", "lower"),
		l("policy.preempt.ok_frac", "frac", "higher"),
		l("policy.preempt.busy_frac", "frac", "lower"),
		l("policy.keepalive.arms_per_req", "count", "lower"),
		l("compute.validations_per_req", "count", "lower"),
		l("compute.reject_frac", "frac", "lower"),
		l("compute.validate_busy_frac", "frac", "lower"),
		l("compute.pick_busy_frac", "frac", "lower"),
		l("compute.picks_per_req", "count", "lower"),
		l("engine.decode_iters_per_req", "count", "lower"),
		l("engine.avg_batch", "count", "higher"),
		l("engine.cold_starts_per_kreq", "count", "lower"),
		l("engine.preemptions_per_kreq", "count", "lower"),
		l("engine.migrations_per_kreq", "count", "lower"),
		l("memctl.kv_resizes_per_kreq", "count", "lower"),
		l("memctl.scaling_overhead", "frac", "lower"),
		l("kvcache.lookups_per_req", "count", "lower"),
		l("kvcache.hit_byte_frac", "frac", "higher"),
		l("kvcache.promote_mb_per_kreq", "MB", "lower"),
		l("kvcache.spill_mb_per_kreq", "MB", "lower"),
		l("kvcache.evict_mb_per_kreq", "MB", "lower"),
		l("fleet.route.calls", "count", "lower"),
		l("fleet.route.busy_frac", "frac", "lower"),
		l("fleet.admit.calls", "count", "lower"),
		l("fleet.retry.calls", "count", "lower"),
		l("fleet.epochs", "count", "lower"),
		l("fleet.shard_imbalance", "ratio", "lower"),
		l("fleet.redriven_per_kreq", "count", "lower"),
		l("fleet.retry_exhausted", "count", "lower"),
		l("faults.events", "count", "lower"),
		l("faults.goodput_dip", "frac", "lower"),
		l("faults.recover_epochs", "count", "lower"),
		l("invariants.violations", "count", "lower"),
		l("invariants.overhead_frac", "frac", "lower"),
		l("telemetry.overhead_frac", "frac", "lower"),
		l("telemetry.events_per_req", "count", "lower"),
		l("runtime.mallocs_per_req", "count", "lower"),
		l("runtime.gc_cpu_frac", "frac", "lower"),
		l("runtime.gc_cycles", "count", "lower"),
	}
	for _, p := range profileLayers {
		defs = append(defs, l("cpu.self_frac."+p, "frac", "lower"))
	}
	defs = append(defs, l("trace.overhead_frac", "frac", "lower"))
	for _, n := range spanNames {
		defs = append(defs, d("span."+n+".self_s", "s"))
	}
	return defs
}()

// check is one regime assertion: the metric must lie in [min, max]. A
// check on a metric the run did not report is skipped.
type check struct {
	metric   string
	min, max float64
}

func atLeast(metric string, v float64) check { return check{metric, v, math.Inf(1)} }
func atMost(metric string, v float64) check  { return check{metric, math.Inf(-1), v} }
func positive(metric string) check           { return check{metric, math.SmallestNonzeroFloat64, math.Inf(1)} }

// regime returns the checks of the workload that m fails.
func (w *spec) regime(m map[string]float64) []string {
	var bad []string
	for _, c := range w.checks {
		v, ok := m[c.metric]
		if ok && (v < c.min || v > c.max) {
			bad = append(bad, fmt.Sprintf("%s = %g, want within [%g, %g]", c.metric, v, c.min, c.max))
		}
	}
	return bad
}
