package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	slmetrics "slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// runConfig is one workload run.
type runConfig struct {
	seed    uint64
	seconds float64 // measure-phase length
	size    size
	setups  int  // set-up repetitions; setup_s is their median
	measure bool // measure phase: end-to-end metrics
	trace   bool // trace and profile phases: per-layer metrics
	workers int  // fleet Workers
	// outDir receives the spans JSONL and the CPU profile; "" keeps the
	// profile under profDir and writes no spans.
	outDir  string
	profDir string
	// fold turns a CPU profile into per-layer self fractions; nil leaves
	// them 0.
	fold func(path string) (map[string]float64, error)
}

// result is one workload run's outcome.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

// input is a run's decoded traces.
type input struct {
	traces []workload.Trace
	seeds  []uint64
	models []model.Model
	reqs   int64 // requests in one pass
	bytes  int64 // encoded JSONL bytes of one pass
}

// harness holds one workload run's state.
type harness struct {
	w     *spec
	cfg   runConfig
	spans *spanSet
	main  *tracer
	in    input
	refs  []uint64 // canonical-report hash of each trace's first replay
	res   result
	// served is the merged report of the first untraced pass.
	served slmetrics.Report
	// base describes the untraced passes: the measured ones, or the trace
	// phase's baseline pass when nothing was measured.
	base baseline
}

// baseline is what the untraced passes cost.
type baseline struct {
	passWall        float64 // median pass, seconds
	mallocsPerReq   float64
	gcCyclesPerPass float64
	gcCPUFrac       float64
}

func newHarness(w *spec, cfg runConfig) *harness {
	h := &harness{w: w, cfg: cfg, spans: newSpanSet()}
	h.main = h.spans.tracer()
	h.res.Metrics = map[string]float64{}
	return h
}

func (h *harness) fail(format string, args ...any) {
	h.res.Problems = append(h.res.Problems, fmt.Sprintf(format, args...))
}

func (h *harness) set(name string, v float64) { h.res.Metrics[name] = v }

// run runs every phase the configuration selects and returns the result.
func (h *harness) run() result {
	h.setupPhase()
	if len(h.res.Problems) > 0 {
		return h.res
	}
	if h.cfg.measure {
		h.measurePhase()
	}
	if h.cfg.trace {
		h.tracePhase()
	}
	for i, a := range h.spans.agg() {
		h.set("span."+spanNames[i]+".self_s", float64(a.self)/1e9)
	}
	for _, p := range h.w.regime(h.res.Metrics) {
		h.fail("regime: %s", p)
	}
	if h.cfg.outDir != "" {
		path := filepath.Join(h.cfg.outDir, h.w.name+".spans.jsonl")
		if err := h.spans.writeJSONL(path); err != nil {
			h.fail("write spans: %v", err)
		}
	}
	h.res.Correct = len(h.res.Problems) == 0
	return h.res
}

// ---- Setup -----------------------------------------------------------------

// setupPhase generates the run's traces from the seed, round-trips them
// through the JSONL trace format, and replays the first one to warm up.
// It repeats cfg.setups times, timing the reference loop before and after
// each; setup_s is the median of the normalized set-up times.
func (h *harness) setupPhase() {
	var walls, norms []float64
	before := h.reference()
	for rep := 0; rep < h.cfg.setups; rep++ {
		start := time.Now()
		in, err := h.setupOnce()
		if err != nil {
			h.fail("setup: %v", err)
			return
		}
		h.in = in
		if h.refs == nil {
			h.refs = make([]uint64, len(in.traces))
		}
		h.replayChecked(0, replayOpts{workers: h.cfg.workers})
		wall := time.Since(start).Seconds()
		after := h.reference()
		walls = append(walls, wall)
		norms = append(norms, wall*refNominal/((before+after)/2))
		before = after
	}
	h.set("setup_s", median(norms))
	h.set("setup_s_wall", median(walls))
	a := h.spans.agg()
	reps := float64(h.cfg.setups)
	h.set("workload.gen_s", float64(a[spanSetupGenerate].totalNs)/1e9/reps)
	h.set("traceio.encode_s", float64(a[spanSetupEncode].totalNs)/1e9/reps)
	h.set("traceio.decode_s", float64(a[spanSetupDecode].totalNs)/1e9/reps)
	h.set("traceio.mb", float64(h.in.bytes)/1e6)
}

func (h *harness) setupOnce() (input, error) {
	in := input{models: h.w.hosted()}
	names := modelNames(in.models)
	dur := sim.Duration(h.cfg.size.minutes * float64(sim.Minute))
	var buf bytes.Buffer
	for i := 0; i < h.cfg.size.traces; i++ {
		seed := traceSeed(h.w.name, h.cfg.seed, i)
		h.main.begin(spanSetupGenerate)
		tr := h.w.gen(names, dur, seed)
		h.main.end(true)

		buf.Reset()
		h.main.begin(spanSetupEncode)
		err := traceio.Save(&buf, tr, traceio.Meta{Seed: seed, Generator: h.w.name, BaseModel: model.Llama2_7B.Name})
		h.main.end(err == nil)
		if err != nil {
			return in, fmt.Errorf("encode trace %d: %w", i, err)
		}
		in.bytes += int64(buf.Len())

		h.main.begin(spanSetupDecode)
		got, _, err := traceio.Load(bytes.NewReader(buf.Bytes()))
		h.main.end(err == nil)
		if err != nil {
			return in, fmt.Errorf("decode trace %d: %w", i, err)
		}
		if len(got.Requests) == 0 {
			return in, fmt.Errorf("trace %d is empty", i)
		}
		in.traces = append(in.traces, got)
		in.seeds = append(in.seeds, seed)
		in.reqs += int64(len(got.Requests))
	}
	return in, nil
}

// ---- Replays and passes ------------------------------------------------------

// replayChecked replays trace i, timing and counting the heap
// allocations of only the replay, and checks that its canonical report is
// the one every earlier replay of the trace produced.
func (h *harness) replayChecked(i int, o replayOpts) (outcome, float64) {
	before := readRuntime()
	start := time.Now()
	out := h.w.replay(h.in.traces[i], h.in.seeds[i], h.in.models, o)
	wall := time.Since(start).Seconds()
	after := readRuntime()
	out.allocBytes = after.allocBytes - before.allocBytes
	out.allocObjects = after.allocObjects - before.allocObjects
	h.res.Attempted++
	hash := canonicalHash(out.rep)
	bad := false
	switch {
	case h.refs[i] == 0:
		h.refs[i] = hash
	case h.refs[i] != hash:
		h.fail("trace %d: canonical report hash %x, first replay gave %x", i, hash, h.refs[i])
		bad = true
	}
	if out.rep.Total == 0 || out.offered != int64(len(h.in.traces[i].Requests)) {
		h.fail("trace %d: replay saw %d of %d requests", i, out.offered, len(h.in.traces[i].Requests))
		bad = true
	}
	if out.violations > 0 {
		h.fail("trace %d: %d invariant violations", i, out.violations)
		bad = true
	}
	if bad {
		h.res.Failed++
	}
	// The served metrics need only the TTFT samples; drop the large CDFs
	// so a pass does not hold every replay's.
	out.rep.BatchCDF, out.rep.MemUtilCDF = nil, nil
	return out, wall
}

// canonicalHash hashes a report's canonical rendering, which covers every
// simulated (not wall-clock) field.
func canonicalHash(rep slmetrics.Report) uint64 {
	sum := fnv.New64a()
	sum.Write([]byte(rep.Canonical()))
	return sum.Sum64()
}

// passResult is one pass over the traces of the run, in order: all of
// them, or the first few when the pass was cut short.
type passResult struct {
	wall                     float64   // seconds spent replaying, checks excluded
	walls                    []float64 // per-replay seconds
	hosts                    []float64 // mean reference-loop seconds around each replay, if timed
	outs                     []outcome
	reqs                     int64   // requests replayed
	allocBytes, allocObjects float64 // heap allocations of the replays
}

// complete reports whether the pass replayed every trace.
func (p passResult) complete(k int) bool { return len(p.walls) == k }

// pass replays every trace once, or stops after the first replay that ends
// past a non-zero deadline. With host set it times the reference before
// the first replay and after each one, and records for each replay the
// mean of the references either side of it.
func (h *harness) pass(o replayOpts, host bool, deadline time.Time) passResult {
	var p passResult
	var before float64
	if host {
		before = h.reference()
	}
	for i := range h.in.traces {
		o.replay = int32(h.res.Attempted + 1)
		out, wall := h.replayChecked(i, o)
		p.wall += wall
		p.walls = append(p.walls, wall)
		p.outs = append(p.outs, out)
		p.reqs += int64(len(h.in.traces[i].Requests))
		p.allocBytes += out.allocBytes
		p.allocObjects += out.allocObjects
		if host {
			after := h.reference()
			p.hosts = append(p.hosts, (before+after)/2)
			before = after
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
	}
	return p
}

// reference times the host reference with as many goroutines as a replay
// of the workload keeps busy.
func (h *harness) reference() float64 {
	par := 1
	if h.w.shards > 0 {
		par = min(h.cfg.workers, h.w.shards)
	}
	return hostReference(par)
}

// untracedPasses replays one whole untraced pass and then keeps replaying
// until seconds have passed since the start, so the last pass may stop
// part way. It records the passes' baseline cost; the first pass reports
// the served metrics.
func (h *harness) untracedPasses(seconds float64, host bool) []passResult {
	runtime.GC()
	before := readRuntime()
	k := len(h.in.traces)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var passes []passResult
	for len(passes) == 0 || (passes[len(passes)-1].complete(k) && time.Now().Before(deadline)) {
		var until time.Time
		if len(passes) > 0 {
			until = deadline
		}
		p := h.pass(replayOpts{workers: h.cfg.workers}, host, until)
		if len(passes) == 0 {
			h.servedMetrics(p.outs)
		}
		passes = append(passes, p)
	}
	after := readRuntime()
	var walls []float64
	var objs, reqs, replays float64
	for _, p := range passes {
		if p.complete(k) {
			walls = append(walls, p.wall)
		}
		objs += p.allocObjects
		reqs += float64(p.reqs)
		replays += float64(len(p.walls))
	}
	h.base = baseline{
		passWall:        median(walls),
		mallocsPerReq:   objs / reqs,
		gcCyclesPerPass: (after.gcCycles - before.gcCycles) * float64(k) / replays,
		gcCPUFrac:       ratio(after.cpuGC-before.cpuGC, after.cpuTotal-before.cpuTotal),
	}
	return passes
}

// ---- Measure phase -----------------------------------------------------------

// measurePhase replays back-to-back untraced passes for cfg.seconds and
// reports the end-to-end metrics. Each replay's wall time is normalized
// by the host references timed either side of it, and each trace's time
// is the median of its normalized replays.
func (h *harness) measurePhase() {
	passes := h.untracedPasses(h.cfg.seconds, true)
	k := len(h.in.traces)
	walls, norms := make([][]float64, k), make([][]float64, k)
	var replays, hosts []float64
	var allocBytes, allocReqs float64
	for _, p := range passes {
		for i, w := range p.walls {
			n := w * refNominal / p.hosts[i]
			walls[i] = append(walls[i], w)
			norms[i] = append(norms[i], n)
			replays = append(replays, n)
		}
		hosts = append(hosts, p.hosts...)
		allocBytes += p.allocBytes
		allocReqs += float64(p.reqs)
	}
	perTrace := make([]float64, k)
	var normPass, wallPass float64
	for i := range perTrace {
		perTrace[i] = median(norms[i])
		normPass += perTrace[i]
		wallPass += median(walls[i])
	}
	reqs := float64(h.in.reqs)
	h.set("replay_reqs_per_s", reqs/normPass)
	h.set("replay_ms_p50", 1e3*median(perTrace))
	h.set("replay_reqs_per_s_wall", reqs/wallPass)
	h.set("host_slowdown", median(hosts)/refNominal)
	h.set("replay_ms_p90", 1e3*quantile(replays, 0.9))
	h.set("replay_samples", float64(len(replays)))
	h.set("measure_passes", float64(len(passes)))
	h.set("alloc_mb_per_kreq", allocBytes/1e6/(allocReqs/1e3))
	h.set("peak_rss_mb", peakRSSMB())
}

// ---- Trace and profile phases ------------------------------------------------

// tracePhase replays one traced pass (spies, probe, event hook,
// MeasureOverhead) for the per-layer metrics and one pass under the CPU
// profiler for the per-layer CPU split. Without a measure phase it first
// replays one untraced pass as the baseline.
func (h *harness) tracePhase() {
	if !h.cfg.measure {
		h.untracedPasses(0, false)
	}
	h.set("runtime.mallocs_per_req", h.base.mallocsPerReq)
	h.set("runtime.gc_cycles", h.base.gcCyclesPerPass)
	h.set("runtime.gc_cpu_frac", h.base.gcCPUFrac)

	o := replayOpts{traced: true, main: h.main, workers: h.cfg.workers}
	for i := 0; i < h.w.shards; i++ {
		o.shard = append(o.shard, h.spans.tracer())
	}
	traced := h.pass(o, false, time.Time{})
	h.set("trace.overhead_frac", traced.wall/h.base.passWall-1)
	h.layerMetrics(traced, float64(h.in.reqs))

	if h.w.chaos {
		h.featureOverhead()
	} else {
		h.set("invariants.overhead_frac", 0)
		h.set("telemetry.overhead_frac", 0)
	}
	h.profilePass()
}

// featureOverhead times the first trace as is, without the invariant
// suites and without telemetry, in three interleaved rounds, and compares
// the fastest replay of each.
func (h *harness) featureOverhead() {
	opts := []replayOpts{
		{workers: h.cfg.workers},
		{workers: h.cfg.workers, noInvariants: true},
		{workers: h.cfg.workers, noTelemetry: true},
	}
	best := make([]float64, len(opts))
	for round := 0; round < 3; round++ {
		for i, o := range opts {
			_, wall := h.replayChecked(0, o)
			if round == 0 || wall < best[i] {
				best[i] = wall
			}
		}
	}
	h.set("invariants.overhead_frac", best[0]/best[1]-1)
	h.set("telemetry.overhead_frac", best[0]/best[2]-1)
}

// profilePass replays one untraced pass under the CPU profiler and folds
// the profile into per-layer self fractions.
func (h *harness) profilePass() {
	dir := h.cfg.outDir
	if dir == "" {
		dir = h.cfg.profDir
	}
	path := filepath.Join(dir, h.w.name+".pprof")
	layers := map[string]float64{}
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = h.profileTo(path)
	}
	if err == nil && h.cfg.fold != nil {
		layers, err = h.cfg.fold(path)
	}
	if err != nil {
		h.fail("profile: %v", err)
	}
	for _, l := range profileLayers {
		h.set("cpu.self_frac."+l, layers[l])
	}
}

func (h *harness) profileTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	h.pass(replayOpts{workers: h.cfg.workers}, false, time.Time{})
	pprof.StopCPUProfile()
	return f.Close()
}

// layerMetrics turns the traced pass into per-layer metrics.
func (h *harness) layerMetrics(p passResult, reqs float64) {
	var (
		events                uint64
		probe                 ctlProbe
		area, span            float64
		depthMax, heapMax     int
		promote, spill, evict int64
	)
	for _, o := range p.outs {
		events += o.events
		probe.add(&o.probe)
		area += o.hook.area
		span += o.hook.span
		depthMax = max(depthMax, o.hook.depthMax)
		heapMax = max(heapMax, o.hook.heapMax)
		promote += o.promote
		spill += o.spill
		evict += o.evict
	}
	// Busy fractions divide host time inside a layer by the pass's wall
	// time times the goroutines that could be inside it at once.
	busy := func(ns int64) float64 {
		workers := 1.0
		if h.w.shards > 0 {
			workers = float64(h.cfg.workers)
		}
		return float64(ns) / 1e9 / (p.wall * workers)
	}
	a := h.spans.agg()

	h.set("sim.ns_per_event", h.base.passWall*1e9/float64(events))
	h.set("sim.heap_max", float64(heapMax))
	h.set("core.queue_depth_mean", ratio(area, span))
	h.set("core.queue_depth_max", float64(depthMax))
	h.set("core.instances_created_per_kreq", float64(probe.created)/reqs*1e3)
	for _, s := range []struct {
		prefix string
		name   spanName
	}{{"policy.place_new", spanPlaceNew}, {"policy.preempt", spanTryPreempt}} {
		c := a[s.name]
		h.set(s.prefix+".calls_per_req", float64(c.count)/reqs)
		h.set(s.prefix+".ok_frac", ratio(float64(c.ok), float64(c.count)))
		h.set(s.prefix+".busy_frac", busy(c.totalNs))
	}
	h.set("policy.keepalive.arms_per_req", float64(a[spanArm].count)/reqs)
	h.set("compute.validations_per_req", float64(probe.validations)/reqs)
	h.set("compute.reject_frac", ratio(float64(probe.rejections), float64(probe.validations)))
	h.set("compute.validate_busy_frac", busy(probe.validationNs))
	h.set("compute.pick_busy_frac", busy(probe.pickNs))
	h.set("compute.picks_per_req", float64(probe.picks)/reqs)
	h.set("kvcache.promote_mb_per_kreq", float64(promote)/1e6/reqs*1e3)
	h.set("kvcache.spill_mb_per_kreq", float64(spill)/1e6/reqs*1e3)
	h.set("kvcache.evict_mb_per_kreq", float64(evict)/1e6/reqs*1e3)
	k := float64(len(p.outs))
	h.set("fleet.route.calls", float64(a[spanRoute].count)/k)
	h.set("fleet.route.busy_frac", float64(a[spanRoute].totalNs)/1e9/p.wall)
	h.set("fleet.admit.calls", float64(a[spanAdmit].count)/k)
	h.set("fleet.retry.calls", float64(a[spanRetry].count)/k)
}

// servedMetrics reports what an untraced pass simulated. All of it is
// deterministic for a seed: a change that moves these metrics changed the
// simulation, not its speed.
func (h *harness) servedMetrics(outs []outcome) {
	reps := make([]slmetrics.Report, len(outs))
	var (
		offered, failed, redriven, exhausted int64
		faults, recoverEps, epochs           int64
		events                               uint64
		imbalance, dip                       float64
		telemEvents                          int
		violations                           int
	)
	for i, o := range outs {
		reps[i] = o.rep
		offered += o.offered
		failed += o.failed
		redriven += o.redriven
		exhausted += o.exhausted
		faults += o.rep.FaultEvents
		recoverEps += o.rep.RecoverEpochs
		epochs += int64(o.epochs)
		events += o.events
		imbalance += o.imbalance
		dip += o.rep.GoodputDip
		telemEvents += o.telemEvents
		violations += o.violations
	}
	h.served = slmetrics.MergeReports(h.w.name, 0, reps...)
	rep := h.served
	total := float64(rep.Total)
	k := float64(len(outs))
	h.set("served_slo_attain", rep.SLORate)
	h.set("served_ttft_p50_s", rep.TTFTP50)
	h.set("served_ttft_p99_s", rep.TTFTP99)
	h.set("served_ttft_samples", float64(len(rep.TTFTCDF)))
	h.set("served_failed_frac", float64(failed)/float64(offered))
	h.set("ops_total", float64(offered))
	h.set("ops_failed", float64(failed))
	if len(rep.TTFTCDF) < 1000 {
		h.fail("only %d TTFT samples, want at least 1000 behind served_ttft_p99_s", len(rep.TTFTCDF))
	}

	h.set("sim.events_per_req", float64(events)/float64(offered))
	h.set("engine.decode_iters_per_req", float64(rep.DecodeIters)/total)
	h.set("engine.avg_batch", rep.AvgBatch)
	h.set("engine.cold_starts_per_kreq", float64(rep.ColdStarts)/total*1e3)
	h.set("engine.preemptions_per_kreq", float64(rep.Preemptions)/total*1e3)
	h.set("engine.migrations_per_kreq", float64(rep.Migrations)/total*1e3)
	h.set("memctl.kv_resizes_per_kreq", float64(rep.KVResizes)/total*1e3)
	h.set("memctl.scaling_overhead", rep.ScalingOverhead)
	h.set("kvcache.lookups_per_req", float64(rep.PrefixLookups)/total)
	h.set("kvcache.hit_byte_frac", rep.PrefixHitRate)
	h.set("fleet.epochs", float64(epochs)/k)
	h.set("fleet.shard_imbalance", imbalance/k)
	h.set("fleet.redriven_per_kreq", float64(redriven)/float64(offered)*1e3)
	h.set("fleet.retry_exhausted", float64(exhausted)/k)
	h.set("faults.events", float64(faults)/k)
	h.set("faults.goodput_dip", dip/k)
	h.set("faults.recover_epochs", float64(recoverEps)/k)
	h.set("invariants.violations", float64(violations))
	h.set("telemetry.events_per_req", float64(telemEvents)/float64(offered))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- Runtime readings --------------------------------------------------------

type rtSample struct {
	allocBytes, allocObjects, gcCycles float64
	cpuGC, cpuTotal                    float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{
		allocBytes: v(0), allocObjects: v(1), gcCycles: v(2),
		cpuGC: v(3), cpuTotal: v(4) - v(5),
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}

// ---- Statistics --------------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs with linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	lo := int(r)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}
