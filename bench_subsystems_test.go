// Per-subsystem micro/meso benchmarks: unlike the BenchmarkExp_* suite
// (which regenerates whole paper artifacts), these isolate the hot paths a
// scale/speed PR actually touches — the DES event loop, the memctl ledger,
// trace decode, end-to-end replay, and a scenario cell with the invariant
// suite attached (its delta over the plain cell is the checker overhead).
// CI runs them on every push and emits BENCH_matrix.json (cmd/benchfmt),
// so the performance trajectory is recorded alongside correctness.
package slinfer

import (
	"bytes"
	"fmt"
	"testing"

	"slinfer/internal/compute"
	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/experiments"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/scenario"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// BenchmarkSub_SimEventLoop measures raw event throughput: a self-renewing
// chain of timers over a busy heap. One op is 6400 events on one simulator
// reused through Reset, after an untimed warm-up round that grows the arena
// and the heap, so the op measures the steady-state loop a replay runs.
func BenchmarkSub_SimEventLoop(b *testing.B) {
	const chain = 64 // concurrent timer chains in the heap
	b.ReportAllocs()
	s := sim.New()
	fired := 0
	var tick func(any)
	tick = func(any) {
		fired++
		if fired < 100*chain {
			s.AfterFunc(sim.Millisecond, tick, nil)
		}
	}
	round := func() {
		s.Reset()
		fired = 0
		for c := 0; c < chain; c++ {
			s.AfterFunc(sim.Duration(c)*sim.Millisecond, tick, nil)
		}
		s.Run()
		if fired < 100*chain {
			b.Fatal("event chain stalled")
		}
	}
	round()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(100*chain*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSub_SimLaneLoop measures the event loop the way a replay drives
// it: 8 self-rearming lane owners, as iteration executors complete on the
// lane, interleaved with 16 heap timer chains, so every Step chooses between
// the lane head and the heap top. One op is 48k events on one simulator
// reused through Reset (a few milliseconds, so -benchtime 1x measures it),
// after an untimed warm-up round that grows the arena and the lane: the
// steady state allocates nothing.
func BenchmarkSub_SimLaneLoop(b *testing.B) {
	const (
		lanes, laneFires = 8, 4000
		chains, chainLen = 16, 1000
	)
	b.ReportAllocs()
	s := sim.New()
	type owner struct{ left, period int }
	var owners [lanes]owner
	var laneStep, heapStep func(any)
	laneStep = func(a any) {
		o := a.(*owner)
		if o.left--; o.left > 0 {
			s.LaneAtFunc(s.Now().Add(sim.Duration(o.period)*sim.Millisecond/8), laneStep, o)
		}
	}
	chainLeft := 0
	heapStep = func(any) {
		if chainLeft--; chainLeft >= chains {
			s.AfterFunc(sim.Duration(1+chainLeft%5)*sim.Millisecond, heapStep, nil)
		}
	}
	round := func() {
		s.Reset()
		for k := range owners {
			owners[k] = owner{left: laneFires, period: 3 + k}
			s.LaneAtFunc(sim.Time(k)*sim.Time(sim.Millisecond)/8, laneStep, &owners[k])
		}
		chainLeft = chains * chainLen
		for c := 0; c < chains; c++ {
			s.AfterFunc(sim.Duration(c)*sim.Millisecond, heapStep, nil)
		}
		s.Run()
		if s.Fired() != lanes*laneFires+chains*chainLen {
			b.Fatalf("fired %d events, want %d", s.Fired(), lanes*laneFires+chains*chainLen)
		}
	}
	round()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64((lanes*laneFires+chains*chainLen)*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSub_MemctlLedger measures ledger op throughput: ops go to Demand
// by value, which copies each into a slot from the ledger's free-list, and
// each round reuses the simulator and ledger through their Reset lifecycles
// — the arena steady state, where the admit/execute/complete/station churn
// itself allocates nothing. One untimed round fills the slot and event
// pools first, so even -benchtime 1x (the CI gate) measures that steady
// state rather than the first round's pool fill.
func BenchmarkSub_MemctlLedger(b *testing.B) {
	b.ReportAllocs()
	const ops = 256
	s := sim.New()
	nm := memctl.New(s, "bench", 64<<30)
	demand := func(owner memctl.Owner, from, to int64) {
		nm.Demand(memctl.Op{Kind: memctl.ResizeKV, Owner: owner,
			From: from, To: to, Duration: sim.Millisecond})
	}
	round := func() {
		s.Reset()
		nm.Reset("bench", 64<<30)
		for j := 0; j < ops; j++ {
			owner := memctl.Owner{Inst: 1 + j%2, KV: true}
			grow := int64(40 << 30)
			demand(owner, 0, grow)
			s.RunUntil(s.Now().Add(2 * sim.Millisecond))
			demand(owner, grow, 0)
			s.RunUntil(s.Now().Add(2 * sim.Millisecond))
		}
		if err := nm.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
	round()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(2*ops*b.N)/b.Elapsed().Seconds(), "ops/s")
}

// benchTrace is the shared small workload for the replay benchmarks.
func benchTrace() ([]model.Model, workload.Trace) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return models, workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 4 * sim.Minute, Seed: 17,
		Dataset: workload.AzureConv,
	})
}

// codecTrace is the trace the codec benchmarks encode and decode: 24
// models at 6 requests/s for 30 minutes, about 10k requests, so one op
// (a few milliseconds) is a measurement even at -benchtime 1x.
func codecTrace() workload.Trace {
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("m-%03d", i)
	}
	return workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 30 * sim.Minute, Seed: 17,
		Dataset: workload.AzureConv, AggregateRPM: 6 * 60,
	})
}

// BenchmarkSub_TraceDecode measures streaming decode throughput of the
// canonical JSONL format.
func BenchmarkSub_TraceDecode(b *testing.B) {
	tr := codecTrace()
	var buf bytes.Buffer
	if err := traceio.Save(&buf, tr, traceio.Meta{}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := traceio.Load(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Requests) != len(tr.Requests) {
			b.Fatal("short decode")
		}
	}
	b.ReportMetric(float64(len(tr.Requests)*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkSub_TraceEncode measures encode throughput of the canonical
// JSONL format over the decode benchmark's trace, into a buffer reused
// across ops.
func BenchmarkSub_TraceEncode(b *testing.B) {
	tr := codecTrace()
	var buf bytes.Buffer
	if err := traceio.Save(&buf, tr, traceio.Meta{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := traceio.Save(&buf, tr, traceio.Meta{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Requests)*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkSub_ReplayThroughput measures end-to-end simulated requests per
// wall-clock second: the number every controller/engine optimization moves.
func BenchmarkSub_ReplayThroughput(b *testing.B) {
	_, tr := benchTrace()
	run := func() {
		rep, err := experiments.Replay(tr, experiments.ReplayOptions{
			System: "SLINFER", CPUNodes: 2, GPUNodes: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total == 0 {
			b.Fatal("empty replay")
		}
	}
	run() // untimed warm-up: -benchtime 1x measures the steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(len(tr.Requests)*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkSub_PlaceAttempt times placement attempts — existing
// instances, then preemption, then scale-out — for a request that cannot
// place, for a model with a live instance on a 1+1 SLINFER controller
// driven a minute into 24 7B models at 6 rps. Past saturation every
// completion repeats this attempt for each queued request, so its cost and
// allocs dominate the controller layer. One op is a fixed batch of 128
// attempts after a warm-up batch, which keeps a -benchtime 1x op long
// enough to time.
func BenchmarkSub_PlaceAttempt(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 24)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 5 * sim.Minute, Seed: 7,
		Dataset: workload.AzureConv, AggregateRPM: 360,
	})
	s := sim.New()
	c := core.New(s, hwsim.Testbed(1, 1), models, core.SLINFER())
	c.BeginStream(sim.Time(0).Add(tr.Duration), len(tr.Requests))
	for _, w := range tr.Requests {
		if w.Arrival > sim.Time(sim.Minute) {
			break
		}
		s.RunUntil(w.Arrival)
		c.Submit(w)
	}
	// A model with a live instance, so the attempt walks every stage.
	name := names[0]
	for _, n := range names {
		if len(c.InstancesOf(n)) > 0 {
			name = n
			break
		}
	}
	req := engine.NewRequest(workload.Request{ID: -1, ModelName: name,
		Arrival: s.Now(), InputLen: 1024, OutputLen: 200})
	const attempts = 128
	op := func() {
		for j := 0; j < attempts; j++ {
			if c.TryPlace(req) {
				b.Fatal("placed on a saturated controller; the attempt no longer measures the failing path")
			}
		}
	}
	op() // untimed warm-up: -benchtime 1x measures the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(attempts*b.N)/b.Elapsed().Seconds(), "attempts/s")
}

// BenchmarkSub_ValidatePass times passing shadow-validation dry runs
// (Project, then Check) of a new request on live instances, on a SLINFER
// controller driven five minutes into 64 7B models at Azure-conv rates on
// 4 CPU + 4 GPU nodes, as azure-steady runs them. Min-headroom scheduling
// decodes lone requests far ahead of their TPOT deadlines there, so each
// run passes by the demand test once the new request's prefill lands: the
// path most admissions take. One op repeats one dry run per such candidate
// on a shared executor (16 of them) until at least 128 have run, as
// Sub_PlaceAttempt times 128 attempts, which keeps a -benchtime 1x op long
// enough to time.
func BenchmarkSub_ValidatePass(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 64)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 10 * sim.Minute, Seed: 7, Dataset: workload.AzureConv,
	})
	s := sim.New()
	c := core.New(s, hwsim.Testbed(4, 4), models, core.SLINFER())
	c.BeginStream(sim.Time(0).Add(tr.Duration), len(tr.Requests))
	for _, w := range tr.Requests {
		if w.Arrival > sim.Time(5*sim.Minute) {
			break
		}
		s.RunUntil(w.Arrival)
		c.Submit(w)
	}
	v := c.Validator
	var dryRuns []func() compute.Reason
	for _, n := range c.Cluster.Nodes {
		for _, ex := range n.Executors {
			if len(ex.Instances) < 2 {
				continue
			}
			for _, cand := range ex.Instances {
				req := engine.NewRequest(workload.Request{ID: -1, ModelName: cand.Model.Name,
					Arrival: s.Now(), InputLen: 1024, OutputLen: 200})
				busy := s.Now()
				if ex.Busy() {
					busy = ex.BusyUntil()
				}
				run := func() compute.Reason {
					return v.Check(s.Now(), busy, v.Project(ex.Instances, nil, cand, nil, compute.ViewRequest(req)), req.Obj.TPOT)
				}
				if before := v.EarlyAccepts; run() == compute.OK && v.EarlyAccepts == before+1 {
					dryRuns = append(dryRuns, run)
				}
			}
		}
	}
	if len(dryRuns) == 0 {
		b.Fatal("no candidate on a shared executor passes a new request by the demand test")
	}
	const minRuns = 128
	rounds := (minRuns + len(dryRuns) - 1) / len(dryRuns)
	op := func() {
		for range rounds {
			for _, run := range dryRuns {
				if run() != compute.OK {
					b.Fatal("a dry run no longer passes")
				}
			}
		}
	}
	op() // untimed warm-up: -benchtime 1x measures the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(rounds*len(dryRuns)*b.N)/b.Elapsed().Seconds(), "validations/s")
}

// BenchmarkSub_ScenarioCell runs one smoke cell with the full invariant
// suite attached; compare against BenchmarkSub_ReplayThroughput for the
// always-on checker overhead.
func BenchmarkSub_ScenarioCell(b *testing.B) {
	cell := scenario.Smoke().Cells()[0]
	run := func() {
		if r := scenario.RunCell(cell); !r.Ok() {
			b.Fatalf("cell failed: %v %v", r.Err, r.Violations)
		}
	}
	run() // untimed warm-up: -benchtime 1x measures the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkSub_PrefixLookup measures tiered prefix-store throughput on a
// steady-state chat-shaped key population: sessions insert their growing
// prefixes and look them up next turn, with tier capacities tight enough
// that the GPU tier continuously spills to the CPU tier and hits promote
// back. The hitrate metric keeps the measured regime honest — a workload
// drifting to all-miss (or all-hit in GPU) would make the ns/op
// incomparable across runs. One untimed round sizes the store first (Reset
// keeps its blocks and index), so even -benchtime 1x (the CI gate) measures
// the steady state rather than the first fill.
func BenchmarkSub_PrefixLookup(b *testing.B) {
	const (
		sessions = 64
		turns    = 8
		perTok   = int64(1 << 19) // ~0.5 MiB/token, 7B-class
	)
	cfg := kvcache.TieredConfig{
		Enabled:  true,
		GPUBytes: 2048 * 16 * perTok, // ~2k tokens of GPU tier: forces spill
		CPUBytes: 8192 * 16 * perTok,
	}.WithDefaults()
	ts := kvcache.NewTieredStore(cfg)
	keys := make([]string, sessions)
	for s := range keys {
		keys[s] = fmt.Sprintf("tpl%d@256/sess%d", s%4, s)
	}
	var lookups, hitTok, totTok int64
	round := func() {
		ts.Reset(cfg)
		for turn := 1; turn <= turns; turn++ {
			for s := 0; s < sessions; s++ {
				tokens := 256 + turn*192
				hit, _ := ts.Lookup("bench-model", keys[s], tokens, perTok)
				lookups++
				hitTok += int64(hit)
				totTok += int64(tokens)
				ts.Insert("bench-model", keys[s], tokens, perTok)
			}
		}
		if !ts.Ledger.Conserved() {
			b.Fatal("tier ledger out of conservation")
		}
	}
	round()
	lookups, hitTok, totTok = 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(lookups)/b.Elapsed().Seconds(), "lookups/s")
	b.ReportMetric(float64(hitTok)/float64(totTok), "hitrate")
}

// BenchmarkSub_TelemetrySpans measures the telemetry layer on an
// end-to-end replay. The "enabled" case arms all three pillars and reports
// recording throughput in spans/s; "disabled" is the identical run with no
// recorder wired — its delta against BenchmarkSub_ReplayThroughput is the
// cost of merely having the hooks in the controller, which the layer's
// contract caps at one nil check per hook (≤2%, zero extra allocs).
func BenchmarkSub_TelemetrySpans(b *testing.B) {
	_, tr := benchTrace()
	for _, bc := range []struct {
		name string
		on   bool
	}{{"enabled", true}, {"disabled", false}} {
		b.Run(bc.name, func(b *testing.B) {
			run := func() int64 {
				opt := experiments.ReplayOptions{
					System: "SLINFER", CPUNodes: 2, GPUNodes: 2,
				}
				var telem *telemetry.Trace
				if bc.on {
					telem = telemetry.New(telemetry.Options{
						Spans: true, Series: true,
						FlightRing: telemetry.DefaultFlightRing,
					})
					opt.Telemetry = telem.Recorder(0)
				}
				rep, err := experiments.Replay(tr, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Total == 0 {
					b.Fatal("empty replay")
				}
				if !bc.on {
					return 0
				}
				n := telem.EventCount()
				if n == 0 {
					b.Fatal("enabled run recorded no spans")
				}
				return int64(n)
			}
			run() // untimed warm-up: -benchtime 1x measures the steady state
			b.ReportAllocs()
			var spans int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spans += run()
			}
			if bc.on {
				b.ReportMetric(float64(spans)/b.Elapsed().Seconds(), "spans/s")
			}
		})
	}
}

// BenchmarkSub_FleetEpoch measures epoch-synchronized co-simulation
// throughput: total DES events executed across all shards per wall-clock
// second. The 1shard case is the sequential reference — same trace, same
// front door, one shard taking everything; 4shard splits the identical
// workload across four shards advancing in parallel between epoch
// barriers, so the events/s ratio is the fleet layer's aggregate speedup.
func BenchmarkSub_FleetEpoch(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 24)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	// A fleet-scale workload: 24 models at ~4 rps aggregate. One 1c1g
	// shard is far past saturation here — its pending queue and instance
	// lists are what the controller scans per event — while each of the
	// four shards stays in its operating range, which is exactly the
	// scale-out case the fleet layer exists for.
	tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names, Duration: 4 * sim.Minute, RPS: 4, Seed: 17,
		Dataset: workload.AzureConv,
	})
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dshard", shards), func(b *testing.B) {
			run := func() uint64 {
				res := fleet.Run(fleet.Config{
					System: core.SLINFER(),
					Shards: fleet.UniformShards(shards, 1, 1),
					Models: models,
					Seed:   17,
				}, tr)
				if res.Accepted != int64(len(tr.Requests)) {
					b.Fatalf("fleet shed %d requests", int64(len(tr.Requests))-res.Accepted)
				}
				if len(res.Violations) > 0 {
					b.Fatalf("fleet violations: %v", res.Violations)
				}
				return res.EventsFired
			}
			run() // untimed warm-up: -benchtime 1x measures the steady state
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += run()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSub_FleetEpochWide measures wide-fleet epoch throughput at the
// nightly grid's shard shape (2c2g per shard, least-outstanding routing) at
// 16 and 64 shards: the whole-grid amortization case, where every shard
// borrows a pooled arena and a full fleet's worth of controllers is
// constructed, run, and recycled per iteration.
func BenchmarkSub_FleetEpochWide(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 32)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names, Duration: 2 * sim.Minute, RPS: 16, Seed: 17,
		Dataset: workload.AzureConv,
	})
	for _, shards := range []int{16, 64} {
		b.Run(fmt.Sprintf("%dshard", shards), func(b *testing.B) {
			run := func() uint64 {
				res := fleet.Run(fleet.Config{
					System:  core.SLINFER(),
					Shards:  fleet.UniformShards(shards, 2, 2),
					Models:  models,
					Routing: fleet.LeastOutstanding{},
					Seed:    17,
				}, tr)
				if res.Accepted != int64(len(tr.Requests)) {
					b.Fatalf("fleet shed %d requests", int64(len(tr.Requests))-res.Accepted)
				}
				if len(res.Violations) > 0 {
					b.Fatalf("fleet violations: %v", res.Violations)
				}
				return res.EventsFired
			}
			run() // untimed warm-up: -benchtime 1x measures the steady state
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += run()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSub_ReportMerge measures folding 16 real shard reports into the
// fleet report, as every fleet run does once at the end: counters sum, the
// TTFT and memory sample sets concatenate and sort, and the decode
// batch-size histograms add bucket by bucket. The reports come from one
// 16-shard run of the FleetEpochWide workload, built before the timer.
func BenchmarkSub_ReportMerge(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 32)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names, Duration: 2 * sim.Minute, RPS: 16, Seed: 17,
		Dataset: workload.AzureConv,
	})
	res := fleet.Run(fleet.Config{
		System:  core.SLINFER(),
		Shards:  fleet.UniformShards(16, 2, 2),
		Models:  models,
		Routing: fleet.LeastOutstanding{},
		Seed:    17,
	}, tr)
	if len(res.Shards) != 16 || res.Report.DecodeIters == 0 {
		b.Fatalf("setup: %d shard reports, %d decode iterations", len(res.Shards), res.Report.DecodeIters)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := metrics.MergeReports(res.Report.System, res.Report.Duration, res.Shards...)
		if m.DecodeIters != res.Report.DecodeIters {
			b.Fatalf("merge lost decode iterations: %d, want %d", m.DecodeIters, res.Report.DecodeIters)
		}
	}
}

// BenchmarkSub_FaultEpoch measures the fault-injection machinery on a
// 4-shard fleet. The "empty" case runs with no fault plan — identical
// workload and shape to BenchmarkSub_FleetEpoch/4shard, and the same code
// path: a fault-free run is the empty-plan case of the one fleet path, so
// the two must match. The "crash" case injects one crash/recover cycle
// and pays for the pull, re-drive, and segment merge.
func BenchmarkSub_FaultEpoch(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 24)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names, Duration: 4 * sim.Minute, RPS: 4, Seed: 17,
		Dataset: workload.AzureConv,
	})
	crash := &faults.Plan{Events: []faults.Event{
		{At: sim.Time(0).Add(tr.Duration / 3), Kind: faults.ShardCrash, Shard: 1},
		{At: sim.Time(0).Add(2 * tr.Duration / 3), Kind: faults.ShardRecover, Shard: 1},
	}}
	for _, bc := range []struct {
		name string
		plan *faults.Plan
	}{{"empty", nil}, {"crash", crash}} {
		b.Run(bc.name, func(b *testing.B) {
			run := func() uint64 {
				res := fleet.Run(fleet.Config{
					System: core.SLINFER(),
					Shards: fleet.UniformShards(4, 1, 1),
					Models: models,
					Seed:   17,
					Faults: bc.plan,
				}, tr)
				if len(res.Violations) > 0 {
					b.Fatalf("fleet violations: %v", res.Violations)
				}
				if bc.plan == nil && res.Accepted != int64(len(tr.Requests)) {
					b.Fatalf("fault-free fleet shed %d requests", int64(len(tr.Requests))-res.Accepted)
				}
				if bc.plan != nil && res.Report.FaultEvents != 2 {
					b.Fatalf("crash plan applied %d events, want 2", res.Report.FaultEvents)
				}
				return res.EventsFired
			}
			run() // untimed warm-up: -benchtime 1x measures the steady state
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += run()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
