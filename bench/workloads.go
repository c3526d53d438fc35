package main

import (
	"fmt"
	"hash/fnv"

	"slinfer/internal/core"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// size is how much input one pass replays: traces distinct traces of
// minutes virtual minutes each.
type size struct {
	traces  int
	minutes float64
}

// spec is one benchmark workload: a trace generator and the serving
// system that replays it. README.md gives the reasons for each choice.
type spec struct {
	name, why string
	full      size
	models    int
	cpu, gpu  int // topology of the controller, or of every shard
	shards    int // 0 replays through one controller, >0 through fleet.Run
	gen       func(names []string, dur sim.Duration, seed uint64) workload.Trace
	routing   func() fleet.RoutingPolicy
	prefix    bool // tiered prefix KV store on
	chaos     bool // rolling-restart faults, invariant suites and telemetry on
	// checks pin the regime the workload was chosen for; a run that drifts
	// out of it fails.
	checks []check
}

var workloads = []*spec{
	{
		name:   "azure-steady",
		why:    "paper setting: 64x7B Azure-conv on 4 CPU + 4 GPU; shadow validation and memctl work, short queue, no prefix cache or fleet",
		full:   size{traces: 16, minutes: 30},
		models: 64, cpu: 4, gpu: 4,
		gen: func(names []string, dur sim.Duration, seed uint64) workload.Trace {
			return workload.Generate(workload.TraceConfig{
				ModelNames: names, Duration: dur, Seed: seed, Dataset: workload.AzureConv,
			})
		},
		checks: []check{
			atMost("core.queue_depth_mean", queueSteady),
			atMost("kvcache.lookups_per_req", 0),
			atMost("fleet.epochs", 0),
		},
	},
	{
		name:   "burst-saturated",
		why:    "24x7B bursty arrivals at 6 rps on 1 CPU + 1 GPU, far past saturation: every completion retries placement for the whole queue",
		full:   size{traces: 20, minutes: 30},
		models: 24, cpu: 1, gpu: 1,
		gen: func(names []string, dur sim.Duration, seed uint64) workload.Trace {
			return workload.Generate(workload.TraceConfig{
				ModelNames: names, Duration: dur, Seed: seed, Dataset: workload.AzureConv,
				AggregateRPM: 6 * 60,
			})
		},
		checks: []check{
			atLeast("served_failed_frac", 0.3),
			atLeast("core.queue_depth_mean", 10*queueSteady),
		},
	},
	{
		name:   "chat-prefix-fleet",
		why:    "multi-turn chat on a 4-shard KV-affinity fleet with a spilling tiered prefix KV store: the only workload that uses the prefix cache",
		full:   size{traces: 16, minutes: 30},
		models: 16, cpu: 2, gpu: 2, shards: 4,
		gen: func(names []string, dur sim.Duration, seed uint64) workload.Trace {
			return workload.GenerateChat(workload.ChatConfig{
				ModelNames: names, Duration: dur, Seed: seed,
				Sessions: int(1000 * float64(dur) / float64(30*sim.Minute)),
			})
		},
		routing: func() fleet.RoutingPolicy { return &fleet.KVAffinity{} },
		prefix:  true,
		checks: []check{
			atLeast("served_slo_attain", 0.85),
			atLeast("kvcache.hit_byte_frac", 0.2),
			positive("kvcache.spill_mb_per_kreq"),
		},
	},
	{
		name:   "chaos-fleet-verified",
		why:    "16-shard fleet under a rolling restart with invariant suites and telemetry on: front door, re-drives, checkers and hooks",
		full:   size{traces: 10, minutes: 10},
		models: 32, cpu: 2, gpu: 2, shards: 16,
		gen: func(names []string, dur sim.Duration, seed uint64) workload.Trace {
			return workload.Generate(workload.TraceConfig{
				ModelNames: names, Duration: dur, Seed: seed, Dataset: workload.AzureConv,
				AggregateRPM: 16 * 60,
			})
		},
		routing: func() fleet.RoutingPolicy { return fleet.LeastOutstanding{} },
		chaos:   true,
		checks: []check{
			positive("faults.events"),
			positive("fleet.redriven_per_kreq"),
			atMost("invariants.violations", 0),
		},
	},
}

// queueSteady bounds the mean pending-queue depth of the steady workload;
// the saturated workload must queue at least ten times deeper.
const queueSteady = 1.0

func workloadByName(name string) (*spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// prefixTiers sizes the prefix store's GPU tier small enough that chat
// sessions spill to the host tier and promote back on later turns.
var prefixTiers = kvcache.TieredConfig{Enabled: true, GPUBytes: 512 << 20, CPUBytes: 8 << 30}

// hosted returns the models every controller of the workload hosts.
func (w *spec) hosted() []model.Model { return model.Replicas(model.Llama2_7B, w.models) }

func modelNames(ms []model.Model) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// traceSeed derives the seed of trace i of a workload run from the run
// seed, so every workload and trace draws its own stream.
func traceSeed(name string, seed uint64, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, seed, i)
	return h.Sum64()
}

// system is the serving configuration every controller of the workload
// runs before any instrumentation.
func (w *spec) system() core.Config {
	cfg := core.SLINFER()
	if w.prefix {
		cfg.Name += "+prefix"
		cfg.PrefixCache = prefixTiers
	}
	return cfg
}

// replayOpts selects the instrumentation of one replay. The zero value is
// the plain workload, exactly as a user would run it.
type replayOpts struct {
	// traced wraps the policies in spies, attaches the probe and the event
	// hook, and turns on MeasureOverhead.
	traced bool
	// main records the replay span and the fleet front door; shard[i]
	// records shard i's policy calls (single-controller runs use main).
	main  *tracer
	shard []*tracer
	// replay numbers the replay in the span output; root is its span.
	replay int32
	root   int64
	// workers is the fleet's Workers setting.
	workers int
	// noInvariants and noTelemetry switch those features off on the chaos
	// workload, to measure what they cost.
	noInvariants, noTelemetry bool
}

// outcome is what one replay produced.
type outcome struct {
	rep        metrics.Report
	offered    int64
	failed     int64 // dropped, shed or retry-exhausted
	events     uint64
	violations int
	// Fleet results.
	epochs                int
	imbalance             float64
	redriven, exhausted   int64
	telemEvents           int
	promote, spill, evict int64 // prefix-tier bytes moved, from telemetry
	probe                 ctlProbe
	hook                  simHook
	// Heap allocated by the replay, filled in by the harness.
	allocBytes, allocObjects float64
}

// replay runs one trace through the workload's system, hosting models.
func (w *spec) replay(tr workload.Trace, seed uint64, models []model.Model, o replayOpts) outcome {
	if o.main != nil {
		o.main.replay = o.replay
		o.root = o.main.begin(spanReplay)
		defer o.main.end(true)
	}
	if w.shards == 0 {
		return w.replaySingle(tr, seed, models, o)
	}
	return w.replayFleet(tr, seed, models, o)
}

func (w *spec) replaySingle(tr workload.Trace, seed uint64, models []model.Model, o replayOpts) outcome {
	cfg := w.system()
	cfg.Seed = seed
	var probe ctlProbe
	if o.traced {
		cfg = decorate(cfg, o.main)
		cfg.Probe = &probe
		cfg.MeasureOverhead = true
	}
	a := core.AcquireArena()
	defer a.Release()
	ctl := a.NewController(hwsim.Testbed(w.cpu, w.gpu), models, cfg)
	hook := simHook{ctl: ctl}
	if o.traced {
		ctl.Sim.OnEvent = hook.onEvent
	}
	rep := ctl.Run(tr)
	hook.ctl = nil
	return outcome{
		rep: rep, offered: int64(len(tr.Requests)), failed: rep.Dropped,
		events: ctl.Sim.Fired(), probe: probe, hook: hook,
	}
}

func (w *spec) replayFleet(tr workload.Trace, seed uint64, models []model.Model, o replayOpts) outcome {
	sys := w.system()
	cfg := fleet.Config{
		System:  sys,
		Shards:  fleet.UniformShards(w.shards, w.cpu, w.gpu),
		Models:  models,
		Routing: w.routing(),
		Workers: o.workers,
		Seed:    seed,
	}
	var telem *telemetry.Trace
	if w.chaos {
		cfg.Faults = faults.Preset("rolling-restart", w.shards, tr.Duration, int64(seed))
		cfg.AttachInvariants = !o.noInvariants
		if !o.noTelemetry {
			telem = telemetry.New(telemetry.Options{Spans: true, Series: true, FlightRing: telemetry.DefaultFlightRing})
		}
	} else if o.traced && w.prefix {
		// Tier movements are only visible as telemetry events; the traced
		// pass records spans to sum them.
		telem = telemetry.New(telemetry.Options{Spans: true})
	}
	cfg.Telemetry = telem
	var probes []ctlProbe
	if o.traced {
		cfg.Routing = routingSpy{cfg.Routing, o.main}
		cfg.Admission = admissionSpy{fleet.AcceptAll{}, o.main}
		cfg.Retry = retrySpy{fleet.BudgetedRetry{Budget: 2, Backoff: 1}, o.main}
		// Invariant suites own the probe slot on the chaos workload.
		if !cfg.AttachInvariants {
			probes = make([]ctlProbe, w.shards)
		}
		for i := range cfg.Shards {
			t := o.shard[i]
			t.root, t.replay = o.root, o.replay
			s := decorate(sys, t)
			if probes != nil {
				s.Probe = &probes[i]
				s.MeasureOverhead = true
			}
			cfg.Shards[i].System = &s
		}
	}
	res := fleet.Run(cfg, tr)
	out := outcome{
		rep: res.Report, offered: res.Offered,
		failed: res.Report.Dropped + int64(len(res.Rejections)),
		events: res.EventsFired, violations: len(res.Violations),
		epochs: len(res.ActiveByEpoch), redriven: res.Redriven, exhausted: res.RetryExhausted,
	}
	for _, vs := range res.ShardViolations {
		out.violations += len(vs)
	}
	maxLen, sum := 0, 0
	for _, st := range res.ShardTraces {
		sum += len(st.Requests)
		if len(st.Requests) > maxLen {
			maxLen = len(st.Requests)
		}
	}
	if sum > 0 {
		out.imbalance = float64(maxLen) * float64(len(res.ShardTraces)) / float64(sum)
	}
	for i := range probes {
		out.probe.add(&probes[i])
	}
	if telem != nil {
		out.telemEvents = telem.EventCount()
		for i := 0; i < telem.Shards(); i++ {
			for _, ev := range telem.Recorder(i).Events() {
				switch ev.Kind {
				case telemetry.KindTierPromote:
					out.promote += ev.A
				case telemetry.KindTierSpill:
					out.spill += ev.A
				case telemetry.KindTierEvict:
					out.evict += ev.A
				}
			}
		}
	}
	return out
}
