// Package slinfer is the public facade of the SLINFER reproduction: a
// resource-efficient serverless LLM inference scheme (HPCA 2026) rebuilt as
// a deterministic discrete-event simulation over calibrated CPU/GPU
// hardware models.
//
// A minimal session:
//
//	cluster := slinfer.Testbed(4, 4)                  // 4 CPU + 4 GPU nodes
//	models := slinfer.Replicas(slinfer.Llama2_7B, 64) // 64 hosted 7B models
//	trace := slinfer.AzureTrace(models, 30, 1)        // 30-minute trace, seed 1
//	report := slinfer.Run(slinfer.SLINFER(), cluster, models, trace)
//	fmt.Println(report.SLORate)
//
// The same workload over a deterministic 4-shard fleet behind a front door:
//
//	shards := slinfer.UniformFleet(4, 4, 4) // 4 shards, each 4 CPU + 4 GPU
//	cfg := slinfer.FleetConfig{System: slinfer.SLINFER(), Shards: shards,
//	    Models: models, Routing: slinfer.LeastOutstandingRouting()}
//	res := slinfer.RunFleet(cfg, trace)
//	fmt.Println(res.Report.SLORate, len(res.Rejections))
//
// Baseline systems (Sllm, SllmC, SllmCS, NEOPlus), the ablation variants,
// and every knob of the paper's sensitivity studies are exposed through
// Config. See DESIGN.md for the architecture and its experiment index, and
// bench/README.md for the benchmark and its measured record.
package slinfer

import (
	"fmt"
	"io"
	"strings"

	"slinfer/internal/baseline"
	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/experiments"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/invariants"
	"slinfer/internal/kvcache"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/policy"
	"slinfer/internal/scenario"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// Re-exported types.
type (
	// Config selects a serving system and its policies.
	Config = core.Config
	// Controller orchestrates one serving system (advanced use).
	Controller = core.Controller
	// Model describes a hosted LLM.
	Model = model.Model
	// NodeSpec describes one cluster node.
	NodeSpec = hwsim.NodeSpec
	// Trace is a multi-model request stream.
	Trace = workload.Trace
	// Request is one trace entry.
	Request = workload.Request
	// Dataset is a token-length distribution.
	Dataset = workload.Dataset
	// Report is a run's derived metrics. Report.Canonical renders it as
	// byte-stable text for diffing deterministic runs.
	Report = metrics.Report
	// TraceMeta is the provenance recorded in a saved trace's header.
	TraceMeta = traceio.Meta
	// ReplayOptions configures Replay.
	ReplayOptions = experiments.ReplayOptions
	// TraceConfig fully specifies a synthetic trace for CustomTrace.
	TraceConfig = workload.TraceConfig
	// TieredPrefixConfig sizes the tiered prefix-sharing KV store
	// (Config.PrefixCache): a GPU tier backed by a CPU spill tier, indexed
	// by token-block hash chains. The zero value disables it; Enabled with
	// zero sizes selects the defaults (4 GiB GPU, 4x host). Only requests
	// carrying a PrefixKey participate. See examples/prefixcache.
	TieredPrefixConfig = kvcache.TieredConfig
)

// Policy layer: a serving scheme is a composition of three policies over
// the thin controller. Set them on Config (Placement, Preemption,
// KeepAlivePolicy) to build schemes beyond the paper's presets; nil fields
// compose the preset behavior from the scalar knobs. A custom placement
// typically embeds BinPackPlacement and overrides PlaceNew, keeping the
// embedded Feasible as its per-node filter: the controller's PD decode
// placement filters through the same method. See DESIGN.md and
// examples/custompolicy.
type (
	// PolicyHost is the controller surface custom policies program
	// against.
	PolicyHost = policy.Host
	// PolicyRequest is the in-flight request a placement decision is made
	// for. Controllers recycle requests and instances when they reset for
	// the next run on the same arena, so a request or instance is valid
	// only until its controller's next reset: keep its ID, not the pointer.
	PolicyRequest = engine.Request
	// BinPackPlacement is the paper's best-fit bin-packing placement,
	// parameterized by sharing mode.
	BinPackPlacement = policy.BinPack
	// FixedKeepAlive reclaims idle instances after a constant window.
	FixedKeepAlive = policy.FixedKeepAlive
)

// Elastic is the paper's elastic compute-sharing mode (§VI), the one
// SLINFER uses.
const Elastic = policy.Elastic

// Device kinds for Report lookups.
const (
	CPU = hwsim.CPU
	GPU = hwsim.GPU
)

// Model catalog (§IX-A).
var (
	Llama32_3B     = model.Llama32_3B
	Llama2_7B      = model.Llama2_7B
	Llama2_13B     = model.Llama2_13B
	CodeLlama34B   = model.CodeLlama34B
	Llama31_8B     = model.Llama31_8B
	DeepSeekQwen7B = model.DeepSeekQwen7B
	Codestral22B   = model.Codestral22B
)

// Datasets (§IX-A, §IX-I1).
var (
	AzureConv = workload.AzureConv
	AzureCode = workload.AzureCode
	HumanEval = workload.HumanEval
	ShareGPT  = workload.ShareGPT
	LongBench = workload.LongBench
)

// System presets.
var (
	// SLINFER is the full system (§V-VIII).
	SLINFER = core.SLINFER
	// Sllm is the ServerlessLLM-style exclusive-GPU baseline.
	Sllm = core.Sllm
	// SllmC adds CPU serving to Sllm.
	SllmC = core.SllmC
	// SllmCS adds static half-node time-sharing to SllmC.
	SllmCS = core.SllmCS
	// NEOPlus is the NEO-style CPU-assist comparison (Figure 29).
	NEOPlus = core.NEOPlus
)

// Testbed returns the paper's evaluation cluster shape: nCPU 32-core AMX
// CPU nodes plus nGPU A100-80GB nodes.
func Testbed(nCPU, nGPU int) []NodeSpec { return hwsim.Testbed(nCPU, nGPU) }

// Replicas derives n independently-hosted replicas of a base model.
func Replicas(base Model, n int) []Model { return model.Replicas(base, n) }

// CPUMeetsSLO reports whether a whole gen-4 AMX Xeon node can serve a lone
// inputLen-token request for m within the paper's default SLO: the §V CPU
// gate that decides which requests SLINFER may place on CPUs.
func CPUMeetsSLO(m Model, inputLen int) bool {
	return perfmodel.NewProfile(hwsim.XeonGen4, m, 1, 64).CanMeet(inputLen, slo.Default(inputLen))
}

// traceModels returns the models' names and their largest context window,
// which bounds generated prompt lengths.
func traceModels(models []Model) (names []string, maxCtx int) {
	names = make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
		maxCtx = max(maxCtx, m.MaxContext)
	}
	return names, maxCtx
}

// AzureTrace generates an Azure-Serverless-style trace over the models:
// Zipf popularity, bursty arrivals, AzureConv token lengths.
func AzureTrace(models []Model, minutes float64, seed uint64) Trace {
	names, maxCtx := traceModels(models)
	return workload.Generate(workload.TraceConfig{
		ModelNames: names,
		Duration:   sim.Duration(minutes) * sim.Minute,
		Dataset:    workload.AzureConv,
		Seed:       seed,
		MaxInput:   maxCtx,
	})
}

// BurstGPTTrace generates a BurstGPT-style trace (§IX-I2): a centralized
// bursty stream at ~rps aggregate requests/second, split across models by a
// Pareto distribution.
func BurstGPTTrace(models []Model, minutes, rps float64, seed uint64) Trace {
	names, maxCtx := traceModels(models)
	return workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names,
		Duration:   sim.Duration(minutes) * sim.Minute,
		RPS:        rps,
		Seed:       seed,
		MaxInput:   maxCtx,
	})
}

// CustomTrace generates a trace with full control over the workload.
func CustomTrace(cfg TraceConfig) Trace { return workload.Generate(cfg) }

// ChatTrace generates a multi-turn chat trace: sessions grow a shared
// system-prompt template plus their own conversation history turn by turn,
// and every request carries the PrefixKey that lets the tiered prefix store
// (Config.PrefixCache) serve the recurring prefix from cache.
func ChatTrace(models []Model, minutes float64, seed uint64) Trace {
	names, maxCtx := traceModels(models)
	return workload.GenerateChat(workload.ChatConfig{
		ModelNames: names,
		Duration:   sim.Duration(minutes) * sim.Minute,
		Seed:       seed,
		MaxInput:   maxCtx,
	})
}

// WithPrefixCache returns a system variant with the tiered prefix-sharing
// KV store enabled at its default sizing; set Config.PrefixCache directly
// for custom tier capacities.
func WithPrefixCache(cfg Config) Config { return baseline.WithPrefixCache(cfg) }

// Telemetry layer (internal/telemetry): deterministic request span traces,
// sim-time metric streams, and a flight recorder, recorded as a pure
// function of (config, trace, seed) — exports are byte-identical across
// reruns, worker counts, and arena reuse. See DESIGN.md "Telemetry" and
// examples/timeline.
type (
	// Telemetry is one run's observability sink: a recorder per shard plus
	// a fleet front-door recorder. Thread it through Config.Telemetry
	// (WithTelemetry), ReplayOptions.Telemetry, or FleetConfig.Telemetry,
	// then export after the run.
	Telemetry = telemetry.Trace
	// TelemetryRecorder is one shard's event/sample buffer.
	TelemetryRecorder = telemetry.Recorder
	// TelemetryOptions selects the pillars: Spans, Series, FlightRing.
	TelemetryOptions = telemetry.Options
)

// NewTelemetry returns an empty telemetry sink recording per opts.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// WithTelemetry returns a system variant whose controller records onto rec
// (typically t.Recorder(0) for single-controller runs). Telemetry is
// strictly observational: the run's Report is byte-identical either way.
func WithTelemetry(cfg Config, rec *TelemetryRecorder) Config {
	cfg.Telemetry = rec
	return cfg
}

// SpanExportChrome writes t's span trace as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing (shards are process rows,
// instances thread rows).
func SpanExportChrome(w io.Writer, t *Telemetry) error { return t.ExportChrome(w) }

// SeriesCSV writes t's sim-time metric stream as CSV (queue depth, active
// batch, KV tier bytes, goodput, retry backlog per sample).
func SeriesCSV(w io.Writer, t *Telemetry) error { return t.SeriesCSV(w) }

// Trace I/O and replay: a recorded trace is a first-class simulator input.
// SaveTrace persists the request sequence as versioned JSONL; LoadTrace
// streams it back; the transformers derive scenario families from one
// recording; Replay drives any preset from it. Replaying a saved trace is
// byte-identical (Report.Canonical) to running the in-memory trace it was
// saved from. See DESIGN.md "Trace I/O and replay".

// SaveTrace writes a trace to path as versioned JSONL with provenance.
func SaveTrace(path string, tr Trace, meta TraceMeta) error {
	return traceio.SaveFile(path, tr, meta)
}

// LoadTrace reads a JSONL trace and its recorded provenance from path.
func LoadTrace(path string) (Trace, TraceMeta, error) { return traceio.LoadFile(path) }

// ScaleRate changes a trace's offered load by factor (thinning below 1,
// superposing jittered replicas above), deterministically in seed.
func ScaleRate(tr Trace, factor float64, seed uint64) Trace {
	return traceio.ScaleRate(tr, factor, seed)
}

// CompressTime speeds a trace up by factor (arrivals and duration shrink).
func CompressTime(tr Trace, factor float64) Trace { return traceio.CompressTime(tr, factor) }

// SubsetModels keeps only the named models' requests.
func SubsetModels(tr Trace, names ...string) Trace { return traceio.SubsetModels(tr, names...) }

// MergeTraces superposes traces onto one timeline.
func MergeTraces(traces ...Trace) Trace { return traceio.Merge(traces...) }

// Replay drives a system preset end-to-end over an existing request
// sequence — recorded, loaded, or transformed — and returns its report.
func Replay(tr Trace, opt ReplayOptions) (Report, error) { return experiments.Replay(tr, opt) }

// Scenario matrix & invariants: the verification subsystem. A ScenarioGrid
// composes axes (workload × transform × topology × system × SLO × seed)
// into cells; RunScenarios fans them across the experiment worker pool with
// the always-on invariant suite attached to every cell. AttachInvariants
// wires the same suite into a hand-built controller. See DESIGN.md
// "Scenario matrix & invariants" and `cmd/slinfer-verify`.
type (
	// ScenarioGrid is a declarative scenario matrix (cross product of axes).
	ScenarioGrid = scenario.Grid
	// ScenarioResult is one cell's report plus detected violations.
	ScenarioResult = scenario.CellResult
	// ScenarioWorkload is the workload-shape axis value.
	ScenarioWorkload = scenario.Workload
	// ScenarioTransform is the trace-transform axis value.
	ScenarioTransform = scenario.Transform
	// ScenarioTopology is the cluster-topology axis value.
	ScenarioTopology = scenario.Topology
	// ScenarioSLO is the SLO-class axis value; a zero Objective selects the
	// paper's default TTFT/TPOT formula.
	ScenarioSLO = scenario.SLOClass
	// InvariantSuite is one run's attached checker set.
	InvariantSuite = invariants.Suite
)

// RunScenarios evaluates every cell of a grid with invariants attached,
// fanning cells across the experiment worker pool.
func RunScenarios(g ScenarioGrid) []ScenarioResult { return scenario.RunGrid(g) }

// AttachInvariants wires the always-on checker suite — event-clock
// monotonicity, memory-ledger conservation, KV accounting, request
// lifecycle, SLO bookkeeping — into a controller built with NewController.
// Call before Run; query the returned suite afterwards.
func AttachInvariants(c *Controller) *InvariantSuite { return invariants.Attach(c) }

// Fleet layer: N independent controller shards — each its own deterministic
// simulation over its own (possibly heterogeneous) topology — behind a
// front door with three pluggable decision points (routing, admission,
// autoscaling) in epoch-synchronized co-simulation. A fleet run is a pure
// function of (config, trace) regardless of FleetConfig.Workers. See
// DESIGN.md "Fleet layer" and examples/fleet.
type (
	// FleetConfig parameterizes a fleet run (shards, policies, epoch).
	FleetConfig = fleet.Config
	// FleetShard describes one shard: topology plus optional per-shard
	// system override.
	FleetShard = fleet.ShardSpec
	// FleetResult is a fleet run's outcome: merged report, per-shard
	// reports and replayable trace slices, the rejection ledger, and any
	// invariant violations.
	FleetResult = fleet.Result
	// FleetRoutingPolicy picks the shard an accepted request lands on.
	FleetRoutingPolicy = fleet.RoutingPolicy
	// FleetAdmissionPolicy sheds arrivals at the front door.
	FleetAdmissionPolicy = fleet.AdmissionPolicy
	// FleetAutoscalePolicy resizes the active shard set per epoch.
	FleetAutoscalePolicy = fleet.AutoscalePolicy
)

// UniformFleet returns n identical shards over the paper's testbed shape.
func UniformFleet(n, cpu, gpu int) []FleetShard { return fleet.UniformShards(n, cpu, gpu) }

// RunFleet executes a fleet over a trace: requests are admitted and routed
// in global arrival order on previous-epoch shard snapshots, shards advance
// in parallel between epoch barriers, and the per-shard reports merge into
// one (counters sum, percentiles recomputed from the pooled sample CDFs).
// Deterministic in (cfg, tr).
func RunFleet(cfg FleetConfig, tr Trace) FleetResult { return fleet.Run(cfg, tr) }

// PartitionTrace splits a trace into n slices (the inverse of MergeTraces):
// assign maps each request to its slice, negative drops it. Each slice is a
// valid standalone trace on the original timeline.
func PartitionTrace(tr Trace, n int, assign func(Request) int) []Trace {
	return traceio.Partition(tr, n, assign)
}

// Stock fleet policies.

// LeastOutstandingRouting routes to the least-loaded active shard.
func LeastOutstandingRouting() FleetRoutingPolicy { return fleet.LeastOutstanding{} }

// KVAffinityRouting routes prefix-keyed requests to the shard holding the
// most resident bytes for their prefix root (end-of-epoch snapshots), with
// rendezvous hashing as the cold-prefix and keyless fallback. Pair with a
// prefix-enabled system (WithPrefixCache) and a chat-style trace.
func KVAffinityRouting() FleetRoutingPolicy { return &fleet.KVAffinity{} }

// MaxOutstandingAdmission sheds arrivals past perShard outstanding requests
// per active shard, recording each in the rejection ledger.
func MaxOutstandingAdmission(perShard int) FleetAdmissionPolicy {
	return fleet.MaxOutstanding{PerShard: perShard}
}

// LoadThresholdScale grows/shrinks the active shard set one shard per epoch
// around per-shard outstanding-load watermarks (low < high; min bounds the
// shrink).
func LoadThresholdScale(low, high, min int) FleetAutoscalePolicy {
	return fleet.LoadThreshold{High: high, Low: low, Min: min}
}

// Fault injection: a FaultPlan schedules typed events — shard crash,
// recover, drain, slowdown, KV-tier degrade — on the fleet's virtual
// timeline (FleetConfig.Faults). Plans are JSONL-serializable, pure
// functions of their inputs, and quantized onto the epoch grid, so a chaos
// run is byte-identical across repeats and worker counts. See DESIGN.md
// "Fault injection & recovery" and examples/chaos.
type (
	// FaultPlan is a deterministic schedule of fault events.
	FaultPlan = faults.Plan
	// FaultEvent is one typed fault on the fleet timeline.
	FaultEvent = faults.Event
	// FleetRetryPolicy decides the fate of requests pulled off crashed
	// shards (FleetConfig.Retry).
	FleetRetryPolicy = fleet.RetryPolicy
)

// Fault event kinds.
const (
	FaultShardCrash   = faults.ShardCrash
	FaultShardRecover = faults.ShardRecover
	FaultSlowdown     = faults.Slowdown
)

// FaultPreset builds a seeded fault plan ("crash", "rolling-restart",
// "straggler", "kvdegrade") for a fleet of the given shape — a pure
// function of its arguments. An unknown name is an error listing the
// valid ones.
func FaultPreset(name string, shards int, dur sim.Duration, seed int64) (*FaultPlan, error) {
	if p := faults.Preset(name, shards, dur, seed); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("unknown fault preset %q (have %s)", name, strings.Join(faults.PresetNames, ", "))
}

// SaveFaultPlan writes a fault plan as JSONL.
func SaveFaultPlan(w io.Writer, p *FaultPlan) error { return faults.Save(w, p) }

// BudgetedRetryPolicy re-drives each request pulled off a crashed shard up
// to budget times with a linear backoff of backoff epochs per prior
// attempt; past the budget the request lands in the rejection ledger as
// retry-exhausted.
func BudgetedRetryPolicy(budget, backoff int) FleetRetryPolicy {
	return fleet.BudgetedRetry{Budget: budget, Backoff: backoff}
}

// Run executes one serving system over a cluster and trace, returning the
// metrics report. Runs are deterministic for a given (config, trace) pair.
func Run(cfg Config, specs []NodeSpec, models []Model, tr Trace) Report {
	s := sim.New()
	c := core.New(s, specs, models, cfg)
	return c.Run(tr)
}

// NewController builds a controller for step-by-step simulations (submit
// individual requests, inspect instances). Most callers want Run.
func NewController(cfg Config, specs []NodeSpec, models []Model) (*Controller, *sim.Simulator) {
	s := sim.New()
	return core.New(s, specs, models, cfg), s
}
