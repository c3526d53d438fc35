// Package fleet runs N independent controller shards — each its own
// deterministic discrete-event simulation over its own (possibly
// heterogeneous) topology — behind a front-door layer that routes, admits,
// and autoscales in epoch-synchronized co-simulation:
//
//	for each epoch [kE, (k+1)E):
//	    apply due fault actions, decide retries } decisions see only shard
//	    autoscale the active shard set           } snapshots from the end of
//	    re-drive, then admit + route the epoch's } epoch k-1
//	    arrivals in global arrival order         }
//	    advance every shard to (k+1)E — in parallel (internal/par)
//	    snapshot every shard, in shard order
//
// Routing is serial and snapshot-driven, shard interiors never share
// state, and snapshots are collected in shard order at a barrier — so a
// fleet run is a pure function of (config, trace) exactly like a single
// controller run, independent of the worker count (pinned by
// TestFleetDeterministicAcrossWorkers). Shards between barriers are
// embarrassingly parallel, which is where the fleet's aggregate events/s
// over a single shard comes from (BenchmarkSub_FleetEpoch).
//
// Aggregation merges the per-shard reports through metrics.MergeReports;
// the rejection ledger, per-shard replayable trace slices
// (traceio.Partition), and always-on fleet invariants (request
// conservation, routing-range, epoch clock monotonicity) ride on the
// Result. See DESIGN.md "Fleet layer".
//
// There is one fleet path: a fault-free run is the empty-plan case of the
// fault machinery (Config.Faults, internal/faults). Fault actions fire at
// the top of an epoch, crashes pull the shard's live requests from its
// controller for budgeted re-drive (Config.Retry), and request
// conservation holds across crashes.
// See DESIGN.md "Fault injection & recovery".
package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/faults"
	"slinfer/internal/hwsim"
	"slinfer/internal/invariants"
	"slinfer/internal/kvcache"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/par"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// ShardSpec describes one shard of the fleet.
type ShardSpec struct {
	// Name labels the shard's report; empty derives "shard00", "shard01", ...
	Name string
	// Specs is the shard's cluster topology.
	Specs []hwsim.NodeSpec
	// System overrides Config.System for this shard (heterogeneous fleets:
	// a GPU-rich shard can run a different composition than a CPU-heavy
	// one); nil inherits.
	System *core.Config
}

// UniformShards returns n identical shards over the paper's testbed shape.
func UniformShards(n, cpu, gpu int) []ShardSpec {
	out := make([]ShardSpec, n)
	for i := range out {
		out[i].Specs = hwsim.Testbed(cpu, gpu)
	}
	return out
}

// Config parameterizes a fleet run.
type Config struct {
	// Name labels the merged report; empty derives
	// "fleet[<n>x<system>/<routing>]".
	Name string
	// System is the per-shard serving configuration (a core preset or any
	// policy composition). Stock policy compositions are stateless and safe
	// to share across shards; a custom stateful policy set here would be —
	// set per-shard Systems instead.
	System core.Config
	// Shards is the fleet topology; at least one.
	Shards []ShardSpec
	// Models are hosted on every shard (any shard must be able to serve
	// any routed request).
	Models []model.Model
	// Routing picks shards for accepted arrivals; nil is round-robin.
	Routing RoutingPolicy
	// Admission sheds arrivals at the front door; nil accepts all.
	Admission AdmissionPolicy
	// Autoscale resizes the active shard set; nil keeps all shards active.
	Autoscale AutoscalePolicy
	// Epoch is the co-simulation window; decisions in one epoch see shard
	// state from the end of the previous. Zero selects 5 s.
	Epoch sim.Duration
	// Workers bounds how many shards advance concurrently between epoch
	// barriers: 0 selects GOMAXPROCS, 1 forces serial. Results are
	// identical either way. The fleet deliberately does not use the
	// experiments worker pool — a fleet inside a scenario/sweep cell would
	// nest fan-outs and risk deadlocking a saturated pool — so callers
	// inside such cells should set Workers to 1.
	Workers int
	// Seed decorrelates the shards: shard i's controller seed is
	// ShardSeed(Seed^System.Seed, i).
	Seed uint64
	// AttachInvariants wires the internal/invariants suite into every
	// shard controller; violations land in Result.ShardViolations.
	AttachInvariants bool
	// Faults schedules deterministic fault injection on the fleet's
	// virtual timeline (internal/faults); nil or empty runs fault-free,
	// byte-identical to a config without the field.
	Faults *faults.Plan
	// Retry governs re-drive of requests pulled off crashed shards; nil
	// selects BudgetedRetry{Budget: 2, Backoff: 1}.
	Retry RetryPolicy
	// Telemetry, when non-nil, records the fleet's observability streams:
	// shard i's controller writes Telemetry.Recorder(i) (its recorder rides
	// the shard config across crash rebuilds, so a shard's timeline is
	// continuous through faults), the serial front-door section writes
	// Telemetry.Fleet() (fault applications, re-drives, retry exhaustion),
	// and every epoch barrier appends one SampleEpoch row per shard.
	// Strictly observational: nil runs are byte-identical to before the
	// field existed.
	Telemetry *telemetry.Trace
}

func (c Config) withDefaults() Config {
	if c.Routing == nil {
		c.Routing = &RoundRobin{}
	}
	if c.Admission == nil {
		c.Admission = AcceptAll{}
	}
	if c.Autoscale == nil {
		c.Autoscale = FixedFleet{}
	}
	if c.Epoch <= 0 {
		c.Epoch = 5 * sim.Second
	}
	if c.Retry == nil {
		c.Retry = BudgetedRetry{Budget: 2, Backoff: 1}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Name == "" {
		sys := c.System.Name
		if sys == "" {
			sys = "unnamed"
		}
		c.Name = fmt.Sprintf("fleet[%dx%s/%s]", len(c.Shards), sys, c.Routing.Name())
	}
	return c
}

// ShardSeed derives shard i's controller seed from the fleet seed:
// a splitmix-style odd-constant spread so shards draw decorrelated noise
// streams while staying a pure function of (seed, index).
func ShardSeed(seed uint64, i int) uint64 {
	return seed ^ (0x9E3779B97F4A7C15 * uint64(i+1))
}

// Rejection is one ledger entry for a request terminally rejected by the
// fleet: shed at the front door, or pulled off a crashed shard and not
// re-driven.
type Rejection struct {
	// ID and Model identify the trace request.
	ID    int64
	Model string
	// At is the time of the rejection decision: the arrival time for
	// front-door sheds, the pull/give-up epoch boundary for re-drives.
	At sim.Time
	// Reason labels the decision — one of the Reason* constants for
	// everything the fleet itself emits (see RejectionReasons), or a
	// custom admission policy's own label.
	Reason string
}

// Result is one fleet run's outcome.
type Result struct {
	// Report is the fleet-merged report (metrics.MergeReports).
	Report metrics.Report
	// Shards holds the per-shard reports, in shard order.
	Shards []metrics.Report
	// ShardTraces are the routed per-shard request slices, each a valid
	// standalone trace (dense IDs, empirical RPM, full duration) — persist
	// them with traceio and replay any shard in isolation.
	ShardTraces []workload.Trace
	// Rejections is the shed-request ledger, in arrival order.
	Rejections []Rejection
	// ActiveByEpoch records the autoscaler's active shard count per epoch.
	ActiveByEpoch []int
	// Offered counts trace arrivals; Accepted those that reached a shard.
	Offered, Accepted int64
	// Redriven counts re-submissions of requests pulled off crashed
	// shards; RetryExhausted counts pulled requests terminally rejected
	// (retry budget exhausted, or no shard left to take them). Both zero
	// on fault-free runs.
	Redriven, RetryExhausted int64
	// EventsFired totals DES events executed across all shards.
	EventsFired uint64
	// Violations are fleet-level invariant breaches (front-door
	// accounting, routing range, epoch clock monotonicity).
	Violations []invariants.Violation
	// ShardViolations hold each shard's invariant-suite findings when
	// Config.AttachInvariants is set (nil suites leave empty slices).
	ShardViolations [][]invariants.Violation
	// FlightDumps holds, per shard, the telemetry flight-recorder dump
	// captured at that shard's first invariant violation ("" when the shard
	// stayed clean, telemetry was off, or no flight ring was armed).
	FlightDumps []string
}

// Ok reports whether the run finished with no violation anywhere.
func (r Result) Ok() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, vs := range r.ShardViolations {
		if len(vs) > 0 {
			return false
		}
	}
	return true
}

// shard is one running shard: its simulator, controller, and submit glue.
// Each shard borrows a pooled core.Arena for the duration of the run; Run
// releases every shard's arena after the final checker pass.
type shard struct {
	arena    *core.Arena
	sim      *sim.Simulator
	ctl      *core.Controller
	suite    *invariants.Suite
	fnSubmit func(any)
	routed   int // total submissions to this shard (arrivals + re-drives)
	// sliceCount tracks how many trace requests the shard's final
	// partition slice holds: +1 per routed arrival or re-drive, -1 per
	// crash pull. Equals routed on fault-free runs.
	sliceCount int
	// resScratch backs the snapshot's prefix-residency slice; safe to reuse
	// because each barrier replaces the previous snapshot wholesale.
	resScratch []kvcache.RootResidency

	// Fault state (only exercised when the run has a non-empty plan).
	specs   []hwsim.NodeSpec // construction parameters, kept for crash-reset
	models  []model.Model
	sys     core.Config
	attach  bool
	up      bool    // false between crash and recover
	healthy bool    // receives new arrivals (up and not draining)
	slow    float64 // active straggler factor (0 = none)
	gpuFull int64   // saved GPU tier capacity while degraded (0 = none)
	// segments holds the stream segments finalized by crashes; segStart
	// is the current segment's begin time. firedBefore and completedBefore
	// accumulate the DES event and completion counts of controllers lost
	// to crashes; completedMark is the cumulative completion count at the
	// last barrier (the goodput series' reference point).
	segments        []metrics.Report
	segStart        sim.Time
	segViol         []invariants.Violation
	firedBefore     uint64
	completedBefore int64
	completedMark   int64
	// flight keeps the first flight-recorder dump any of the shard's
	// invariant suites produced (suites are finalized at crashes and run
	// end; the first violation wins).
	flight string
}

func newShard(cfg Config, i int) *shard {
	spec := cfg.Shards[i]
	sys := cfg.System
	if spec.System != nil {
		sys = *spec.System
	}
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("shard%02d", i)
	}
	sys.Name = fmt.Sprintf("%s/%s", sys.Name, name)
	sys.Seed = ShardSeed(cfg.Seed^sys.Seed, i)
	if cfg.Telemetry != nil {
		sys.Telemetry = cfg.Telemetry.Recorder(i)
	}
	a := core.AcquireArena()
	sd := &shard{
		arena: a, sim: a.Sim(), ctl: a.NewController(spec.Specs, cfg.Models, sys),
		specs: spec.Specs, models: cfg.Models, sys: sys,
		attach: cfg.AttachInvariants, up: true, healthy: true,
	}
	sd.watch()
	sd.fnSubmit = func(a any) { sd.ctl.Submit(*(a.(*workload.Request))) }
	return sd
}

// watch attaches the invariant suite, when configured, to the shard's
// current controller. Construction and recovery both go through it, so a
// rebuilt controller is watched exactly like the original.
func (sd *shard) watch() {
	if sd.attach {
		sd.suite = invariants.Attach(sd.ctl)
	}
}

// enqueue schedules one routed request on the shard's simulator.
//
//slinfer:hotpath
func (sd *shard) enqueue(r workload.Request) {
	sd.routed++
	sd.sliceCount++
	arg := new(workload.Request)
	*arg = r
	sd.sim.AtFunc(r.Arrival, sd.fnSubmit, arg)
}

func (sd *shard) snapshot(i int, active bool, routedLast int) Snapshot {
	col := sd.ctl.Collector
	if ts := sd.ctl.PrefixStore(); ts != nil {
		sd.resScratch = ts.AppendResidency(sd.resScratch[:0])
	}
	slow := sd.slow
	if slow <= 0 {
		slow = 1
	}
	return Snapshot{
		Shard: i, Name: sd.ctl.Cfg.Name, Active: active,
		Healthy: sd.healthy, SlowFactor: slow,
		Now:         sd.sim.Now(),
		Outstanding: col.Total - col.Completed - col.Dropped,
		Queued:      sd.ctl.PendingCount(),
		Instances:   sd.ctl.InstanceCount(),
		Total:       col.Total, Completed: col.Completed, Dropped: col.Dropped,
		RoutedLastEpoch: routedLast,
		PrefixResident:  sd.resScratch,
	}
}

// epochCompletions returns the shard's completions since the last
// barrier — counting those of a controller lost to a crash since — and
// moves the barrier mark.
func (sd *shard) epochCompletions() int64 {
	total := sd.completedBefore + sd.ctl.Collector.Completed
	n := total - sd.completedMark
	sd.completedMark = total
	return n
}

// closeSuite folds the current invariant suite's findings (and its first
// flight dump) into the shard's record and detaches it.
func (sd *shard) closeSuite() {
	if sd.suite == nil {
		return
	}
	sd.segViol = append(sd.segViol, sd.suite.Violations()...)
	if sd.flight == "" {
		sd.flight = sd.suite.FlightDump()
	}
	sd.suite = nil
}

// crash tears the shard down at an epoch top: the controller's live
// requests are pulled, sorted by (arrival as last submitted, ID), for the
// caller to re-drive; the current stream segment is finalized into
// sd.segments; and the controller is rebuilt from its original
// construction parameters — the simulator reset drops every pending
// event, and the rebuild loses all warm state (queues, instances, KV,
// prefix tiers), which is exactly the crash semantics.
func (sd *shard) crash(now sim.Time, ck *checker) []*engine.Request {
	col := sd.ctl.Collector
	pulled := sd.ctl.AppendLive(make([]*engine.Request, 0, max(col.Total-col.Completed-col.Dropped, 0)))
	sort.Slice(pulled, func(i, j int) bool {
		a, b := pulled[i].W, pulled[j].W
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
	if sd.suite != nil {
		// Cross-check the controller's live set against the invariant
		// suite's independently tracked one before pulling.
		ids := make([]int64, len(pulled))
		for i, r := range pulled {
			ids[i] = r.W.ID
		}
		slices.Sort(ids)
		if want := sd.suite.AppendLiveIDs(make([]int64, 0, len(ids))); !slices.Equal(ids, want) {
			ck.report("fleet-conservation", now,
				"crash on %s: controller holds live requests %v, invariant suite tracks %v",
				sd.ctl.Cfg.Name, ids, want)
		}
	}
	sd.segments = append(sd.segments, sd.ctl.EndStream(now.Sub(sd.segStart)))
	sd.closeSuite()
	sd.sliceCount -= len(pulled) // pulled requests leave this shard's slice
	sd.firedBefore += sd.sim.Fired()
	sd.completedBefore += sd.ctl.Collector.Completed
	sd.ctl = sd.arena.NewController(sd.specs, sd.models, sd.sys)
	sd.up, sd.healthy = false, false
	sd.slow, sd.gpuFull = 0, 0
	return pulled
}

// recover brings a crashed shard back cold (or just reopens a drained
// one): the lifecycle witnesses are re-installed on the rebuilt controller
// and a new stream segment begins at now. The sampler self-stops past
// traceEnd, so recoveries in extension epochs only serve re-drives.
func (sd *shard) recover(now, traceEnd sim.Time, expected int) {
	if sd.up {
		sd.healthy = true
		return
	}
	sd.watch()
	sd.ctl.BeginStream(traceEnd, expected)
	sd.segStart = now
	sd.up, sd.healthy = true, true
}

// report ends the shard's stream at the run horizon plus the drain grace
// and folds any crash-finalized segments into one shard report.
func (sd *shard) report(horizon sim.Time) metrics.Report {
	total := sim.Duration(horizon) + core.DrainGrace
	defer sd.closeSuite()
	switch {
	case sd.up && len(sd.segments) == 0:
		// The common case, and the only one on fault-free runs: a single
		// segment spanning the whole run.
		return sd.ctl.EndStream(total)
	case sd.up:
		segs := append(sd.segments, sd.ctl.EndStream(horizon.Add(core.DrainGrace).Sub(sd.segStart)))
		return mergeSegments(sd.ctl.Cfg.Name, total, segs)
	default:
		// Down at run end: the crash already finalized every segment.
		return mergeSegments(sd.ctl.Cfg.Name, total, sd.segments)
	}
}

// frontDoor owns one fleet run: the shards, their end-of-previous-epoch
// snapshots, the arrival-index -> shard placement, the compiled fault
// plan, and the retry queue. Run drives it one epoch at a time through
// its phase methods — beginEpoch, applyFaults, decideRetries, scale,
// redrive, admitAndRoute, barrier — and finish builds the Result. Every
// phase except the shard advance inside barrier is serial, so all of its
// state is read and written by one goroutine.
type frontDoor struct {
	cfg      Config
	tr       workload.Trace
	shards   []*shard
	snaps    []Snapshot
	assigned []int // arrival index -> shard (-1 shed, pulled, or exhausted)
	ck       *checker
	res      Result
	sem      par.Sem
	advance  func(int) struct{} // pre-bound shard advance for par.Do
	// front is the fleet's telemetry recorder, written only inside the
	// serial section so its event stream is ordered for any worker count;
	// nil without telemetry.
	front *telemetry.Recorder

	traceEnd, horizon sim.Time
	expected          int // per-shard arrival reservation for BeginStream

	actions         []faultAction
	nextAction      int
	lastActionEpoch int   // epoch of the final action (-1 without one)
	fired           int64 // applied fault actions
	firstFault      int   // epoch of the first applied action (-1 none)
	pulled          []retryEntry
	retryq          []retryEntry
	attempts        map[int64]int
	completions     []int64 // fleet completions per epoch (goodput series)
	// arrivalIdx maps trace request ID -> arrival index for crash pulls;
	// built at the first crash, so fault-free runs never pay for it.
	arrivalIdx map[int64]int

	// Epoch state: [start, end) is the current window, next the first trace
	// arrival not yet offered, st the policies' view (reused every epoch).
	epoch      int
	start, end sim.Time
	next       int
	active     int
	st         EpochState
	healthy    bool // the active set holds a healthy shard this epoch
}

// Run executes the fleet over a trace. It panics on an invalid
// configuration (no shards, no models) and records an invalid trace, an
// invalid fault plan, or a misbehaving policy as fleet violations rather
// than crashing mid-run.
func Run(cfg Config, tr workload.Trace) Result {
	if len(cfg.Shards) == 0 {
		panic("fleet: config has no shards")
	}
	if len(cfg.Models) == 0 {
		panic("fleet: config hosts no models")
	}
	fd := newFrontDoor(cfg.withDefaults(), tr)
	fd.runEpochs()
	fd.drain()
	return fd.finish()
}

// runEpochs covers the trace window, then extension epochs until every
// pending fault action has fired and the retry queue has drained (each
// entry is eventually re-driven or ledgered, so the extension is bounded
// by the plan and the backoff). Fault-free runs have neither.
func (fd *frontDoor) runEpochs() {
	for fd.start < fd.traceEnd || len(fd.retryq) > 0 || fd.nextAction < len(fd.actions) {
		fd.beginEpoch()
		fd.applyFaults()
		fd.decideRetries()
		fd.scale()
		fd.redrive()
		fd.admitAndRoute()
		fd.barrier()
	}
}

func newFrontDoor(cfg Config, tr workload.Trace) *frontDoor {
	cfg.Routing.Reset()
	n := len(cfg.Shards)
	fd := &frontDoor{
		cfg: cfg, tr: tr, ck: newChecker(),
		shards:   make([]*shard, n),
		snaps:    make([]Snapshot, n),
		assigned: make([]int, len(tr.Requests)),
		sem:      par.NewSem(cfg.Workers),
		res: Result{
			ShardViolations: make([][]invariants.Violation, n),
			FlightDumps:     make([]string, n),
		},
		traceEnd:        sim.Time(0).Add(tr.Duration),
		expected:        len(tr.Requests)/n + 1,
		lastActionEpoch: -1,
		firstFault:      -1,
		attempts:        map[int64]int{},
		active:          n,
		st:              EpochState{Routed: make([]int, n)},
	}
	fd.horizon = fd.traceEnd
	fd.completions = make([]int64, 0, int(tr.Duration/cfg.Epoch)+1)
	fd.st.Snaps = fd.snaps
	fd.advance = fd.advanceShard
	if err := tr.Validate(); err != nil {
		fd.ck.report("fleet-trace", 0, "invalid trace: %v", err)
	}
	if err := cfg.Faults.Validate(n, tr.Duration); err != nil {
		fd.ck.report("fleet-faults", 0, "invalid fault plan: %v", err)
	} else if fd.actions = compilePlan(cfg.Faults, cfg.Epoch); len(fd.actions) > 0 {
		fd.lastActionEpoch = fd.actions[len(fd.actions)-1].epoch
	}
	if cfg.Telemetry != nil {
		fd.front = cfg.Telemetry.Fleet()
	}
	for i := range fd.shards {
		fd.shards[i] = newShard(cfg, i)
		fd.shards[i].ctl.BeginStream(fd.traceEnd, fd.expected)
		fd.snaps[i] = fd.shards[i].snapshot(i, true, 0)
	}
	for i := range fd.assigned {
		fd.assigned[i] = -1
	}
	return fd
}

// beginEpoch opens the window [start, end): the last trace epoch is cut
// at the trace end, and extension epochs past it push the run horizon.
func (fd *frontDoor) beginEpoch() {
	fd.end = sim.Time(0).Add(sim.Duration(fd.epoch+1) * fd.cfg.Epoch)
	if fd.end > fd.traceEnd && fd.start < fd.traceEnd {
		fd.end = fd.traceEnd
	}
	if fd.end > fd.horizon {
		fd.horizon = fd.end
	}
}

// scale resizes the active set from the (fault-patched) snapshots — frozen
// in extension epochs, which take no arrivals — and resets the policies'
// epoch state.
func (fd *frontDoor) scale() {
	if fd.start < fd.traceEnd {
		fd.active = clamp(fd.cfg.Autoscale.Scale(fd.active, fd.snaps), 1, len(fd.shards))
	}
	fd.res.ActiveByEpoch = append(fd.res.ActiveByEpoch, fd.active)
	fd.st.Epoch, fd.st.Active, fd.st.Accepted = fd.epoch, fd.active, 0
	clear(fd.st.Routed)
	fd.healthy = false
	for i := 0; i < fd.active; i++ {
		if fd.snaps[i].Healthy {
			fd.healthy = true
			break
		}
	}
}

// route asks the routing policy for r's shard and guards the answer: an
// out-of-range pick is clamped and an unhealthy pick re-routed to the
// first healthy active shard, both reported as violations.
func (fd *frontDoor) route(r workload.Request) int {
	s := fd.cfg.Routing.Route(r, &fd.st)
	if s < 0 || s >= fd.active {
		fd.ck.report("fleet-routing", r.Arrival,
			"policy %s routed request %d to shard %d, active set is [0, %d)",
			fd.cfg.Routing.Name(), r.ID, s, fd.active)
		s = clamp(s, 0, fd.active-1)
	}
	if !fd.snaps[s].Healthy {
		for i := 0; i < fd.active; i++ {
			if fd.snaps[i].Healthy {
				fd.ck.report("fleet-routing", r.Arrival,
					"policy %s routed request %d to unhealthy shard %d, re-routed to %d",
					fd.cfg.Routing.Name(), r.ID, s, i)
				s = i
				break
			}
		}
	}
	return s
}

// place sends request r (trace arrival index idx) to shard s and counts
// it in the epoch state.
func (fd *frontDoor) place(r workload.Request, idx, s int) {
	fd.assigned[idx] = s
	fd.st.Routed[s]++
	fd.st.Accepted++
	fd.shards[s].enqueue(r)
}

// admitAndRoute offers the window's trace arrivals, in arrival order, to
// admission and then routing. With no healthy shard in the active set
// they are ledgered as no-healthy-shard without reaching either policy.
func (fd *frontDoor) admitAndRoute() {
	reqs := fd.tr.Requests
	for ; fd.next < len(reqs) && reqs[fd.next].Arrival < fd.end; fd.next++ {
		r := reqs[fd.next]
		fd.res.Offered++
		reason := ReasonNoHealthyShard
		ok := fd.healthy
		if ok {
			ok, reason = fd.cfg.Admission.Admit(r, &fd.st)
		}
		if !ok {
			fd.res.Rejections = append(fd.res.Rejections, Rejection{
				ID: r.ID, Model: r.ModelName, At: r.Arrival, Reason: reason,
			})
			continue
		}
		fd.res.Accepted++
		fd.place(r, fd.next, fd.route(r))
	}
}

func (fd *frontDoor) advanceShard(i int) struct{} {
	fd.shards[i].sim.RunUntil(fd.end)
	return struct{}{}
}

// barrier advances every shard to the window's end concurrently, then —
// serially, in shard order — snapshots them, checks barrier synchrony,
// records the epoch's goodput, and moves the window.
func (fd *frontDoor) barrier() {
	par.Do(fd.sem, len(fd.shards), fd.advance)
	for i, sd := range fd.shards {
		fd.snaps[i] = sd.snapshot(i, i < fd.active, fd.st.Routed[i])
	}
	fd.ck.epochBarrier(fd.epoch, fd.end, fd.snaps)
	var done int64
	for i, sd := range fd.shards {
		goodput := sd.epochCompletions()
		done += goodput
		if fd.cfg.Telemetry != nil {
			fd.sampleEpoch(i, goodput)
		}
	}
	fd.completions = append(fd.completions, done)
	fd.start = fd.end
	fd.epoch++
}

// sampleEpoch appends shard i's SampleEpoch row at the barrier (serial
// section — the shard simulators are quiescent).
func (fd *frontDoor) sampleEpoch(i int, goodput int64) {
	snap := &fd.snaps[i]
	var kvGPU, kvCPU int64
	if ts := fd.shards[i].ctl.PrefixStore(); ts != nil {
		kvGPU, kvCPU = ts.Ledger.GPUBytes, ts.Ledger.CPUBytes
	}
	act := snap.Outstanding - int64(snap.Queued)
	if act < 0 {
		act = 0
	}
	fd.cfg.Telemetry.Recorder(i).Sample(telemetry.Sample{
		T: fd.end, Kind: telemetry.SampleEpoch,
		Queue: int32(snap.Queued), Active: int32(act),
		KVGPU: kvGPU, KVCPU: kvCPU,
		Outstanding:  snap.Outstanding,
		Goodput:      goodput,
		RetryBacklog: int32(len(fd.retryq)),
	})
}

// drain runs every shard through the grace window.
func (fd *frontDoor) drain() {
	par.Do(fd.sem, len(fd.shards), func(i int) struct{} {
		fd.shards[i].sim.RunUntil(fd.horizon.Add(core.DrainGrace))
		return struct{}{}
	})
}

// finish builds the drained shards' and the merged reports and the
// per-shard trace slices, runs the checker's end-of-run pass, and returns
// the arenas to the pool.
func (fd *frontDoor) finish() Result {
	n := len(fd.shards)
	res := &fd.res
	var live []*engine.Request
	var liveEnd int64
	res.Shards = make([]metrics.Report, n)
	for i, sd := range fd.shards {
		live = sd.ctl.AppendLive(live[:0])
		liveEnd += int64(len(live))
		res.Shards[i] = sd.report(fd.horizon)
		res.EventsFired += sd.firedBefore + sd.sim.Fired()
		res.ShardViolations[i] = sd.segViol
		res.FlightDumps[i] = sd.flight
	}
	res.Report = metrics.MergeReports(fd.cfg.Name, sim.Duration(fd.horizon)+core.DrainGrace, res.Shards...)
	if fd.fired > 0 {
		res.Report.FaultEvents = fd.fired
		res.Report.Redriven = res.Redriven
		res.Report.RetryExhausted = res.RetryExhausted
		res.Report.GoodputDip, res.Report.RecoverEpochs = recoveryStats(fd.completions, fd.firstFault)
	}
	// Partition visits tr.Requests in index order, so a position cursor
	// replays the front door's final placement exactly (shed, exhausted,
	// and crash-lost requests = -1; re-driven requests land on the shard
	// that finally served them).
	pos := 0
	res.ShardTraces = traceio.Partition(fd.tr, n, func(workload.Request) int {
		s := fd.assigned[pos]
		pos++
		return s
	})
	fd.ck.runDone(res, fd.shards, liveEnd)
	res.Violations = fd.ck.violations
	// Everything read out of the shards (reports, violations, checker state)
	// has been extracted; the arenas can go back to the pool.
	for _, sd := range fd.shards {
		sd.arena.Release()
	}
	return *res
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
