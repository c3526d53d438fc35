package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/consolidator"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// Controller orchestrates one serving system over a cluster (§V). Use New,
// then Run with a trace, or Submit requests manually from a simulation.
type Controller struct {
	Sim *sim.Simulator
	Cfg Config

	Cluster   *cluster.Cluster
	Collector *metrics.Collector
	Validator *compute.Validator
	//slinfer:resetsafe profiles are pure in (class, model, share), so the registry stays valid across runs
	Registry *perfmodel.Registry

	// hosted holds one record per registered model. order lists the same
	// records in registration order, so every walk over the models (reset
	// retirement, sampler ticks, AppendLive) is deterministic; ranging the
	// map would randomize recycling and sample order.
	hosted map[string]*hostedModel
	order  []*hostedModel
	// lastHosted memoizes lookup: one placement attempt resolves the same
	// model in routing, memory planning and every policy callback.
	lastHosted *hostedModel
	// prefix is the tiered prefix-sharing KV store (nil when the feature is
	// disabled); shared by every instance of this controller, keyed by
	// (model, token-block chain).
	prefix *kvcache.TieredStore

	// elasticExecs maps node index to its shared executor (Elastic mode).
	elasticExecs map[int]*cluster.Executor
	// slotUsed tracks carved compute share per node (Exclusive/Static).
	slotUsed []float64
	// instExec maps instance ID to its executor.
	instExec map[int]*cluster.Executor

	pending    []*engine.Request
	dropEvents map[*engine.Request]sim.Event
	keepAlive  map[int]sim.Event
	retrying   bool

	// transferring holds PD requests whose KV is in flight to a decode
	// instance (§IX-G), in hand-off order: between prefill and decode no
	// instance holds them, and AppendLive must still find them.
	transferring []*engine.Request

	// Lazy arrival injection: Run schedules only the next arrival from this
	// cursor instead of pre-loading one event per request, so the event heap
	// stays O(active events) rather than O(total requests).
	arrivals []workload.Request
	arrIdx   int
	// externalArrivals marks a stream-driven run (BeginStream): arrivals
	// come through Submit calls scheduled by an outside driver, so an empty
	// cursor never proves the workload drained.
	externalArrivals bool

	// samplerEv is the pending sampler tick.
	samplerEv sim.Event

	// Pre-bound hot-path callbacks (one closure each for the controller's
	// lifetime, reused verbatim across arena resets); scheduled via
	// sim.AtFunc/AfterFunc so the per-event closure allocation disappears
	// from the hot path.
	//slinfer:resetsafe pre-bound for the controller lifetime; reset reuses them unchanged
	fnArrival, fnDrop, fnReclaim, fnPD, fnSampler, fnKeepAlive func(any)

	rng          *sim.RNG
	noiseStreams int
	nextInstID   int
	traceEnd     sim.Time

	// Scratch buffers reused by the admission hot path (memory planning
	// and retryPending's queue snapshot); the simulation is single-threaded
	// per controller, so plain fields suffice.
	kvStateScratch []kvcache.ReqState
	retryScratch   []*engine.Request
	// routeCandidates scratch: the returned ordering lives in routeScratch
	// until the next routeCandidates call. tryExisting iterates it
	// immediately and admit never routes, so they cannot nest; policies get
	// a copy via hostView.RouteCandidates because preemption routes
	// recursively while iterating.
	routeScratch []*engine.Instance
	routeCPU     []*engine.Instance
	routeGPU     []*engine.Instance

	// Arena recycling (reset): instance, estimator and model-record shells
	// retired by the previous run on this controller. Instances are
	// recycled ONLY at reset — a mid-run removal may still be referenced by
	// in-flight events.
	spareInsts  []*engine.Instance
	spareEsts   []*kvcache.Estimator
	spareHosted []*hostedModel

	// host is the policy.Host view policies call back through.
	//slinfer:resetsafe stable self-reference wired at construction; carries no per-run state
	host hostView
	// pick is the iteration-scheduling function wired into executors.
	pick func([]*engine.Instance, sim.Time) (engine.Work, bool)
}

// New builds a controller over the given node specs and hosted models: an
// empty shell that reset then binds, the same path an arena takes when it
// rebinds a recycled controller between runs.
func New(s *sim.Simulator, specs []hwsim.NodeSpec, models []model.Model, cfg Config) *Controller {
	c := &Controller{
		Sim:          s,
		Cluster:      cluster.New(s, nil),
		Collector:    metrics.NewCollector(),
		Registry:     perfmodel.NewRegistry(),
		Validator:    &compute.Validator{},
		hosted:       map[string]*hostedModel{},
		elasticExecs: map[int]*cluster.Executor{},
		instExec:     map[int]*cluster.Executor{},
		dropEvents:   map[*engine.Request]sim.Event{},
		keepAlive:    map[int]sim.Event{},
		rng:          sim.NewRNG(0, 0), // reseeded from cfg by reset
	}
	c.host = hostView{c}
	c.fnArrival = func(any) { c.injectArrival() }
	c.fnDrop = func(a any) { c.drop(a.(*engine.Request)) }
	c.fnReclaim = func(a any) { c.reclaim(a.(*engine.Instance)) }
	c.fnPD = func(a any) { c.finishPDTransfer(a.(*engine.Request)) }
	c.fnSampler = func(any) { c.samplerTick() }
	c.fnKeepAlive = func(a any) {
		inst := a.(*engine.Instance)
		delete(c.keepAlive, inst.ID)
		c.reclaim(inst)
	}
	c.reset(specs, models, cfg)
	return c
}

// reset binds the controller to a run over (possibly different) specs,
// models, and config, reusing the cluster, ledgers, collector, validator,
// profile registry, pre-bound callbacks, scratch buffers, and retired
// instance shells. New calls it on an empty shell, so a fresh and a
// recycled controller share this one setup path; any per-run field added
// to Controller must be re-zeroed here. A caller rebinding a used
// controller (Arena.NewController) must Reset the shared simulator first
// so no event from the previous run survives into this one.
func (c *Controller) reset(specs []hwsim.NodeSpec, models []model.Model, cfg Config) {
	cfg = cfg.withDefaults().composePolicies()
	c.Cfg = cfg
	c.Cluster.Reset(specs)
	c.Collector.Reset()
	c.Validator.Reset(cfg.Overestimate, 3, 600)
	// Retire the surviving instances, every model's estimator and the model
	// records themselves into the spare pools before clearing the tables,
	// walking models in registration order so the spare pools refill
	// deterministically and the next run's recycled shells come back in a
	// reproducible order.
	for _, hm := range c.order {
		for _, inst := range hm.insts {
			inst.Recycle()
			c.spareInsts = append(c.spareInsts, inst)
		}
		c.spareEsts = append(c.spareEsts, hm.est)
		*hm = hostedModel{insts: clearScratch(hm.insts)}
		c.spareHosted = append(c.spareHosted, hm)
	}
	c.order = clearScratch(c.order)
	clear(c.hosted)
	c.lastHosted = nil
	clear(c.elasticExecs)
	clear(c.instExec)
	clear(c.dropEvents)
	clear(c.keepAlive)
	if cap(c.slotUsed) < len(specs) {
		c.slotUsed = make([]float64, len(specs))
	} else {
		c.slotUsed = c.slotUsed[:len(specs)]
		clear(c.slotUsed)
	}
	for i := range c.pending {
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
	c.transferring = clearScratch(c.transferring)
	clear(c.routeScratch)
	clear(c.routeCPU)
	clear(c.routeGPU)
	c.routeScratch, c.routeCPU, c.routeGPU = c.routeScratch[:0], c.routeCPU[:0], c.routeGPU[:0]
	// The admission scratch buffers rest at length 0 but their backing
	// arrays still pin last run's profiles and requests; wipe to capacity.
	c.kvStateScratch = clearScratch(c.kvStateScratch)
	c.retryScratch = clearScratch(c.retryScratch)
	c.retrying = false
	c.arrivals, c.arrIdx = nil, 0
	c.externalArrivals = false
	c.samplerEv = sim.Event{}
	c.rng.Reseed(cfg.Seed^0xC0FFEE, cfg.Seed+13)
	c.noiseStreams = 0
	c.nextInstID = 1
	c.traceEnd = 0
	switch {
	case !cfg.PrefixCache.Enabled:
		c.prefix = nil
	case c.prefix == nil:
		c.prefix = kvcache.NewTieredStore(cfg.PrefixCache)
	default:
		c.prefix.Reset(cfg.PrefixCache)
	}
	// Iteration scheduling: min-headroom unless the FIFO ablation is on.
	c.pick = compute.PickFIFO
	if cfg.TokenLevelSched {
		c.pick = compute.PickMinHeadroom
	}
	if short := len(models) - len(c.spareHosted); short > 0 {
		// One slab for the records no retired one covers.
		slab := make([]hostedModel, short)
		c.spareHosted = slices.Grow(c.spareHosted, short)
		for i := range slab {
			c.spareHosted = append(c.spareHosted, &slab[i])
		}
	}
	for _, m := range models {
		c.RegisterModel(m)
	}
	if cfg.Sharing == Elastic {
		for _, n := range c.Cluster.Nodes {
			ex := n.NewExecutor(1)
			c.wireExecutor(ex)
			c.elasticExecs[n.Idx] = ex
		}
	}
}

// newEstimator builds (or recycles) a per-model KV-demand estimator.
func (c *Controller) newEstimator(m model.Model) *kvcache.Estimator {
	if n := len(c.spareEsts); n > 0 {
		est := c.spareEsts[n-1]
		c.spareEsts[n-1] = nil
		c.spareEsts = c.spareEsts[:n-1]
		est.Reset(m.MaxContext, 256)
		return est
	}
	return kvcache.NewEstimator(m.MaxContext, 256)
}

// takeInstance returns an empty instance shell, recycled when available.
func (c *Controller) takeInstance() *engine.Instance {
	if n := len(c.spareInsts); n > 0 {
		inst := c.spareInsts[n-1]
		c.spareInsts[n-1] = nil
		c.spareInsts = c.spareInsts[:n-1]
		return inst
	}
	return &engine.Instance{}
}

// RegisterModel adds a hosted model (at construction via reset, or after
// it) and records its place in the deterministic walk order;
// re-registration keeps the original slot and live instances, and starts a
// fresh estimator and profile cache.
func (c *Controller) RegisterModel(m model.Model) {
	hm := c.hosted[m.Name]
	if hm == nil {
		if n := len(c.spareHosted); n > 0 {
			hm = c.spareHosted[n-1]
			c.spareHosted[n-1] = nil
			c.spareHosted = c.spareHosted[:n-1]
		} else {
			hm = &hostedModel{}
		}
		c.hosted[m.Name] = hm
		c.order = append(c.order, hm)
	}
	hm.m, hm.est = m, c.newEstimator(m)
	hm.profiles, hm.nprofiles = [len(hm.profiles)]hostedProfile{}, 0
}

// hostedModel is one registered model's record: the model, its KV-demand
// estimator, its live instances in creation order, and the profiles
// fetched for it so far.
type hostedModel struct {
	m     model.Model
	est   *kvcache.Estimator
	insts []*engine.Instance
	// profiles[:nprofiles] caches Registry.Get for m by (class, share), in
	// fetch order. A model meets few device classes and shares, so a short
	// scan beats the registry's locked map; a miss once the array is full
	// just asks the registry. The registry is replaced only in reset, which
	// re-registers every model, so a cached profile is always the
	// registry's own.
	profiles  [4]hostedProfile
	nprofiles int
}

type hostedProfile struct {
	class hwsim.DeviceClass
	share float64
	p     *perfmodel.Profile
}

// lookup returns the record of the model named name, or nil when no such
// model is registered. Consecutive lookups of one name hash it once.
func (c *Controller) lookup(name string) *hostedModel {
	if hm := c.lastHosted; hm != nil && hm.m.Name == name {
		return hm
	}
	hm := c.hosted[name]
	if hm != nil {
		c.lastHosted = hm
	}
	return hm
}

// profile returns Registry.Get(class, *m, share), served from m's record
// when m is registered under its name as is. m is a pointer only to spare
// the copy.
func (c *Controller) profile(class hwsim.DeviceClass, m *model.Model, share float64) *perfmodel.Profile {
	hm := c.lookup(m.Name)
	if hm == nil || hm.m != *m {
		return c.Registry.Get(class, *m, share)
	}
	for i := range hm.profiles[:hm.nprofiles] {
		if hp := &hm.profiles[i]; hp.class == class && hp.share == share {
			return hp.p
		}
	}
	p := c.Registry.Get(class, hm.m, share)
	if hm.nprofiles < len(hm.profiles) {
		hm.profiles[hm.nprofiles] = hostedProfile{class: class, share: share, p: p}
		hm.nprofiles++
	}
	return p
}

// clearScratch wipes a scratch slice's full backing array (dropping any
// pointers it pins) and returns the empty prefix for reuse.
func clearScratch[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// Run replays a trace to completion (plus drain grace) and returns the
// metrics report.
func (c *Controller) Run(tr workload.Trace) metrics.Report {
	c.traceEnd = sim.Time(0).Add(tr.Duration)
	c.Collector.Reserve(len(tr.Requests))
	c.startArrivals(tr.Requests)
	c.scheduleSampler()
	c.Sim.RunUntil(c.traceEnd.Add(DrainGrace))
	return c.finish(tr.Duration + DrainGrace)
}

// finish is the run tail shared by Run and EndStream: stop the sampler
// chain, finalize the collector, build the report for the given total
// duration, and hand it to the probe's end-of-run checks.
func (c *Controller) finish(duration sim.Duration) metrics.Report {
	c.stopSampler()
	c.Collector.Finalize(c.Sim.Now())
	c.Collector.ValidationCount = c.Validator.Validations
	rep := c.Collector.BuildReport(c.Cfg.Name, duration)
	if p := c.Cfg.Probe; p != nil {
		p.RunFinished(c, rep)
	}
	return rep
}

// startArrivals installs the trace's requests behind the lazy-injection
// cursor. Traces are sorted by construction (workload.Generate and every
// traceio transform restore the invariant); an unsorted trace handed in
// directly is stably sorted first so injection order still matches the
// eager-scheduling order (ties keep their index order, exactly as the old
// per-request seq numbers broke them).
func (c *Controller) startArrivals(reqs []workload.Request) {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			sorted := append([]workload.Request(nil), reqs...)
			sort.SliceStable(sorted, func(a, b int) bool {
				return sorted[a].Arrival < sorted[b].Arrival
			})
			reqs = sorted
			break
		}
	}
	c.arrivals, c.arrIdx = reqs, 0
	c.scheduleNextArrival()
}

func (c *Controller) scheduleNextArrival() {
	if c.arrIdx >= len(c.arrivals) {
		c.arrivals = nil
		return
	}
	c.Sim.AtFunc(c.arrivals[c.arrIdx].Arrival, c.fnArrival, nil)
}

// injectArrival submits the cursor's request. The next arrival is scheduled
// before Submit runs so that, on exact-time ties, a later arrival still
// precedes any events the current submission spawns — the same relative
// order eager pre-scheduling produced for ties among arrivals and against
// events spawned downstream of earlier arrivals.
//
// Known departure from eager pre-scheduling: an arrival whose timestamp
// exactly (bit-for-bit) equals that of an event scheduled before the
// previous arrival fired — a sampler tick, a drop deadline, a keep-alive
// timer — now fires after it instead of before (its seq is assigned later).
// Generated workloads have continuous arrival times, so such ties have
// probability zero there (the golden, smoke-grid, and metamorphic suites
// confirm byte-identical reports); hand-written traces with round
// timestamps landing exactly on a timer tick get a still-deterministic but
// different tie order.
func (c *Controller) injectArrival() {
	w := c.arrivals[c.arrIdx]
	c.arrIdx++
	c.scheduleNextArrival()
	c.Submit(w)
}

// arrivalsExhausted reports whether the lazy cursor has injected the whole
// trace.
func (c *Controller) arrivalsExhausted() bool { return c.arrIdx >= len(c.arrivals) }

// Submit admits one request into the system.
func (c *Controller) Submit(w workload.Request) {
	hm := c.lookup(w.ModelName)
	if hm == nil {
		panic(fmt.Sprintf("core: unknown model %q", w.ModelName))
	}
	m := hm.m
	if w.InputLen > m.MaxContext {
		w.InputLen = m.MaxContext
	}
	obj := slo.Default(w.InputLen)
	if c.Cfg.SLO != nil {
		obj = c.Cfg.SLO(w.InputLen)
	}
	req := engine.NewRequestWith(w, obj)
	if c.prefix != nil && w.PrefixKey != "" {
		// Prefix-cache lookup happens once at admission: the cached leading
		// span shortens the prefill, the transfer cost (CPU-tier promotion)
		// rides on it, and the hit/miss bytes feed the run's hit-rate
		// counters. Keyless requests bypass the store entirely.
		perTok := m.KVBytesPerToken()
		before := c.prefix.Ledger
		hitTokens, xfer := c.prefix.Lookup(w.ModelName, w.PrefixKey, w.InputLen, perTok)
		c.emitTierMoves(&before)
		req.CachedPrefixTokens = hitTokens
		req.PrefixXfer = xfer
		c.Collector.RecordPrefixLookup(int64(hitTokens)*perTok,
			int64(w.InputLen-hitTokens)*perTok)
		lookup := telemetry.KindPrefixMiss
		if hitTokens > 0 {
			lookup = telemetry.KindPrefixHit
		}
		c.emit(lookup, req, nil, int64(hitTokens), int64(w.InputLen))
	}
	c.Collector.RecordArrival()
	c.emit(telemetry.KindAdmit, req, nil, int64(req.W.InputLen), int64(req.CachedPrefixTokens))
	if !c.tryPlace(req) {
		c.enqueue(req)
	}
}

// TryPlace runs one §V placement attempt for req — the attempt a queued
// request repeats on every completion — and reports whether req was placed.
// A request that does not place is left as it was, not queued, so the
// attempt can be repeated (and measured) on unchanged controller state.
func (c *Controller) TryPlace(req *engine.Request) bool { return c.tryPlace(req) }

// tryPlace attempts the full §V placement pipeline. It returns false when
// the request must queue.
func (c *Controller) tryPlace(req *engine.Request) bool {
	hm := c.lookup(req.W.ModelName)
	m := hm.m
	placed := false
	switch {
	// 1. Existing instances, CPU first, largest batch first (§VIII-B).
	case c.tryExisting(req, hm, nil):
		placed = true
	// 2. Proactive consolidation: preempt smaller neighbours so an existing
	//    instance can scale up in place (§VIII-A).
	case c.Cfg.Preemption.TryPreempt(c.host, req, m):
		placed = true
	// 3. Scale out: a new instance via the placement policy.
	case c.Cfg.Placement.PlaceNew(c.host, req, m):
		placed = true
	}
	if placed && c.Cfg.PD {
		// PD disaggregation launches dedicated instances per stage (§IX-G);
		// warm the decode instance while the prefill runs so the handoff
		// does not pay a cold start.
		c.ensureDecodeInstance(m, req)
	}
	return placed
}

// ensureDecodeInstance guarantees a DecodeOnly instance exists for a model.
func (c *Controller) ensureDecodeInstance(m model.Model, req *engine.Request) {
	for _, inst := range c.lookup(m.Name).insts {
		if inst.Role == engine.DecodeOnly &&
			(inst.State == engine.Active || inst.State == engine.Loading) {
			return
		}
	}
	c.createDecodeInstance(m, req)
}

// tryExisting routes to a live instance other than avoid per the reactive
// bin-packing order.
func (c *Controller) tryExisting(req *engine.Request, hm *hostedModel, avoid *engine.Instance) bool {
	for _, inst := range c.routeCandidates(hm, wantRole(c.Cfg)) {
		if inst != avoid && c.admit(req, inst) {
			return true
		}
	}
	return false
}

// routeCandidates returns live instances of a hosted model in routing
// order: CPU before GPU (when CPUFirst), then §VIII-B largest-batch-first.
// The result is backed by the controller's route scratch — valid until the
// next routeCandidates call, so iterate it, don't keep it.
func (c *Controller) routeCandidates(hm *hostedModel, role engine.Role) []*engine.Instance {
	cpu, gpu := c.routeCPU[:0], c.routeGPU[:0]
	for _, inst := range hm.insts {
		if inst.Role != role {
			continue
		}
		if inst.State != engine.Active && inst.State != engine.Loading {
			continue
		}
		if inst.Class.Kind() == hwsim.CPU {
			cpu = append(cpu, inst)
		} else {
			gpu = append(gpu, inst)
		}
	}
	consolidator.SortRoute(cpu)
	consolidator.SortRoute(gpu)
	out := c.routeScratch[:0]
	if c.Cfg.CPUFirst {
		out = append(append(out, cpu...), gpu...)
	} else {
		out = append(append(out, gpu...), cpu...)
	}
	c.routeCPU, c.routeGPU, c.routeScratch = cpu, gpu, out
	return out
}

// wantRole returns the instance role requests are admitted to.
func wantRole(cfg Config) engine.Role {
	if cfg.PD {
		return engine.PrefillOnly
	}
	return engine.Mixed
}

// admit runs the §V admission pipeline for one candidate instance: CPU
// capability gate, fixed limit, the memory shadow check with §VII-D
// compromise, and shadow validation. Every check is pure and the cheap ones
// run first, so the costly validation runs only for a request that would
// otherwise be placed; the planned scale-up is issued, and the request joins
// the instance's prefill queue, only after all of them pass.
func (c *Controller) admit(req *engine.Request, inst *engine.Instance) bool {
	if inst.TotalLoad() >= perfmodel.MaxBatch {
		return false
	}
	// CPU gate: SLINFER profiles CPUs in advance and falls back to GPU
	// when a CPU cannot meet the request's SLO (§V). Baselines admit
	// blindly up to their fixed limits.
	if c.Cfg.ShadowValidation && inst.Class.Kind() == hwsim.CPU {
		if !inst.Profile.CanMeet(req.W.InputLen, req.Obj) {
			return false
		}
	}
	lim := c.Cfg.FixedLimit
	if lim != nil && inst.TotalLoad() >= lim(inst.Model, inst.Class, inst.Share) {
		return false
	}
	// Memory shadow check + scale-up (§VII-B, §VII-D). Static-memory
	// instances check residual capacity instead.
	plan, ok := c.planMemory(req, inst)
	if !ok {
		return false
	}
	if lim == nil && c.Cfg.ShadowValidation && !c.shadowValidate(req, inst, plan.block) {
		return false
	}
	c.applyMemory(inst, plan)
	c.place(req, inst)
	return true
}

// shadowValidate projects the candidate's executor forward with the request
// virtually added (§VI-C); resizeBlock is the stall of the scale-up this
// admission would issue.
func (c *Controller) shadowValidate(req *engine.Request, inst *engine.Instance, resizeBlock sim.Duration) bool {
	ex := c.instExec[inst.ID]
	if ex == nil {
		return false
	}
	rv := compute.ViewRequest(req)
	if inst.State == engine.Loading {
		// The request will receive a cold-start grace window (§IX-A);
		// validate against the graced deadline.
		rv.Deadline = rv.Deadline.Add(c.loadTime(inst))
	}
	return c.validate(ex, inst, nil, rv, req.Obj.TPOT, resizeBlock) == compute.OK
}

// validate is the controller's shadow validation (§VI-C), measuring real
// scheduling overhead (Figure 33): rv joins cand on ex, or a fresh instance
// with profile fresh when cand is nil (a scale-out must pass the same
// validation as a scale-up). Blocking is charged as the executor will see
// it: every instance's in-flight resize or cold start, and block on the
// candidate (the planned scale-up stall, or the fresh instance's load). The
// case-3 aggregate-decode check runs first, on the live instances: on a
// loaded node most attempts end there, before any view is built.
func (c *Controller) validate(ex *cluster.Executor, cand *engine.Instance, fresh *perfmodel.Profile, rv compute.ReqView, tpot, block sim.Duration) compute.Reason {
	var start time.Time
	if c.Cfg.MeasureOverhead {
		start = time.Now() //slinfer:wallclock MeasureOverhead-gated validator profiling; feeds only Collector.ValidationNs, never event times
	}
	reason := compute.AggregateDecode
	if !c.Validator.RejectsAggregate(ex.Instances, tpot) {
		now := c.Sim.Now()
		proj := c.Validator.Project(ex.Instances, nil, cand, fresh, rv)
		if proj != nil { // nil: cand is not on ex, which Check rejects
			ci := len(proj) - 1 // the fresh instance, unless cand is live
			for i, inst := range ex.Instances {
				if inst == cand {
					ci = i
				}
				if inst.ResizeInFlight {
					// The resize op recorded its landing time when it was
					// issued; charge only the remaining fraction, not a fresh
					// full-size transfer.
					proj[i].BlockedUntil = inst.ResizeDoneAt
				}
				if inst.State == engine.Loading {
					if eta := inst.CreatedAt.Add(c.loadTime(inst)); eta > proj[i].BlockedUntil {
						proj[i].BlockedUntil = eta // cold start still in progress
					}
				}
			}
			if b := now.Add(block); block > 0 && b > proj[ci].BlockedUntil {
				proj[ci].BlockedUntil = b
			}
		}
		reason = c.Validator.Check(now, c.busyUntil(ex), proj, tpot)
	}
	if c.Cfg.MeasureOverhead {
		c.Collector.ValidationNs += time.Since(start).Nanoseconds() //slinfer:wallclock diagnostic overhead counter only
	}
	return reason
}

// busyUntil is when ex finishes its current iteration (now when idle).
func (c *Controller) busyUntil(ex *cluster.Executor) sim.Time {
	if ex.Busy() {
		return ex.BusyUntil()
	}
	return c.Sim.Now()
}

// place finalizes an admission.
func (c *Controller) place(req *engine.Request, inst *engine.Instance) {
	if ev, ok := c.dropEvents[req]; ok {
		ev.Cancel()
		delete(c.dropEvents, req)
	}
	c.pending = removeRequest(c.pending, req)
	if inst.State == engine.Loading {
		// Cold-start grace equal to the load duration (§IX-A). It moves
		// the request's deadlines, so it lands before Admit, which resets
		// the instance's cached earliest deadline.
		req.Tracker.AddGrace(c.loadTime(inst))
	}
	inst.Admit(req)
	c.emit(telemetry.KindPlace, req, inst, 0, 0)
	c.cancelKeepAlive(inst)
	inst.LastActiveAt = c.Sim.Now()
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.Kick()
	}
}

// enqueue parks a request pending capacity, with a proactive drop at its
// TTFT deadline (§IX-B: systems drop requests whose queueing delay exceeds
// the TTFT SLO).
func (c *Controller) enqueue(req *engine.Request) {
	c.pending = append(c.pending, req)
	c.emit(telemetry.KindEnqueue, req, nil, 0, 0)
	deadline := req.Tracker.NextDeadline()
	if deadline <= c.Sim.Now() {
		c.drop(req)
		return
	}
	c.dropEvents[req] = c.Sim.AtFunc(deadline, c.fnDrop, req)
}

func (c *Controller) drop(req *engine.Request) {
	if req.State != engine.Queued {
		return
	}
	req.State = engine.Dropped
	req.Tracker.MarkDropped()
	delete(c.dropEvents, req)
	c.pending = removeRequest(c.pending, req)
	c.Collector.RecordDrop()
	c.emit(telemetry.KindDrop, req, nil, 0, 0)
}

// removeRequest deletes req from list, keeping the order of the rest.
func removeRequest(list []*engine.Request, req *engine.Request) []*engine.Request {
	for i, r := range list {
		if r == req {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// retryPending re-attempts placement of queued requests after capacity
// frees up. Re-entrancy is suppressed: placement can trigger completions
// that call back into retryPending.
func (c *Controller) retryPending() {
	if c.retrying || len(c.pending) == 0 {
		return
	}
	c.retrying = true
	defer func() { c.retrying = false }()
	// Snapshot into reusable scratch: tryPlace mutates c.pending, and the
	// retrying flag guarantees no nested use of the buffer.
	queue := append(c.retryScratch[:0], c.pending...)
	c.retryScratch = queue
	for _, req := range queue {
		if req.State != engine.Queued {
			continue
		}
		c.tryPlace(req)
	}
	for i := range queue {
		queue[i] = nil // do not pin completed requests
	}
}

// loadTime is inst's cold-start duration on its first host node, read
// through the node and the instance in place: validation asks it for every
// loading candidate, and a by-value spec and model cost two struct copies.
func (c *Controller) loadTime(inst *engine.Instance) sim.Duration {
	return c.Cluster.Nodes[inst.NodeIdxs[0]].Spec.LoadTime(&inst.Model)
}

// InstancesOf returns a copy of the live instances of the model named name
// (for tests and experiments).
func (c *Controller) InstancesOf(name string) []*engine.Instance {
	var insts []*engine.Instance
	if hm := c.lookup(name); hm != nil {
		insts = append(insts, hm.insts...)
	}
	return insts
}

// PendingCount returns the queued-request count.
func (c *Controller) PendingCount() int { return len(c.pending) }

// AppendLive appends every submitted request that has neither completed
// nor dropped to dst and returns the extended slice: the queue, then each
// instance's prefill queue and decode batch (models in registration
// order), then PD requests with KV in transit. The fleet pulls a crashed
// shard's live set through it.
func (c *Controller) AppendLive(dst []*engine.Request) []*engine.Request {
	dst = append(dst, c.pending...)
	for _, hm := range c.order {
		for _, inst := range hm.insts {
			dst = append(dst, inst.WaitingPrefill...)
			dst = append(dst, inst.Running...)
		}
	}
	return append(dst, c.transferring...)
}

// PrefixStore exposes the tiered prefix store (nil when prefix sharing is
// disabled) for reading: the invariant suite checks its ledger and the fleet
// layer snapshots per-root residency for KV-affinity routing. Mutations go
// through the controller so tier telemetry sees them.
func (c *Controller) PrefixStore() *kvcache.TieredStore { return c.prefix }

// SetPrefixGPUCapacity changes the prefix store's GPU-tier capacity in place
// (fault injection: KVTierDegrade shrinks it, recovery restores it) and
// emits the tier moves a shrink forces. No-op without a prefix store.
func (c *Controller) SetPrefixGPUCapacity(bytes int64) {
	if c.prefix == nil {
		return
	}
	before := c.prefix.Ledger
	c.prefix.SetGPUCapacity(bytes)
	c.emitTierMoves(&before)
}
