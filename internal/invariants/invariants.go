// Package invariants implements always-on runtime checkers for the
// simulation: a Suite attaches to a controller through the cheap observer
// hooks in sim, memctl, and core, and verifies — on every event, not just
// at the end — that the run never violates the properties the paper's
// correctness rests on:
//
//   - Event-clock monotonicity: the virtual clock never moves backwards
//     (sim.Simulator.OnEvent).
//   - Memory-ledger conservation: per node, the optimistic and pessimistic
//     counters are reconstructed independently from the operation stream
//     (memctl.Observer) and must match the ledger at every transition;
//     operations on one allocation must chain physically (an op's From
//     equals the allocation's tracked size — bytes in == bytes out), at
//     most one op is in flight per allocation, physical usage never
//     exceeds the pessimistic bound, and the pessimistic bound never
//     exceeds capacity.
//   - KV-cache accounting: token releases never exceed live tokens (the
//     cache's over-release counter, read on every completion, at instance
//     removal, and at end of run for instances still live), and on every
//     completion the cache's live token count equals the sum of the
//     running batch's context tokens. On every completion and at instance
//     removal, the running context the engine keeps incrementally equals
//     that sum too.
//   - Tiered prefix-store conservation: after every store call — the
//     controller's Lookup at submission and Insert at completion, both
//     right before the probe fires — allocated bytes equal GPU-resident
//     plus CPU-resident plus freed bytes and tiers stay within their
//     configured capacities; at end of run the ledger's resident counters
//     reconcile against an independent walk of the block lists.
//   - Request lifecycle: every submitted request is seen exactly once and
//     terminates at most once (no request lost or duplicated); completed
//     requests generated exactly their trace-declared output tokens.
//   - SLO-attainment bookkeeping: the report's counters reconcile with the
//     independently counted lifecycle events and with each other
//     (total = completed + dropped + live, met <= completed, one TTFT
//     sample per completion, SLORate = met/total).
//
// Checkers are pure witnesses: they never mutate simulation state, so an
// attached Suite cannot perturb a run (determinism-critical — the golden
// and metamorphic tests rely on attached and unattached runs being
// byte-identical).
package invariants

import (
	"cmp"
	"fmt"
	"slices"

	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/metrics"
	"slinfer/internal/sim"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Check names the violated invariant (e.g. "ledger-conservation").
	Check string
	// Detail describes the breach.
	Detail string
	// At is the virtual time of detection.
	At sim.Time
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] at %v: %s", v.Check, v.At, v.Detail)
}

// maxViolations caps recorded violations so a systemic breach does not
// balloon memory; the count past the cap is still tracked.
const maxViolations = 100

// Suite is one run's invariant checker set. Construct with New (standalone)
// or Attach (wired into a controller); a Suite must not be shared across
// simulations. All checkers funnel violations into the Suite.
type Suite struct {
	sim *sim.Simulator

	violations []Violation
	dropped    int64 // violations past maxViolations

	// Event clock.
	lastEvent sim.Time

	// Request lifecycle. live holds submitted-but-not-terminal request IDs.
	live      map[int64]bool
	terminal  map[int64]bool
	submitted int64
	completed int64
	droppedRq int64

	// kv holds the live instances (from InstanceCreated until
	// InstanceRemoved), each with the over-released tokens already
	// reported for its cache.
	kv map[*engine.Instance]int64

	// tier is the controller's prefix store (nil when it has none): checked
	// after each store call and reconciled against its block lists at
	// RunFinished.
	tier *kvcache.TieredStore

	// dump is the flight-recorder hook (see SetDumper): invoked once, on
	// the first recorded violation, to capture the telemetry event log that
	// led there. dumpText holds its output. An interface rather than a
	// func() string so wiring a *Controller boxes a pointer instead of
	// allocating a method-value closure per Attach.
	dump     FlightDumper
	dumpText string
}

// FlightDumper is anything that can render a post-mortem event log —
// core.Controller implements it over the telemetry flight ring.
type FlightDumper interface {
	FlightDump() string
}

// New returns a Suite observing the simulator's event clock. Use WatchNode /
// core wiring (Attach) to add the remaining checkers.
func New(s *sim.Simulator) *Suite {
	su := &Suite{
		sim:      s,
		live:     map[int64]bool{},
		terminal: map[int64]bool{},
		kv:       map[*engine.Instance]int64{},
	}
	if s != nil {
		su.lastEvent = s.Now()
		s.OnEvent = su.onEvent
	}
	return su
}

// Attach wires a full Suite into a controller: the event clock, every
// node's memory ledger, and the lifecycle probe, which also checks the KV
// caches of the instances it sees created and the prefix store's ledger.
// Attach must be called before Run; it replaces any previously configured
// Config.Probe.
func Attach(c *core.Controller) *Suite {
	su := New(c.Sim)
	for _, n := range c.Cluster.Nodes {
		su.WatchNode(n.Mem)
	}
	su.tier = c.PrefixStore()
	// Telemetry's flight recorder, when the controller runs one, dumps on
	// the first violation — strictly read-only, so the probe semantics are
	// unchanged whether or not telemetry is attached.
	su.SetDumper(c)
	c.Cfg.Probe = su
	return su
}

// SetDumper installs the flight-recorder hook: d.FlightDump runs once, at
// the first recorded violation, and its output is kept for FlightDump. A
// dumper returning "" (telemetry off, empty ring) is remembered as such;
// a nil dumper clears the hook.
func (s *Suite) SetDumper(d FlightDumper) { s.dump = d }

// FlightDump returns the flight-recorder capture taken at the first
// violation, or "" when no violation occurred or no dump hook was set.
func (s *Suite) FlightDump() string { return s.dumpText }

// report records one violation. The first one also triggers the flight
// recorder: the dump hook captures the telemetry event ring as it stood
// at the moment of detection, before the run moves on.
func (s *Suite) report(check, format string, args ...any) {
	if len(s.violations) >= maxViolations {
		s.dropped++
		return
	}
	var at sim.Time
	if s.sim != nil {
		at = s.sim.Now()
	}
	if len(s.violations) == 0 && s.dump != nil {
		s.dumpText = s.dump.FlightDump()
	}
	s.violations = append(s.violations, Violation{
		Check: check, Detail: fmt.Sprintf(format, args...), At: at,
	})
}

// Violations returns the recorded breaches in detection order.
func (s *Suite) Violations() []Violation {
	return append([]Violation(nil), s.violations...)
}

// Ok reports whether no invariant was violated.
func (s *Suite) Ok() bool { return len(s.violations) == 0 && s.dropped == 0 }

// AppendLiveIDs appends the live (submitted-but-not-terminal) request IDs
// the lifecycle checker tracks to dst in ascending order and returns the
// extended slice. The fleet crash path cross-checks the controller's live
// set against it before re-driving.
func (s *Suite) AppendLiveIDs(dst []int64) []int64 {
	start := len(dst)
	//slinfer:maporder collected tail is sorted below before anyone reads it
	for id := range s.live {
		dst = append(dst, id)
	}
	tail := dst[start:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j] < tail[j-1]; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return dst
}

// Err returns nil when the run was clean, or an error summarizing the first
// violation and the total count.
func (s *Suite) Err() error {
	if s.Ok() {
		return nil
	}
	total := int64(len(s.violations)) + s.dropped
	return fmt.Errorf("invariants: %d violation(s), first: %s", total, s.violations[0])
}

// ---- Event clock -------------------------------------------------------------

func (s *Suite) onEvent(at sim.Time) {
	if at < s.lastEvent {
		s.report("clock-monotonic", "event at %v fired after clock reached %v", at, s.lastEvent)
	}
	s.lastEvent = at
}

// ---- Memory-ledger conservation ----------------------------------------------

// ledger shadows one NodeMemory: it reconstructs the optimistic and
// pessimistic counters purely from the observed operation stream and
// compares them to the ledger's own accounting after every transition.
type ledger struct {
	suite *Suite
	nm    *memctl.NodeMemory

	// sizes tracks each allocation's physical size (post-completion).
	sizes map[string]int64
	// admitted tracks the in-flight (admitted, not yet completed) op per
	// allocation.
	admitted map[string]*memctl.Op

	shadowOpt  int64
	shadowPess int64
	physical   int64
}

// WatchNode attaches a conservation checker to one memory ledger,
// replacing any previous observer. Attach before the node performs any
// operation: the checker reconstructs per-allocation sizes purely from the
// op stream, so ops it never saw would read as conservation breaches.
func (s *Suite) WatchNode(nm *memctl.NodeMemory) {
	nm.Observer = &ledger{
		suite:    s,
		nm:       nm,
		sizes:    map[string]int64{},
		admitted: map[string]*memctl.Op{},
	}
}

func (l *ledger) check(format string, args ...any) {
	l.suite.report("ledger-conservation", "%s: %s", l.nm.Name(), fmt.Sprintf(format, args...))
}

func (l *ledger) compare(context string) {
	if l.shadowOpt != l.nm.OptimisticUsed() {
		l.check("%s: optimistic diverged: ledger %d, reconstructed %d",
			context, l.nm.OptimisticUsed(), l.shadowOpt)
		l.shadowOpt = l.nm.OptimisticUsed() // resync so one corruption reports once
	}
	if l.shadowPess != l.nm.PessimisticUsed() {
		l.check("%s: pessimistic diverged: ledger %d, reconstructed %d",
			context, l.nm.PessimisticUsed(), l.shadowPess)
		l.shadowPess = l.nm.PessimisticUsed()
	}
	if p := l.nm.PessimisticUsed(); p > l.nm.Capacity() {
		l.check("%s: OOM risk: pessimistic %d exceeds capacity %d", context, p, l.nm.Capacity())
	}
	if l.physical > l.shadowPess {
		l.check("%s: physical %d exceeds pessimistic bound %d", context, l.physical, l.shadowPess)
	}
	if l.shadowOpt < 0 || l.shadowPess < 0 || l.physical < 0 {
		l.check("%s: negative accounting: opt=%d pess=%d phys=%d",
			context, l.shadowOpt, l.shadowPess, l.physical)
	}
}

func (l *ledger) OpAdmitted(_ *memctl.NodeMemory, op *memctl.Op) {
	if prev, busy := l.admitted[op.Owner]; busy {
		l.check("op %v %s admitted while %v->%d in flight on the same allocation",
			op.Kind, op.Owner, prev.Kind, prev.To)
	}
	if cur := l.sizes[op.Owner]; op.From != cur {
		l.check("op %v %s claims From=%d but allocation holds %d bytes (bytes leaked or conjured)",
			op.Kind, op.Owner, op.From, cur)
		// Resync so the mismatch reports once, not on every later op.
		l.sizes[op.Owner] = op.From
	}
	l.admitted[op.Owner] = op
	l.shadowOpt += op.To - op.From
	l.compare("admit")
}

func (l *ledger) OpStarted(_ *memctl.NodeMemory, op *memctl.Op) {
	if op.To > op.From {
		l.shadowPess += op.To - op.From
	}
	l.compare("start")
}

func (l *ledger) OpCompleted(_ *memctl.NodeMemory, op *memctl.Op) {
	if op.To < op.From {
		l.shadowPess += op.To - op.From
	}
	l.physical += op.To - op.From
	if l.sizes[op.Owner] != op.From {
		l.check("op %v %s completed with From=%d but allocation holds %d bytes",
			op.Kind, op.Owner, op.From, l.sizes[op.Owner])
	}
	if op.To == 0 {
		delete(l.sizes, op.Owner)
	} else {
		l.sizes[op.Owner] = op.To
	}
	delete(l.admitted, op.Owner)
	l.compare("complete")
}

func (l *ledger) OpRejected(_ *memctl.NodeMemory, op *memctl.Op) {
	if delta := op.To - op.From; delta <= 0 || l.shadowOpt+delta <= l.nm.Capacity() {
		l.check("op %v %s (%d->%d) rejected although the optimistic budget had room (%d/%d used)",
			op.Kind, op.Owner, op.From, op.To, l.shadowOpt, l.nm.Capacity())
	}
	l.compare("reject")
}

// ---- KV-cache accounting ------------------------------------------------------

// checkKVRelease reports the tokens inst's cache released past its live
// count since the last check (the cache clamps at zero, so its lifetime
// over-release counter is the only trace of a double release).
func (s *Suite) checkKVRelease(inst *engine.Instance) {
	got := inst.Cache.OverReleasedTokens()
	if seen := s.kv[inst]; got != seen {
		s.report("kv-accounting",
			"inst%d: released %d tokens past the live count (double release)",
			inst.ID, got-seen)
		s.kv[inst] = got
	}
}

// ---- Tiered prefix-store conservation ------------------------------------------

// checkTier holds the prefix store's ledger to the conservation law and the
// tier capacities. The probe runs it right after each store call.
func (s *Suite) checkTier() {
	led := s.tier.Ledger
	if !led.Conserved() {
		s.report("tier-conservation",
			"allocated %d != gpu %d + cpu %d + freed %d (bytes leaked or conjured)",
			led.AllocatedBytes, led.GPUBytes, led.CPUBytes, led.FreedBytes)
	}
	if led.GPUBytes < 0 || led.CPUBytes < 0 || led.FreedBytes < 0 || led.AllocatedBytes < 0 {
		s.report("tier-conservation",
			"negative accounting: alloc=%d gpu=%d cpu=%d freed=%d",
			led.AllocatedBytes, led.GPUBytes, led.CPUBytes, led.FreedBytes)
	}
	cfg := s.tier.Config()
	if led.GPUBytes > cfg.GPUBytes {
		s.report("tier-conservation",
			"GPU tier %d bytes exceeds capacity %d", led.GPUBytes, cfg.GPUBytes)
	}
	if led.CPUBytes > cfg.CPUBytes {
		s.report("tier-conservation",
			"CPU tier %d bytes exceeds capacity %d", led.CPUBytes, cfg.CPUBytes)
	}
}

// checkTierResidency reconciles the ledger's resident counters against an
// independent walk of the store's block lists (end-of-run ground truth).
func (s *Suite) checkTierResidency() {
	if s.tier == nil {
		return
	}
	gpu, cpu := s.tier.TierUsage()
	led := s.tier.Ledger
	if gpu != led.GPUBytes || cpu != led.CPUBytes {
		s.report("tier-conservation",
			"ledger residency (gpu=%d cpu=%d) != block-list walk (gpu=%d cpu=%d) — tier leak",
			led.GPUBytes, led.CPUBytes, gpu, cpu)
	}
	if !led.Conserved() {
		s.report("tier-conservation",
			"end of run: allocated %d != gpu %d + cpu %d + freed %d",
			led.AllocatedBytes, led.GPUBytes, led.CPUBytes, led.FreedBytes)
	}
}

// ---- Request lifecycle + SLO bookkeeping --------------------------------------

// RequestSubmitted implements core.Probe. A request with a prefix key has
// just been looked up in the prefix store, so the store's ledger is checked.
func (s *Suite) RequestSubmitted(req *engine.Request) {
	if s.tier != nil && req.W.PrefixKey != "" {
		s.checkTier()
	}
	id := req.W.ID
	if s.live[id] || s.terminal[id] {
		s.report("request-lifecycle", "request %d submitted twice", id)
		return
	}
	s.live[id] = true
	s.submitted++
}

// RequestCompleted implements core.Probe. A request with a prefix key has
// just been inserted into the prefix store, so the store's ledger is
// checked.
func (s *Suite) RequestCompleted(req *engine.Request, inst *engine.Instance) {
	if s.tier != nil && req.W.PrefixKey != "" {
		s.checkTier()
	}
	id := req.W.ID
	switch {
	case s.terminal[id]:
		s.report("request-lifecycle", "request %d reached a terminal state twice", id)
		return
	case !s.live[id]:
		s.report("request-lifecycle", "request %d completed without being submitted", id)
	}
	delete(s.live, id)
	s.terminal[id] = true
	s.completed++

	if req.State != engine.Done {
		s.report("request-lifecycle", "request %d completed in state %v, want done", id, req.State)
	}
	if req.Generated != req.W.OutputLen {
		s.report("request-lifecycle",
			"request %d generated %d tokens, trace declares %d (tokens lost or conjured)",
			id, req.Generated, req.W.OutputLen)
	}
	if _, have := req.Tracker.TTFT(); !have {
		s.report("slo-bookkeeping", "request %d completed without a first token", id)
	}
	if inst != nil {
		s.checkInstanceKV(inst)
	}
}

// checkInstanceKV verifies the engine-level KV conservation identities at a
// quiescent point: no tokens were released past the live count, and the
// cache's live tokens equal the running batch's summed context.
func (s *Suite) checkInstanceKV(inst *engine.Instance) {
	s.checkKVRelease(inst)
	want := s.checkRunningContext(inst)
	if got := inst.Cache.UsedTokens(); got != want {
		s.report("kv-accounting",
			"inst%d: cache holds %d tokens but running batch accounts %d",
			inst.ID, got, want)
	}
}

// checkRunningContext verifies the running context the engine keeps
// incrementally (Instance.TotalContextTokens) against a recount of the
// decode batch, and returns the recount. A mutator that changes the batch
// or a member's generated tokens without updating the sum trips it.
func (s *Suite) checkRunningContext(inst *engine.Instance) int64 {
	var want int64
	for _, r := range inst.Running {
		want += int64(r.ContextTokens())
	}
	if got := int64(inst.TotalContextTokens()); got != want {
		s.report("kv-accounting",
			"inst%d: running context kept at %d tokens but the batch sums to %d",
			inst.ID, got, want)
	}
	return want
}

// RequestDropped implements core.Probe.
func (s *Suite) RequestDropped(req *engine.Request) {
	id := req.W.ID
	switch {
	case s.terminal[id]:
		s.report("request-lifecycle", "request %d reached a terminal state twice", id)
		return
	case !s.live[id]:
		s.report("request-lifecycle", "request %d dropped without being submitted", id)
	}
	delete(s.live, id)
	s.terminal[id] = true
	s.droppedRq++
	if req.State != engine.Dropped {
		s.report("request-lifecycle", "request %d dropped in state %v", id, req.State)
	}
	if req.Tracker.Met() {
		s.report("slo-bookkeeping", "request %d dropped yet marked SLO-met", id)
	}
}

// InstanceCreated implements core.Probe: the suite tracks the new instance
// so its KV cache is checked until removal (or at end of run).
func (s *Suite) InstanceCreated(inst *engine.Instance) { s.kv[inst] = 0 }

// InstanceRemoved implements core.Probe. Every removal path (keep-alive
// reclaim, preemption) drains or migrates requests out before the unload is
// issued, so a removed instance holding requests means they would be lost.
func (s *Suite) InstanceRemoved(inst *engine.Instance) {
	if !inst.Idle() {
		s.report("request-lifecycle",
			"inst%d unloading with %d requests still attached",
			inst.ID, inst.TotalLoad())
	}
	if got := inst.Cache.UsedTokens(); got != 0 {
		s.report("kv-accounting",
			"inst%d unloading with %d live KV tokens", inst.ID, got)
	}
	s.checkRunningContext(inst)
	s.checkKVRelease(inst)
	delete(s.kv, inst)
}

// RunFinished implements core.Probe: end-of-run conservation identities
// between the report, the collector, and the independently counted events.
// Requests still live at drain end are legal (the grace window bounds the
// run); the conservation identity accounts for them explicitly.
func (s *Suite) RunFinished(_ *core.Controller, rep metrics.Report) {
	if rep.Total != s.submitted {
		s.report("slo-bookkeeping", "report total %d != %d observed submissions", rep.Total, s.submitted)
	}
	if rep.Completed != s.completed {
		s.report("slo-bookkeeping", "report completed %d != %d observed completions", rep.Completed, s.completed)
	}
	if rep.Dropped != s.droppedRq {
		s.report("slo-bookkeeping", "report dropped %d != %d observed drops", rep.Dropped, s.droppedRq)
	}
	if live := int64(len(s.live)); s.completed+s.droppedRq+live != s.submitted {
		s.report("request-lifecycle",
			"requests not conserved: %d submitted, %d completed + %d dropped + %d live",
			s.submitted, s.completed, s.droppedRq, live)
	}
	if rep.Met > rep.Completed {
		s.report("slo-bookkeeping", "met %d exceeds completed %d", rep.Met, rep.Completed)
	}
	if rep.SLORate < 0 || rep.SLORate > 1 {
		s.report("slo-bookkeeping", "SLO rate %v outside [0, 1]", rep.SLORate)
	}
	if rep.Total > 0 {
		if want := float64(rep.Met) / float64(rep.Total); rep.SLORate != want {
			s.report("slo-bookkeeping", "SLO rate %v != met/total %v", rep.SLORate, want)
		}
	}
	if int64(len(rep.TTFTCDF)) != rep.Completed {
		s.report("slo-bookkeeping",
			"%d TTFT samples for %d completions (every completed request has a first token)",
			len(rep.TTFTCDF), rep.Completed)
	}
	s.checkLiveKV()
	s.checkTierResidency()
}

// checkLiveKV runs the over-release check on every instance still live at
// end of run, in instance-ID order.
func (s *Suite) checkLiveKV() {
	insts := make([]*engine.Instance, 0, len(s.kv))
	//slinfer:maporder collected instances are sorted below before anyone reads them
	for inst := range s.kv {
		insts = append(insts, inst)
	}
	slices.SortFunc(insts, func(a, b *engine.Instance) int { return cmp.Compare(a.ID, b.ID) })
	for _, inst := range insts {
		s.checkKVRelease(inst)
	}
}
