package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/fleet"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// spanName indexes the fixed set of span names the harness records.
type spanName uint8

const (
	spanSetupGenerate spanName = iota
	spanSetupEncode
	spanSetupDecode
	spanReplay
	spanPlaceNew
	spanTryPreempt
	spanArm
	spanRoute
	spanAdmit
	spanRetry
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"setup.generate", "setup.encode", "setup.decode", "replay",
	"policy.PlaceNew", "policy.TryPreempt", "policy.Arm",
	"fleet.Route", "fleet.Admit", "fleet.Retry",
}

// maxRawSpans caps the raw spans kept in memory across all tracers of a
// run; per-name aggregates keep counting past the cap.
const maxRawSpans = 1 << 20

// span is one finished raw span. Times are nanoseconds since the run's
// time origin.
type span struct {
	id, parent int64
	start, end int64
	replay     int32
	name       spanName
}

// spanAgg is the per-name aggregate: calls, calls that returned true
// (placed, preempted, admitted, retried), inclusive time, and self time
// (inclusive minus child spans on the same tracer).
type spanAgg struct {
	count, ok     int64
	totalNs, self int64
}

type openSpan struct {
	id      int64
	start   int64
	childNs int64
	name    spanName
}

// tracer records spans for one goroutine: the main harness goroutine, or
// one fleet shard (a shard is advanced by one goroutine at a time between
// epoch barriers, so its tracer needs no locking).
type tracer struct {
	id     int64
	origin time.Time
	raw    *atomic.Int64 // raw spans kept so far, shared by every tracer of the run
	// root is the span new top-level spans hang off: the current replay
	// span for shard tracers, 0 on the main tracer.
	root   int64
	replay int32
	seq    int64
	stack  []openSpan
	spans  []span
	agg    [numSpanNames]spanAgg
}

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(n spanName) int64 {
	t.seq++
	id := t.id<<40 | t.seq
	t.stack = append(t.stack, openSpan{id: id, start: t.now(), name: n})
	return id
}

// end closes the innermost open span; ok counts the call's outcome.
func (t *tracer) end(ok bool) {
	stop := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := stop - top.start
	parent := t.root
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].id
		t.stack[len(t.stack)-1].childNs += dur
	}
	a := &t.agg[top.name]
	a.count++
	if ok {
		a.ok++
	}
	a.totalNs += dur
	a.self += dur - top.childNs
	if t.raw.Add(1) <= maxRawSpans {
		t.spans = append(t.spans, span{id: top.id, parent: parent, start: top.start, end: stop, replay: t.replay, name: top.name})
	}
}

// spanSet is every tracer of one run, merged at the end.
type spanSet struct {
	origin  time.Time
	raw     atomic.Int64
	tracers []*tracer
}

func newSpanSet() *spanSet { return &spanSet{origin: time.Now()} }

func (s *spanSet) tracer() *tracer {
	t := &tracer{id: int64(len(s.tracers)), origin: s.origin, raw: &s.raw}
	s.tracers = append(s.tracers, t)
	return t
}

func (s *spanSet) agg() [numSpanNames]spanAgg {
	var out [numSpanNames]spanAgg
	for _, t := range s.tracers {
		for i, a := range t.agg {
			out[i].count += a.count
			out[i].ok += a.ok
			out[i].totalNs += a.totalNs
			out[i].self += a.self
		}
	}
	return out
}

// writeJSONL writes every kept raw span, tracer by tracer, one JSON object
// per line.
func (s *spanSet) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Replay int32  `json:"replay"`
	}
	for _, t := range s.tracers {
		for _, sp := range t.spans {
			if err := enc.Encode(line{sp.id, sp.parent, spanNames[sp.name], sp.start, sp.end, sp.replay}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- Policy decorators -----------------------------------------------------
//
// Each decorator forwards every call to the stock policy unchanged and
// times the decision the controller makes through it. The embedded
// interface forwards the methods that are not timed.

type placementSpy struct {
	policy.PlacementPolicy
	t *tracer
}

func (p placementSpy) PlaceNew(h policy.Host, req *engine.Request, m model.Model) bool {
	p.t.begin(spanPlaceNew)
	ok := p.PlacementPolicy.PlaceNew(h, req, m)
	p.t.end(ok)
	return ok
}

type preemptionSpy struct {
	policy.PreemptionPolicy
	t *tracer
}

func (p preemptionSpy) TryPreempt(h policy.Host, req *engine.Request, m model.Model) bool {
	p.t.begin(spanTryPreempt)
	ok := p.PreemptionPolicy.TryPreempt(h, req, m)
	p.t.end(ok)
	return ok
}

type keepAliveSpy struct {
	policy.KeepAlivePolicy
	t *tracer
}

func (p keepAliveSpy) Arm(h policy.Host, inst *engine.Instance) {
	p.t.begin(spanArm)
	p.KeepAlivePolicy.Arm(h, inst)
	p.t.end(true)
}

type routingSpy struct {
	fleet.RoutingPolicy
	t *tracer
}

func (p routingSpy) Route(req workload.Request, st *fleet.EpochState) int {
	p.t.begin(spanRoute)
	s := p.RoutingPolicy.Route(req, st)
	p.t.end(true)
	return s
}

type admissionSpy struct {
	fleet.AdmissionPolicy
	t *tracer
}

func (p admissionSpy) Admit(req workload.Request, st *fleet.EpochState) (bool, string) {
	p.t.begin(spanAdmit)
	ok, reason := p.AdmissionPolicy.Admit(req, st)
	p.t.end(ok)
	return ok, reason
}

type retrySpy struct {
	fleet.RetryPolicy
	t *tracer
}

func (p retrySpy) Retry(req workload.Request, attempt int) (bool, int) {
	p.t.begin(spanRetry)
	ok, delay := p.RetryPolicy.Retry(req, attempt)
	p.t.end(ok)
	return ok, delay
}

// stockPolicies returns the policy composition core derives for cfg when
// its policy fields are nil (core's composePolicies is unexported, so the
// harness restates it; TestTransparency fails if the two drift apart).
func stockPolicies(cfg core.Config) (policy.PlacementPolicy, policy.PreemptionPolicy, policy.KeepAlivePolicy) {
	share := cfg.StaticShare
	if share <= 0 || share > 1 {
		share = 0.5
	}
	var pre policy.PreemptionPolicy = policy.NoPreemption{}
	if cfg.Consolidation {
		pre = policy.SLOPreserving{}
	}
	return &policy.BinPack{
		Mode: cfg.Sharing, StaticShare: share, UseCPU: cfg.UseCPU,
		CPUFirst: cfg.CPUFirst, ShadowValidation: cfg.ShadowValidation,
	}, pre, policy.FixedKeepAlive{Idle: cfg.KeepAlive}
}

// decorate returns cfg with the stock policies wrapped by spies on t.
func decorate(cfg core.Config, t *tracer) core.Config {
	place, pre, keep := stockPolicies(cfg)
	cfg.Placement = placementSpy{place, t}
	cfg.Preemption = preemptionSpy{pre, t}
	cfg.KeepAlivePolicy = keepAliveSpy{keep, t}
	return cfg
}

// ---- Controller observers --------------------------------------------------

// ctlProbe is a core.Probe that counts instance creations and, when the
// controller finishes a run or stream segment, collects its compute-layer
// counters. It observes only.
type ctlProbe struct {
	created                 int64
	validations, rejections int64
	validationNs, pickNs    int64
	picks                   int64
}

func (*ctlProbe) RequestSubmitted(*engine.Request)                   {}
func (*ctlProbe) RequestCompleted(*engine.Request, *engine.Instance) {}
func (*ctlProbe) RequestDropped(*engine.Request)                     {}
func (p *ctlProbe) InstanceCreated(*engine.Instance)                 { p.created++ }
func (*ctlProbe) InstanceRemoved(*engine.Instance)                   {}

func (p *ctlProbe) RunFinished(c *core.Controller, _ metrics.Report) {
	p.validations += c.Validator.Validations
	p.rejections += c.Validator.Rejections
	p.validationNs += c.Collector.ValidationNs
	p.pickNs += c.Collector.ScheduleNs
	p.picks += c.Collector.ScheduleCount
}

func (p *ctlProbe) add(q *ctlProbe) {
	p.created += q.created
	p.validations += q.validations
	p.rejections += q.rejections
	p.validationNs += q.validationNs
	p.pickNs += q.pickNs
	p.picks += q.picks
}

// simHook watches a single controller's simulator through OnEvent: the
// event heap size and the time-weighted pending-queue depth.
type simHook struct {
	ctl      *core.Controller
	last     sim.Time
	area     float64 // queue depth integrated over virtual time
	span     float64 // virtual seconds observed
	depthMax int
	heapMax  int
}

func (h *simHook) onEvent(at sim.Time) {
	d := h.ctl.PendingCount()
	h.area += float64(d) * float64(at-h.last)
	h.span += float64(at - h.last)
	h.last = at
	if d > h.depthMax {
		h.depthMax = d
	}
	if p := h.ctl.Sim.Pending(); p > h.heapMax {
		h.heapMax = p
	}
}
