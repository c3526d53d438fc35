package core

import (
	"slinfer/internal/engine"
	"slinfer/internal/metrics"
	"slinfer/internal/telemetry"
)

// Probe observes controller-level lifecycle events. It is the hook the
// always-on invariant suite (internal/invariants) attaches through: every
// method is called synchronously from the single-threaded simulation at a
// point where the observed state is consistent, so checkers can walk
// instances and caches without races. Implementations must not mutate
// controller state — a probe is a witness, not a policy.
//
// A nil Config.Probe costs one branch per event; the controller never
// allocates on behalf of an absent probe.
type Probe interface {
	// RequestSubmitted fires once per arrival, right after the collector
	// counts it and before placement is attempted.
	RequestSubmitted(req *engine.Request)
	// RequestCompleted fires when a request finishes all output tokens,
	// after the collector records it. inst is the instance that ran the
	// final iteration.
	RequestCompleted(req *engine.Request, inst *engine.Instance)
	// RequestDropped fires when a queued request is abandoned because its
	// queueing delay exceeded the TTFT SLO.
	RequestDropped(req *engine.Request)
	// InstanceCreated fires after a new instance is fully constructed and
	// its cold-start load issued.
	InstanceCreated(inst *engine.Instance)
	// InstanceRemoved fires when an instance is detached and its unload
	// operations issued.
	InstanceRemoved(inst *engine.Instance)
	// RunFinished fires at the end of Run with the built report, after the
	// collector is finalized. End-of-run accounting identities (request
	// conservation, SLO bookkeeping) are checked here.
	RunFinished(c *Controller, rep metrics.Report)
}

// emit is the controller's one lifecycle emission point: each state
// transition makes exactly one call, with the kind's payload (a, b; see
// telemetry.Kind) computed at the call site and a nil req or inst encoded
// as -1. The event goes to Config.Telemetry first, then the five lifecycle
// kinds are dispatched to Config.Probe, so a violation a probe finds dumps
// a flight ring that already holds its trigger. With both observers off,
// emit costs two nil checks and allocates nothing.
//
//slinfer:hotpath
func (c *Controller) emit(kind telemetry.Kind, req *engine.Request, inst *engine.Instance, a, b int64) {
	if t := c.Cfg.Telemetry; t != nil {
		instID, reqID := int32(-1), int64(-1)
		if inst != nil {
			instID = int32(inst.ID)
		}
		if req != nil {
			reqID = req.W.ID
		}
		t.Record(c.Sim.Now(), kind, instID, reqID, a, b)
	}
	p := c.Cfg.Probe
	if p == nil {
		return
	}
	switch kind {
	case telemetry.KindAdmit:
		p.RequestSubmitted(req)
	case telemetry.KindComplete:
		p.RequestCompleted(req, inst)
	case telemetry.KindDrop:
		p.RequestDropped(req)
	case telemetry.KindInstanceUp:
		p.InstanceCreated(inst)
	case telemetry.KindInstanceDown:
		p.InstanceRemoved(inst)
	}
}
