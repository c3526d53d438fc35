package core

import (
	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/perfmodel"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
)

// hostView adapts the Controller to policy.Host: the narrow, stable
// surface the pluggable policies program against. Everything here is a
// thin forwarder; no decision logic lives in this file.
type hostView struct{ c *Controller }

func (h hostView) Now() sim.Time { return h.c.Sim.Now() }

func (h hostView) Nodes() []*cluster.Node { return h.c.Cluster.Nodes }

func (h hostView) AppendRouteCandidates(dst []*engine.Instance, req *engine.Request) []*engine.Instance {
	return h.c.appendRoute(dst, h.c.record(req), wantRole(&h.c.Cfg))
}

func (h hostView) Scratch() *policy.Scratch {
	c := h.c
	for len(c.policyScratch) <= c.scratchDepth {
		c.policyScratch = append(c.policyScratch, new(policy.Scratch))
	}
	return c.policyScratch[c.scratchDepth]
}

func (h hostView) ExecutorOf(inst *engine.Instance) *cluster.Executor {
	return h.c.instExec[inst.ID]
}

func (h hostView) SharedExecutor(nodeIdx int) *cluster.Executor {
	return h.c.sharedExecutor(h.c.Cluster.Nodes[nodeIdx])
}

func (h hostView) WireExecutor(ex *cluster.Executor) { h.c.wireExecutor(ex) }

func (h hostView) Profile(class hwsim.DeviceClass, req *engine.Request, share float64) *perfmodel.Profile {
	return h.c.profile(class, h.c.record(req), share)
}

func (h hostView) FixedLimit(req *engine.Request, class hwsim.DeviceClass, share float64) (int, bool) {
	if lim := h.c.Cfg.FixedLimit; lim != nil {
		return lim(h.c.record(req).m, class, share), true
	}
	return 0, false
}

func (h hostView) Validator() *compute.Validator { return h.c.Validator }

func (h hostView) ValidateOn(ex *cluster.Executor, cand *engine.Instance, rv compute.ReqView, tpot sim.Duration, candBlock sim.Duration) bool {
	return h.c.validate(ex, cand, nil, rv, tpot, candBlock) == compute.OK
}

func (h hostView) ValidateScaleOut(ex *cluster.Executor, prof *perfmodel.Profile, req *engine.Request, loadDur sim.Duration) bool {
	rv := compute.ViewRequest(req)
	rv.Deadline = rv.Deadline.Add(loadDur) // cold-start grace
	return h.c.validate(ex, nil, prof, rv, req.Obj.TPOT, loadDur) == compute.OK
}

func (h hostView) CreationBytes(n *cluster.Node, share float64, req *engine.Request) int64 {
	return h.c.creationBytes(n, share, req)
}

// The actions below run one scratch depth deeper than the policy method
// calling them, so a policy call they nest gets a Scratch of its own.

func (h hostView) Spawn(nodes []*cluster.Node, share float64, req *engine.Request) bool {
	h.c.scratchDepth++
	inst := h.c.createInstance(h.c.record(req), nodes, share, req)
	if inst != nil {
		h.c.place(req, inst)
	}
	h.c.scratchDepth--
	return inst != nil
}

func (h hostView) Admit(req *engine.Request, inst *engine.Instance) bool {
	h.c.scratchDepth++
	ok := h.c.admit(req, inst)
	h.c.scratchDepth--
	return ok
}

func (h hostView) Migrate(req *engine.Request, from *engine.Instance) {
	h.c.scratchDepth++
	h.c.migrate(req, from)
	h.c.scratchDepth--
}

func (h hostView) Reclaim(inst *engine.Instance) {
	h.c.scratchDepth++
	h.c.reclaim(inst)
	h.c.scratchDepth--
}

func (h hostView) ArmReclaim(inst *engine.Instance, idle sim.Duration) {
	c := h.c
	c.cancelKeepAlive(inst)
	c.keepAlive[inst.ID] = c.Sim.AfterFunc(idle, c.fnKeepAlive, inst)
}

func (h hostView) RecordPreemption() { h.c.Collector.Preemptions++ }
