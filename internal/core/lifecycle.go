package core

import (
	"fmt"
	"time"

	"slinfer/internal/cluster"
	"slinfer/internal/consolidator"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
)

// ---- Executor wiring -------------------------------------------------------

// wireExecutor installs the compute policy and iteration handlers.
func (c *Controller) wireExecutor(ex *cluster.Executor) {
	if c.Cfg.MeasureOverhead {
		ex.Pick = func(e *cluster.Executor) (engine.Work, bool) {
			start := time.Now() //slinfer:wallclock MeasureOverhead-gated scheduler profiling; feeds only Collector.ScheduleNs, never event times
			w, ok := c.pick(e.Instances, c.Sim.Now())
			c.Collector.ScheduleNs += time.Since(start).Nanoseconds() //slinfer:wallclock diagnostic overhead counter only
			c.Collector.ScheduleCount++
			return w, ok
		}
	} else {
		ex.Pick = func(e *cluster.Executor) (engine.Work, bool) {
			c.Collector.ScheduleCount++
			return c.pick(e.Instances, c.Sim.Now())
		}
	}
	ex.OnDone = c.onIterationDone
	amp := c.Cfg.Fluctuation
	if amp > 0 {
		// Derive is pure in (seed, name), so each executor needs its own
		// stream name or they would all draw identical noise. Executor
		// wiring order is deterministic, making the counter reproducible.
		c.noiseStreams++
		noise := c.rng.Derive(fmt.Sprintf("noise#%d", c.noiseStreams))
		ex.Noise = func() float64 {
			return 1 + amp*(2*noise.Float64()-1)
		}
	}
}

// onIterationDone applies an iteration's effects: token emission, request
// completion, KV growth, and follow-up scheduling.
//
//slinfer:hotpath
func (c *Controller) onIterationDone(ex *cluster.Executor, w engine.Work, dur sim.Duration) {
	now := c.Sim.Now()
	inst := w.Inst
	kind := inst.Class.Kind()
	switch w.Kind {
	case engine.PrefillWork:
		req := w.Req
		if !inst.CompletePrefill(req, now) {
			// §VII-D: the admitted request's prompt does not fit — the
			// estimate was too low. Grow now; the request retries its
			// prefill after the resize.
			c.handleUnderestimation(inst)
			return
		}
		c.Collector.DecodeTokens[kind]++ // the first output token
		c.emit(telemetry.KindFirstToken, req, inst, 0, 0)
		switch req.State {
		case engine.Done:
			c.completeRequest(req, inst)
		case engine.Transferring:
			c.startPDTransfer(req, inst)
		}
	case engine.DecodeWork:
		batch := inst.BatchSize()
		finished, underestimated := inst.CompleteDecode(now)
		if underestimated {
			c.handleUnderestimation(inst)
			return
		}
		c.Collector.RecordDecode(kind, batch)
		c.emit(telemetry.KindDecodeIter, nil, inst, int64(batch), int64(float64(dur)*1e9))
		for _, req := range finished {
			c.completeRequest(req, inst)
		}
	}
}

// completeRequest finalizes one finished request.
//
//slinfer:hotpath
func (c *Controller) completeRequest(req *engine.Request, inst *engine.Instance) {
	hm := c.record(req)
	hm.est.Observe(req.W.OutputLen)
	if c.prefix != nil && req.W.PrefixKey != "" {
		// A completion demotes its context into the tiered store instead of
		// dropping it: the full prompt+response becomes the shareable prefix
		// the session's next turn looks up.
		before := c.prefix.Ledger
		c.prefix.Insert(req.W.ModelName, req.W.PrefixKey, req.ContextTokens(),
			inst.Model.KVBytesPerToken())
		c.emitTierMoves(&before)
	}
	ttft, haveTTFT := req.TTFT()
	c.Collector.RecordCompletion(req.Met(), ttft, haveTTFT)
	c.emit(telemetry.KindComplete, req, inst, int64(req.Generated), 0)
	c.recheckKV(inst, hm)
	if inst.Idle() && inst.State == engine.Active {
		c.scheduleKeepAlive(inst)
	}
	c.retryPending()
}

// ---- Memory subsystem integration ------------------------------------------

// memPlan is planMemory's verdict on admitting one request to an instance.
type memPlan struct {
	// resize is the KV capacity target to issue before placing (0: none).
	resize int64
	// block is how long the early scale-up stalls the instance (§VII-B is
	// not free: Figure 17's costs stall iterations); shadow validation
	// charges it to the candidate.
	block sim.Duration
}

// planMemory is the shadow memory check of §V. It decides whether req's KV
// fits inst and which early scale-up (§VII-B) admission must issue: the
// watermark recommendation, else the §VII-D compromise of just Mrequire.
// Static-memory instances just check residual KV capacity. It changes no
// state, so admission runs it before shadow validation and applyMemory
// issues the plan only once every check has passed. inst serves req's
// model.
func (c *Controller) planMemory(req *engine.Request, inst *engine.Instance) (memPlan, bool) {
	needTokens := int64(req.W.InputLen) + 1
	if c.isStaticInstance(len(inst.NodeIdxs)) {
		return memPlan{}, inst.Cache.FitsTokens(needTokens)
	}
	states := append(inst.AppendKVReqStates(c.kvStateScratch[:0]),
		kvcache.ReqState{InputLen: req.W.InputLen})
	c.kvStateScratch = states[:0]
	div := len(inst.NodeIdxs)
	require := c.record(req).est.RequireBytes(&inst.Model, states, div)
	cur := inst.Cache.CapacityBytes()
	if !c.Cfg.Watermark.NeedScaleUp(require, cur) {
		return memPlan{}, true
	}
	if inst.ResizeInFlight {
		// One resize at a time per instance. Ride along when the in-flight
		// target covers the requirement; otherwise accept as long as the
		// prompt itself will fit and a follow-up scale-up is plausible —
		// recheckKV issues it when the current resize lands, and the
		// §VII-D underestimation path backstops the rare overflow.
		if inst.KVTarget >= require {
			return memPlan{}, true
		}
		promptNeed := inst.Cache.UsedBytes() +
			(int64(req.W.InputLen)+65)*inst.Model.KVBytesPerToken()/int64(div)
		if inst.KVTarget < promptNeed {
			return memPlan{}, false
		}
		for _, idx := range inst.NodeIdxs {
			if !c.Cluster.Nodes[idx].Mem.CanAdmit(require - inst.KVTarget) {
				return memPlan{}, false
			}
		}
		return memPlan{}, true
	}
	recommend := c.Cfg.Watermark.Recommend(require)
	plan := memPlan{resize: recommend, block: kvcache.ScaleTime(cur, recommend)}
	if _, ok := c.resizeFits(inst, recommend); ok {
		return plan, true
	}
	// §VII-D compromise: accept with just Mrequire.
	plan.resize = require
	_, ok := c.resizeFits(inst, require)
	return plan, ok
}

// applyMemory issues the resize a successful planMemory chose.
func (c *Controller) applyMemory(inst *engine.Instance, plan memPlan) {
	if plan.resize != 0 && !c.issueResize(inst, plan.resize) {
		panic("core: planned KV resize rejected")
	}
}

// resizeFits clamps a resize target to the bytes in use and reports whether
// every host node admits it (TP shards resize together).
func (c *Controller) resizeFits(inst *engine.Instance, target int64) (int64, bool) {
	cur := inst.Cache.CapacityBytes()
	if target < inst.Cache.UsedBytes() {
		target = inst.Cache.UsedBytes()
	}
	if target == cur {
		return target, true
	}
	for _, idx := range inst.NodeIdxs {
		if !c.Cluster.Nodes[idx].Mem.CanAdmit(target - cur) {
			return target, false
		}
	}
	return target, true
}

// issueResize submits one KV resize through the hazard-aware orchestrator,
// one op per host node. Returns false when the optimistic budget rejects it.
//
//slinfer:hotpath
func (c *Controller) issueResize(inst *engine.Instance, target int64) bool {
	target, ok := c.resizeFits(inst, target)
	if !ok {
		return false
	}
	cur := inst.Cache.CapacityBytes()
	if target == cur {
		return true
	}
	dur := kvcache.ScaleTime(cur, target)
	inst.ResizeInFlight = true
	inst.KVTarget = target
	inst.ResizeDoneAt = c.Sim.Now().Add(dur)
	inst.ResizesLeft = uint8(len(inst.NodeIdxs))
	for _, idx := range inst.NodeIdxs {
		if !c.Cluster.Nodes[idx].Mem.Demand(memctl.Op{Kind: memctl.ResizeKV, Owner: memctl.Owner{Inst: inst.ID, KV: true},
			From: cur, To: target, Duration: dur, Done: c.fnMemDone, Arg: inst}) {
			// First node admitted is impossible here: resizeFits pre-checked
			// and nothing ran in between (single-threaded simulation).
			panic("core: resize demand rejected after CanAdmit")
		}
	}
	return true
}

// memOpDone is every memory op's completion (fnMemDone). A load or resize
// finishes its instance once the last node's op lands; a weights unload
// releases its node.
//
//slinfer:hotpath
func (c *Controller) memOpDone(op *memctl.Op) {
	switch op.Kind {
	case memctl.LoadWeights:
		inst := op.Arg.(*engine.Instance)
		if inst.LoadsLeft--; inst.LoadsLeft == 0 {
			c.finishLoad(inst, op.To)
		}
	case memctl.ResizeKV:
		inst := op.Arg.(*engine.Instance)
		if inst.ResizesLeft--; inst.ResizesLeft == 0 {
			c.finishResize(inst, op)
		}
	case memctl.UnloadWeights:
		node := op.Arg.(*cluster.Node)
		if node.ReservedBy == op.Owner.Inst {
			node.ReservedBy = 0
		}
		if !node.Occupied() {
			c.Collector.NodeInactive(node.Idx, c.Sim.Now())
		}
		c.retryPending()
	}
}

// finishResize lands the KV resize op: the cache takes op.To and the
// instance is charged op.Duration of stall.
//
//slinfer:hotpath
func (c *Controller) finishResize(inst *engine.Instance, op *memctl.Op) {
	inst.Cache.SetCapacity(op.To)
	inst.ResizeInFlight = false
	inst.ResizeDoneAt = 0
	inst.ScalingBusy += op.Duration
	c.Collector.ScalingBusy += op.Duration
	c.Collector.KVResizes++
	if inst.State == engine.Unloading {
		return
	}
	// Demands may have shifted while the resize ran.
	c.recheckKV(inst, c.lookup(inst.Model.Name))
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.Kick()
	}
	c.retryPending()
}

// recheckKV applies the watermark policy against current demand: early
// scale-up when short, lazy scale-down when far over (§VII-B). hm is the
// record of inst's model.
func (c *Controller) recheckKV(inst *engine.Instance, hm *hostedModel) {
	if c.isStaticInstance(len(inst.NodeIdxs)) || inst.ResizeInFlight {
		return
	}
	if inst.State != engine.Active {
		return
	}
	states := inst.AppendKVReqStates(c.kvStateScratch[:0])
	c.kvStateScratch = states[:0]
	require := hm.est.RequireBytes(&inst.Model, states, len(inst.NodeIdxs))
	cur := inst.Cache.CapacityBytes()
	switch {
	case c.Cfg.Watermark.NeedScaleUp(require, cur):
		if !c.issueResize(inst, c.Cfg.Watermark.Recommend(require)) {
			c.issueResize(inst, require)
		}
	case c.Cfg.Watermark.ShouldScaleDown(require, cur):
		c.issueResize(inst, c.Cfg.Watermark.Recommend(require))
	}
}

// handleUnderestimation implements §VII-D: try to grow the cache again; if
// the node cannot fit it, evict the request with the longest headroom and
// reschedule it elsewhere.
func (c *Controller) handleUnderestimation(inst *engine.Instance) {
	if inst.ResizeInFlight {
		return // a resize is already on its way
	}
	// Grow by 25% of current (at least one request's worth).
	target := inst.Cache.CapacityBytes() + inst.Cache.CapacityBytes()/4
	minGrow := inst.Cache.UsedBytes() + 2048*inst.Model.KVBytesPerToken()
	if target < minGrow {
		target = minGrow
	}
	if c.issueResize(inst, target) {
		return
	}
	// Evict the longest-headroom request.
	var victim *engine.Request
	now := c.Sim.Now()
	for _, r := range inst.Running {
		if victim == nil || r.Headroom(now) > victim.Headroom(now) {
			victim = r
		}
	}
	if victim == nil {
		for _, r := range inst.WaitingPrefill {
			if victim == nil || r.Headroom(now) > victim.Headroom(now) {
				victim = r
			}
		}
	}
	if victim == nil {
		return
	}
	c.migrate(victim, inst)
	c.Collector.Evictions++
}

// migrate pulls a request off an instance and re-places it. The request
// keeps the tokens it already generated; its context (prompt + generated)
// is re-prefilled at the destination.
func (c *Controller) migrate(req *engine.Request, from *engine.Instance) {
	if !from.RemoveRunning(req) {
		from.RemoveWaiting(req)
	}
	req.State = engine.Queued
	req.Inst = nil
	req.Migrations++
	c.Collector.Migrations++
	c.emit(telemetry.KindPreempt, req, from, int64(req.Migrations), 0)
	// tryPlace minus the originating instance and minus recursion into
	// preemption (avoids ping-pong).
	hm := c.record(req)
	if !c.tryExisting(req, hm, from) && !c.Cfg.Placement.PlaceNew(c.host, req, hm.m) {
		c.enqueue(req)
	}
}

// ---- Instance lifecycle ------------------------------------------------------

// isStaticInstance reports whether an instance spanning nodes host nodes
// has its memory allocated whole at creation (exclusive/static baselines
// and TP fallback models).
func (c *Controller) isStaticInstance(nodes int) bool {
	return !c.Cfg.DynamicMemory || nodes > 1
}

// nodeWeights is the per-node memory of m's weights on nodes host nodes,
// plus the activation reserve: the part of a footprint teardown reads.
func nodeWeights(m *model.Model, nodes int) int64 {
	return m.WeightBytes()/int64(nodes) + hwsim.ActivationReserve
}

// footprint returns the per-node memory of a new instance of hm's model on
// nodes host nodes like n at the given share: its weights plus activation
// reserve, its initial node-resident KV, and whether that KV is dynamic.
// Dynamic KV is the watermark recommendation for a first prompt of
// inputLen tokens, issued as its own resize once the load is submitted;
// static KV is the rest of the node's memory share, loaded with the
// weights.
func (c *Controller) footprint(hm *hostedModel, n *cluster.Node, nodes int, share float64, inputLen int) (weights, kv int64, dynamic bool) {
	weights = nodeWeights(&hm.m, nodes)
	if c.isStaticInstance(nodes) {
		return weights, int64(float64(n.Spec.MemBytes)*share) - weights, false
	}
	states := append(c.kvStateScratch[:0], kvcache.ReqState{InputLen: inputLen})
	c.kvStateScratch = states[:0]
	return weights, c.Cfg.Watermark.Recommend(hm.est.RequireBytes(&hm.m, states, 1)), true
}

// creationBytes returns the per-node memory a new instance of req's model
// needs at creation on n: its footprint's weights and initial KV. Negative
// means the node can never host it (a static share too small for the
// weights and the prompt). Otherwise it is at least the weights, the
// Host.CreationBytes floor: dynamic KV is a watermark recommendation, never
// negative, and static KV here holds at least the prompt.
func (c *Controller) creationBytes(n *cluster.Node, share float64, req *engine.Request) int64 {
	hm := c.record(req)
	weights, kv, dynamic := c.footprint(hm, n, 1, share, req.W.InputLen)
	if !dynamic && kv < int64(req.W.InputLen+1024)*hm.m.KVBytesPerToken() {
		return -1
	}
	return weights + kv
}

// createInstance builds an instance of hm's model, carves its executor, and
// issues the cold-start load. Returns nil when memory admission fails.
func (c *Controller) createInstance(hm *hostedModel, nodes []*cluster.Node, share float64, first *engine.Request) *engine.Instance {
	inst := c.takeInstance()
	for _, n := range nodes {
		inst.NodeIdxs = append(inst.NodeIdxs, n.Idx)
	}
	if inst.Cache == nil {
		inst.Cache = kvcache.NewCache(hm.m, len(nodes))
	} else {
		inst.Cache.Reset(hm.m, len(nodes))
	}
	inst.ID, inst.Model, inst.Class, inst.Share = c.nextInstID, hm.m, nodes[0].Spec.Class, share
	inst.Profile = c.profile(nodes[0].Spec.Class, hm, share*nodes[0].SpeedFactor)
	inst.State = engine.Loading
	inst.Role = wantRole(&c.Cfg)
	inst.CreatedAt = c.Sim.Now()
	c.nextInstID++
	_, inst.DecodePenalty = neoAssist(c.Cfg.NEOCores)

	// Per-node allocations. Static KV loads with the weights, and its cache
	// also holds NEO's offloaded KV, which lives in host DRAM rather than
	// node memory; dynamic KV is a separate resize op so later admissions
	// see a truthful ledger.
	weights, kv, dynamic := c.footprint(hm, nodes[0], len(nodes), share, first.W.InputLen)
	loadTo := weights
	if !dynamic {
		loadTo += kv
		if extra, _ := neoAssist(c.Cfg.NEOCores); kv+extra <= 0 {
			return nil
		}
	}
	// Admission across all host nodes first (all-or-nothing).
	for _, n := range nodes {
		if !n.Mem.CanAdmit(weights + kv) {
			return nil
		}
	}

	loadDur := nodes[0].Spec.LoadTime(&hm.m)
	inst.LoadsLeft = uint8(len(nodes))
	for _, n := range nodes {
		if !n.Mem.Demand(memctl.Op{Kind: memctl.LoadWeights, Owner: memctl.Owner{Inst: inst.ID},
			To: loadTo, Duration: loadDur, Done: c.fnMemDone, Arg: inst}) {
			panic("core: load demand rejected after CanAdmit")
		}
	}

	// Carve compute per the placement policy (shared executor under
	// elastic sharing, a dedicated partition otherwise).
	ex := c.Cfg.Placement.CarveExecutor(c.host, nodes, share)
	ex.AddInstance(inst)
	c.instExec[inst.ID] = ex
	for i, n := range nodes {
		if i > 0 {
			n.ReservedBy = inst.ID
		}
		c.Collector.NodeActive(n.Idx, n.Kind(), c.Sim.Now())
	}
	hm.insts = append(hm.insts, inst)
	c.Collector.ColdStarts++
	c.emit(telemetry.KindInstanceUp, nil, inst, 0, 0)
	if dynamic && kv > 0 {
		c.issueResize(inst, kv)
	}
	return inst
}

// finishLoad activates a loaded instance whose load charged loadTo bytes
// per node. A static cache takes the KV loaded with the weights plus NEO's
// offloaded KV; a dynamic one is sized by the creation resize op.
func (c *Controller) finishLoad(inst *engine.Instance, loadTo int64) {
	if inst.State != engine.Loading {
		return
	}
	inst.State = engine.Active
	if c.isStaticInstance(len(inst.NodeIdxs)) {
		extra, _ := neoAssist(c.Cfg.NEOCores)
		inst.KVTarget = loadTo - nodeWeights(&inst.Model, len(inst.NodeIdxs)) + extra
		inst.Cache.SetCapacity(inst.KVTarget)
	}
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.Kick()
	}
	if inst.Idle() {
		c.scheduleKeepAlive(inst)
	}
	c.retryPending()
}

// scheduleKeepAlive hands an idle instance to the keep-alive policy (§V),
// which decides whether and when to arm the reclamation timer.
func (c *Controller) scheduleKeepAlive(inst *engine.Instance) {
	c.Cfg.KeepAlivePolicy.Arm(c.host, inst)
}

func (c *Controller) cancelKeepAlive(inst *engine.Instance) {
	if ev, ok := c.keepAlive[inst.ID]; ok {
		ev.Cancel()
		delete(c.keepAlive, inst.ID)
	}
}

// reclaim tears an idle instance down, releasing compute and memory.
func (c *Controller) reclaim(inst *engine.Instance) {
	if inst.State != engine.Active || !inst.Idle() {
		return
	}
	if inst.ResizeInFlight {
		// Let the in-flight resize land first; re-try shortly after.
		c.Sim.AfterFunc(0.2, c.fnReclaim, inst)
		return
	}
	c.removeInstance(inst)
	c.Collector.Reclaims++
}

// removeInstance detaches an instance and issues its unload operations.
func (c *Controller) removeInstance(inst *engine.Instance) {
	inst.State = engine.Unloading
	c.emit(telemetry.KindInstanceDown, nil, inst, 0, 0)
	c.cancelKeepAlive(inst)
	c.Collector.InstanceLifetime += c.Sim.Now().Sub(inst.CreatedAt)
	// Detach compute.
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.RemoveInstance(inst)
		c.Cfg.Placement.ReleaseExecutor(c.host, inst, ex)
		delete(c.instExec, inst.ID)
	}
	// Drop from the live set.
	hm := c.lookup(inst.Model.Name)
	for i, x := range hm.insts {
		if x == inst {
			hm.insts = append(hm.insts[:i], hm.insts[i+1:]...)
			break
		}
	}
	// Release memory per node. Static instances unload their whole
	// allocation (weights + activation + resident KV) under the weights
	// owner, mirroring the combined load at creation; NEO's offloaded KV
	// was never charged to the node. Dynamic-memory instances allocated
	// their KV under a separate ledger owner (creation resize), so the
	// teardown releases it under that same owner — the per-allocation
	// ledger stays conserved (bytes unloaded under an owner match the bytes
	// loaded under it), which the invariant suite checks. Both releases
	// ride the same unload window, so the node's byte timeline is
	// unchanged.
	kv := inst.Cache.CapacityBytes()
	unloadFrom := nodeWeights(&inst.Model, len(inst.NodeIdxs))
	dynamic := !c.isStaticInstance(len(inst.NodeIdxs))
	if !dynamic {
		extra, _ := neoAssist(c.Cfg.NEOCores)
		unloadFrom += max(kv-extra, 0)
	}
	// Per node, the KV release goes first, then the weights unload.
	for _, idx := range inst.NodeIdxs {
		node := c.Cluster.Nodes[idx]
		dur := node.Spec.UnloadTime(&inst.Model)
		if dynamic && kv > 0 && !node.Mem.Demand(memctl.Op{Kind: memctl.ResizeKV, Owner: memctl.Owner{Inst: inst.ID, KV: true},
			From: kv, Duration: dur}) {
			panic("core: KV release rejected")
		}
		if !node.Mem.Demand(memctl.Op{Kind: memctl.UnloadWeights, Owner: memctl.Owner{Inst: inst.ID},
			From: unloadFrom, Duration: dur, Done: c.fnMemDone, Arg: node}) {
			panic("core: weights unload rejected")
		}
	}
	inst.Cache.SetCapacity(0)
}

// ---- PD disaggregation (§IX-G) -----------------------------------------------

// startPDTransfer ships a prefilled request's KV to a decode instance.
func (c *Controller) startPDTransfer(req *engine.Request, from *engine.Instance) {
	kvBytes := int64(req.ContextTokens()) * from.Model.KVBytesPerToken()
	dur := c.Cluster.Nodes[from.NodeIdxs[0]].Spec.KVTransferTime(kvBytes)
	if from.Idle() && from.State == engine.Active {
		c.scheduleKeepAlive(from)
	}
	c.transferring = append(c.transferring, req)
	c.Sim.AfterFunc(dur, c.fnPD, req)
}

func (c *Controller) finishPDTransfer(req *engine.Request) {
	if req.State != engine.Transferring {
		return
	}
	hm := c.record(req)
	// Join the largest decode instance that fits; else create one. A
	// decode instance still loading grants the request a cold-start grace
	// window (§IX-A) and is joined once up.
	for _, inst := range c.decodeCandidates(hm) {
		if inst.State == engine.Loading {
			if eta := inst.CreatedAt.Add(c.loadTime(inst)); eta > c.Sim.Now() {
				req.ExtendGrace(eta.Sub(c.Sim.Now()))
				c.Sim.AfterFunc(eta.Sub(c.Sim.Now())+0.02, c.fnPD, req)
				return
			}
			continue
		}
		if inst.State != engine.Active || inst.TotalLoad() >= perfmodel.MaxBatch {
			continue
		}
		if lim := c.Cfg.FixedLimit; lim != nil && inst.TotalLoad() >= lim(inst.Model, inst.Class, inst.Share) {
			continue
		}
		// The arriving KV needs cache space; drive the §VII-B scale-up.
		plan, ok := c.planMemory(req, inst)
		if !ok {
			continue
		}
		c.applyMemory(inst, plan)
		if inst.JoinDecode(req) {
			c.transferring = removeRequest(c.transferring, req)
			if ex := c.instExec[inst.ID]; ex != nil {
				ex.Kick()
			}
			return
		}
		// A scale-up is in flight; join once it lands.
		c.Sim.AfterFunc(0.25, c.fnPD, req)
		return
	}
	if inst := c.createDecodeInstance(hm, req); inst != nil {
		return
	}
	// Nowhere to decode: the request stalls until capacity appears; its
	// deadlines keep passing and RecordToken records the violation.
	c.Sim.AfterFunc(0.5, c.fnPD, req)
}

func (c *Controller) decodeCandidates(hm *hostedModel) []*engine.Instance {
	var out []*engine.Instance
	for _, inst := range hm.insts {
		if inst.Role == engine.DecodeOnly {
			out = append(out, inst)
		}
	}
	consolidator.SortRoute(out)
	return out
}

// createDecodeInstance spawns a DecodeOnly instance of req's model, whose
// record is hm, for PD mode on the first node, in node order, that the
// placement's Feasible and AdmitScaleOut accept.
func (c *Controller) createDecodeInstance(hm *hostedModel, req *engine.Request) *engine.Instance {
	for _, n := range c.Cluster.Nodes {
		share, ok := c.Cfg.Placement.Feasible(c.host, n, &hm.m, req)
		if !ok {
			continue
		}
		// Decode instances share nodes too: the same §VI-C scale-out
		// validation applies or colocated decode rounds overrun the SLO.
		if !c.Cfg.Placement.AdmitScaleOut(c.host, n, &hm.m, share, req) {
			continue
		}
		inst := c.createInstance(hm, []*cluster.Node{n}, share, req)
		if inst == nil {
			continue
		}
		inst.Role = engine.DecodeOnly
		// Re-enter the transfer path once the instance is up, in case a
		// request is already waiting on its KV handoff.
		if req.State == engine.Transferring {
			c.Sim.AfterFunc(n.Spec.LoadTime(&hm.m)+0.05, c.fnPD, req)
		}
		return inst
	}
	return nil
}

// ---- Metrics sampling ---------------------------------------------------------

func (c *Controller) scheduleSampler() {
	c.samplerEv = c.Sim.AfterFunc(memSamplePeriod, c.fnSampler, nil)
}

// samplerTick records one round of memory/KV utilization samples and
// re-arms itself. The chain stops re-arming past the trace end, and — so
// drained runs do not keep firing trailing empty ticks — as soon as the
// workload is provably finished (no arrivals left, every request terminal,
// no instances): from that point no tick could record a sample, so cutting
// the chain is observationally identical.
//
//slinfer:hotpath
func (c *Controller) samplerTick() {
	if c.Sim.Now() > c.traceEnd || c.workloadDrained() {
		c.samplerEv = sim.Event{}
		return
	}
	// Walk models in registration order: samples land in the collector in
	// iteration order, so ranging the map would shuffle them run-to-run.
	for _, hm := range c.order {
		for _, inst := range hm.insts {
			if inst.State != engine.Active {
				continue
			}
			weights := inst.WeightBytesOnNode()
			used := float64(weights + inst.Cache.UsedBytes())
			alloc := float64(weights + inst.Cache.CapacityBytes())
			if alloc > 0 {
				c.Collector.SampleMemUtil(inst.Class.Kind(), used/alloc)
			}
			if inst.Cache.CapacityBytes() > 0 && !inst.Idle() {
				c.Collector.SampleKVUtil(inst.Cache.Utilization())
			}
		}
	}
	c.telemSample()
	c.samplerEv = c.Sim.AfterFunc(memSamplePeriod, c.fnSampler, nil)
}

// stopSampler cancels the pending sampler tick. Run calls it after the
// drain deadline so the simulator's queue is not left holding a stray tick
// that would fire if the caller keeps stepping the simulation.
func (c *Controller) stopSampler() {
	c.samplerEv.Cancel()
	c.samplerEv = sim.Event{}
}

// workloadDrained reports whether the run can provably produce no further
// samples: the arrival cursor is exhausted, every submitted request reached
// a terminal state, and no instances exist (so nothing can be sampled and
// nothing can create new instances).
func (c *Controller) workloadDrained() bool {
	if c.externalArrivals {
		// Stream-driven runs (the fleet front door) may still schedule
		// arrivals from outside; only the trace-end check can stop the
		// sampler chain early.
		return false
	}
	if !c.arrivalsExhausted() || len(c.pending) > 0 {
		return false
	}
	if c.Collector.Completed+c.Collector.Dropped < c.Collector.Total {
		return false
	}
	for _, hm := range c.order {
		if len(hm.insts) > 0 {
			return false
		}
	}
	return true
}
