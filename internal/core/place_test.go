package core

import (
	"fmt"
	"slices"
	"testing"

	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// saturated drives a 1+1 SLINFER controller through the saturated golden
// shape (24 7B models at 6 rps) up to until, leaving requests queued, and
// returns it with a fresh request for the first model.
func saturated(t *testing.T, until sim.Time) (*Controller, *engine.Request) {
	t.Helper()
	models, tr := goldenShape(24, 360)
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 1), models, SLINFER())
	c.BeginStream(sim.Time(0).Add(tr.Duration), len(tr.Requests))
	for _, w := range tr.Requests {
		if w.Arrival > until {
			break
		}
		s.RunUntil(w.Arrival)
		c.Submit(w)
	}
	if c.PendingCount() == 0 {
		t.Fatal("precondition: the controller should be queueing")
	}
	req := engine.NewRequest(workload.Request{ID: -1, ModelName: models[0].Name,
		Arrival: s.Now(), InputLen: 1024, OutputLen: 200})
	return c, req
}

// A request built outside Submit starts unbound, and TryPlace binds it by
// its model's name: registered after two other models, it lands on an
// instance of its own model, never on the first record's.
func TestTryPlaceBindsUnboundRequest(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 3)
	target := models[2]
	c := New(sim.New(), hwsim.Testbed(1, 1), models, SLINFER())
	req := engine.NewRequest(workload.Request{ID: 1, ModelName: target.Name, InputLen: 256, OutputLen: 8})
	if req.Rec != 0 {
		t.Fatalf("a new request is bound to record %d", req.Rec)
	}
	if !c.TryPlace(req) {
		t.Fatal("an idle controller did not place the request")
	}
	if req.Inst == nil || req.Inst.Model.Name != target.Name {
		t.Fatalf("request for %s placed on %v", target.Name, req.Inst)
	}
	for _, m := range models {
		want := 0
		if m.Name == target.Name {
			want = 1
		}
		if got := len(c.InstancesOf(m.Name)); got != want {
			t.Errorf("%s has %d instances, want %d", m.Name, got, want)
		}
	}
}

// The scale-out probe a queued request repeats on every completion must not
// allocate when it finds no node: the candidate list stays on the stack and
// the shadow validation it runs reuses the validator's scratch.
func TestScaleOutProbeDoesNotAllocate(t *testing.T) {
	c, req := saturated(t, 60)
	m := c.lookup(req.W.ModelName).m
	if c.Cfg.Placement.PlaceNew(c.host, req, m) {
		t.Fatal("precondition: a saturated 1+1 testbed should have no node for a new instance")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if c.Cfg.Placement.PlaceNew(c.host, req, m) {
			t.Fatal("scale-out placed on unchanged state")
		}
	})
	if allocs != 0 {
		t.Errorf("a failed scale-out probe allocates %.1f times", allocs)
	}
}

// Every non-negative creation size covers the model's weights and the
// activation reserve: the Host.CreationBytes floor that PlaceNew drops
// nodes on before asking. It holds for every preset (static shares and
// NEO's static KV included), every node shape of the testbed and the
// paper's clusters (gen-3 and harvested CPUs), every single-node catalog
// model and every input length up to its context.
func TestCreationBytesFloor(t *testing.T) {
	specs := []hwsim.NodeSpec{hwsim.NewCPUNode("cpu"), hwsim.NewGPUNode("gpu"), hwsim.NewGen3CPUNode("gen3")}
	for _, cores := range []int{8, 16, 32} {
		specs = append(specs, hwsim.NewHarvestedCPUNode(fmt.Sprintf("harvest-%d", cores), cores))
	}
	var models []model.Model
	for _, m := range model.Catalog() {
		if m.TPDegree == 1 {
			models = append(models, m)
		}
	}
	var sized, never int
	for _, cfg := range []Config{SLINFER(), Sllm(), SllmC(), SllmCS(), NEOPlus(16)} {
		c := New(sim.New(), specs, models, cfg)
		for _, m := range models {
			floor := m.WeightBytes() + hwsim.ActivationReserve
			req := engine.NewRequest(workload.Request{ID: 1, ModelName: m.Name, OutputLen: 1})
			for _, n := range c.Cluster.Nodes {
				share := c.Cfg.Placement.(*policy.BinPack).Share(&m, n.Spec.Class)
				for in := 1; in <= m.MaxContext; in++ {
					req.W.InputLen = in
					switch need := c.host.CreationBytes(n, share, req); {
					case need < 0:
						never++
					case need < floor:
						t.Fatalf("%s: %s on %s at %d input tokens needs %d B, below the %d B floor",
							cfg.Name, m.Name, n.Spec.Name, in, need, floor)
					default:
						sized++
					}
				}
			}
		}
	}
	if sized == 0 || never == 0 {
		t.Fatalf("%d sized and %d never-hostable answers: want both", sized, never)
	}
}

// loadProbe records each instance's cold-start landing time as the
// controller announces it: creation time plus its node's load time.
type loadProbe struct {
	recordingProbe
	c   *Controller
	eta map[int]sim.Time
}

func (p *loadProbe) InstanceCreated(inst *engine.Instance) {
	p.eta[inst.ID] = p.c.Sim.Now().Add(p.c.Cluster.Nodes[inst.NodeIdxs[0]].Spec.LoadTime(&inst.Model))
}

// refViews is the controller's view builder before the one projection, kept
// as the oracle: it copies every colocated request into fresh views,
// charging in-flight resizes and cold starts (from loadETA, while the
// instance is still loading) as blocking and candBlock on cand. candIdx is
// cand's view index, or -1.
func refViews(c *Controller, loadETA map[int]sim.Time, ex *cluster.Executor, cand *engine.Instance, candBlock sim.Duration) (views []compute.InstView, candIdx int) {
	candIdx = -1
	for _, other := range ex.Instances {
		if other == cand {
			candIdx = len(views)
		}
		v := compute.InstView{Profile: other.Profile}
		for _, r := range other.Running {
			v.Reqs = append(v.Reqs, compute.ReqView{
				Deadline: r.NextDeadline(), TPOT: r.Obj.TPOT,
				InputLen: r.W.InputLen, Ctx: r.ContextTokens(),
			})
		}
		for _, r := range other.WaitingPrefill {
			v.Reqs = append(v.Reqs, compute.ReqView{
				Deadline: r.NextDeadline(), TPOT: r.Obj.TPOT,
				InputLen: r.ContextTokens(), Ctx: r.ContextTokens(), NeedsPrefill: true,
			})
		}
		if other.ResizeInFlight {
			v.BlockedUntil = other.ResizeDoneAt
		}
		if eta, ok := loadETA[other.ID]; ok && other.State == engine.Loading && eta > v.BlockedUntil {
			v.BlockedUntil = eta
		}
		if other == cand && candBlock > 0 {
			if b := c.Sim.Now().Add(candBlock); b > v.BlockedUntil {
				v.BlockedUntil = b
			}
		}
		views = append(views, v)
	}
	return views, candIdx
}

// refValidate is the deep-copy Validate the oracle runs: newReq joins a
// copy of views[candIdx], and the copy is checked.
func refValidate(v *compute.Validator, now, busyUntil sim.Time, views []compute.InstView, candIdx int, newReq compute.ReqView, tpot sim.Duration) compute.Reason {
	if candIdx < 0 || candIdx >= len(views) {
		return v.Check(now, busyUntil, nil, tpot)
	}
	proj := make([]compute.InstView, len(views))
	for i, iv := range views {
		proj[i] = iv
		proj[i].Reqs = slices.Clone(iv.Reqs)
		if i == candIdx {
			proj[i].Reqs = append(proj[i].Reqs, newReq)
		}
	}
	return v.Check(now, busyUntil, proj, tpot)
}

// On the saturated shape, densely over its light start and then at 60, 90
// and 120 s, validate must decide every attempt (each live candidate with
// and without a planned stall, and a fresh instance, for a tight and a
// loose new request) with the same Reason as the former builder plus a
// deep-copy Validate, with the live case-3 pre-check rejecting exactly the
// attempts the reference rejects as AggregateDecode, and must move the
// counters identically.
func TestAggregatePreCheckMatchesValidate(t *testing.T) {
	models, tr := goldenShape(24, 360)
	s := sim.New()
	probe := &loadProbe{eta: map[int]sim.Time{}}
	cfg := SLINFER()
	cfg.Probe = probe
	c := New(s, hwsim.Testbed(1, 1), models, cfg)
	probe.c = c
	c.BeginStream(sim.Time(0).Add(tr.Duration), len(tr.Requests))
	m := models[0]
	v := c.Validator
	seen := map[compute.Reason]int{}
	check := func(ex *cluster.Executor, cand *engine.Instance, fresh *perfmodel.Profile, rv compute.ReqView, block sim.Duration) {
		t.Helper()
		views, candIdx := refViews(c, probe.eta, ex, cand, block)
		if cand == nil {
			candIdx = len(views)
			views = append(views, compute.InstView{Profile: fresh, BlockedUntil: s.Now().Add(block)})
		}
		ref := &compute.Validator{Overestimate: v.Overestimate, DecodeRounds: v.DecodeRounds, MaxSteps: v.MaxSteps}
		want := refValidate(ref, s.Now(), c.busyUntil(ex), views, candIdx, rv, rv.TPOT)
		seen[want]++

		pre := &compute.Validator{Overestimate: v.Overestimate}
		if got := pre.RejectsAggregate(ex.Instances, nil, rv.TPOT); got != (want == compute.AggregateDecode) {
			t.Fatalf("pre-check rejected=%v, reference=%v", got, want)
		}
		v0, r0 := v.Validations, v.Rejections
		if got := c.validate(ex, nil, cand, fresh, rv, rv.TPOT, block); got != want {
			t.Fatalf("validate=%v, reference=%v", got, want)
		}
		if dv, dr := v.Validations-v0, v.Rejections-r0; dv != ref.Validations || dr != ref.Rejections {
			t.Fatalf("controller counted %d/%d, reference %d/%d", dv, dr, ref.Validations, ref.Rejections)
		}
	}
	var times []sim.Time
	for at := sim.Time(0.5); at < 30; at += 0.5 {
		times = append(times, at) // loads and resizes in flight
	}
	next := 0
	for _, until := range append(times, 60, 90, 120) {
		for ; next < len(tr.Requests) && tr.Requests[next].Arrival <= until; next++ {
			s.RunUntil(tr.Requests[next].Arrival)
			c.Submit(tr.Requests[next])
		}
		s.RunUntil(until)
		req := engine.NewRequest(workload.Request{ID: -1, ModelName: m.Name,
			Arrival: s.Now(), InputLen: 1024, OutputLen: 200})
		for _, n := range c.Cluster.Nodes {
			ex := n.Shared
			prof := c.Registry.Get(ex.Node.Spec.Class, m, 1)
			for _, slack := range []sim.Duration{0, 4} {
				rv := compute.ViewRequest(req)
				rv.Deadline = rv.Deadline.Add(slack)
				for _, cand := range ex.Instances {
					for _, block := range []sim.Duration{0, 0.3, sim.Second} {
						check(ex, cand, nil, rv, block)
					}
				}
				// A fresh instance is blocked by its load and graced by it.
				rv.Deadline = rv.Deadline.Add(sim.Second)
				check(ex, nil, prof, rv, sim.Second)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("outcomes %v: want all four reasons", seen)
	}
}

// The three dry runs (scale-up onto a live candidate, scale-out onto a
// fresh instance, and a grower's whole admission check with its victim
// left out) must not allocate
// once warm, on an executor whose case-3 pre-check passes so that each one
// builds and simulates its projection. Nor must a scale-up that passes by
// the demand test, on the light 2+2 shape, where most passes take that
// early path.
func TestDryRunsDoNotAllocate(t *testing.T) {
	c, req := saturated(t, 60)
	m := c.lookup(req.W.ModelName).m
	tpot := req.Obj.TPOT
	rv := compute.ViewRequest(req)
	var ex *cluster.Executor
	for until := sim.Time(60); ex == nil && until <= 120; until += 5 {
		c.Sim.RunUntil(until)
		for _, n := range c.Cluster.Nodes {
			nodeEx := n.Shared
			pre := &compute.Validator{Overestimate: c.Validator.Overestimate}
			if len(nodeEx.Instances) >= 2 && !pre.RejectsAggregate(nodeEx.Instances, nil, tpot) {
				ex = nodeEx
				break
			}
		}
	}
	if ex == nil {
		t.Fatal("precondition: no executor with two instances passes the case-3 pre-check")
	}
	prof := c.Registry.Get(ex.Node.Spec.Class, m, 1)
	grower, victim := ex.Instances[0], ex.Instances[1]
	greq := engine.NewRequest(workload.Request{ID: -2, ModelName: grower.Model.Name,
		Arrival: c.Sim.Now(), InputLen: 1024, OutputLen: 200})
	for _, run := range []struct {
		name string
		fn   func()
	}{
		{"scale-up", func() { c.validate(ex, nil, grower, nil, rv, tpot, 0.3) }},
		{"scale-out", func() { c.validate(ex, nil, nil, prof, rv, tpot, sim.Second) }},
		{"grower", func() { c.admissible(greq, grower, victim) }},
	} {
		before := c.Validator.Validations
		run.fn()
		if c.Validator.Validations != before+1 {
			t.Fatalf("%s: counted %d validations, want 1", run.name, c.Validator.Validations-before)
		}
		if allocs := testing.AllocsPerRun(20, run.fn); allocs != 0 {
			t.Errorf("%s dry run allocates %.1f times once warm", run.name, allocs)
		}
	}

	models, tr := goldenShape(16, 0)
	lc := New(sim.New(), hwsim.Testbed(2, 2), models, SLINFER())
	lc.BeginStream(sim.Time(0).Add(tr.Duration), len(tr.Requests))
	for _, w := range tr.Requests {
		if w.Arrival > 120 {
			break
		}
		lc.Sim.RunUntil(w.Arrival)
		lc.Submit(w)
	}
	var early func() compute.Reason
	for _, n := range lc.Cluster.Nodes {
		lex := n.Shared
		for _, cand := range lex.Instances {
			if early != nil {
				break
			}
			lreq := engine.NewRequest(workload.Request{ID: -1, ModelName: cand.Model.Name,
				Arrival: lc.Sim.Now(), InputLen: 1024, OutputLen: 200})
			run := func() compute.Reason {
				return lc.validate(lex, nil, cand, nil, compute.ViewRequest(lreq), lreq.Obj.TPOT, 0)
			}
			if before := lc.Validator.EarlyAccepts; run() == compute.OK && lc.Validator.EarlyAccepts == before+1 {
				early = run
			}
		}
	}
	if early == nil {
		t.Fatal("precondition: no live candidate on the light shape passes by the demand test")
	}
	if allocs := testing.AllocsPerRun(20, func() { early() }); allocs != 0 {
		t.Errorf("early-accepted dry run allocates %.1f times once warm", allocs)
	}
}

// blockedGrower builds, on one GPU, a grower of models[0] with two queued
// long prompts, a victim of models[1] with one request, and a spare
// instance of models[1] the victim's request can be rehomed to, all
// active on one executor. The grower has a resize in flight that lands
// past the TTFT deadline of req, a short prompt for models[0]; its
// queued prompts, due far later, survive the stall. restore clears the
// resize.
func blockedGrower(t *testing.T) (c *Controller, grower, victim, spare *engine.Instance, req *engine.Request, restore func()) {
	t.Helper()
	models := model.Replicas(model.Llama2_7B, 2)
	s := sim.New()
	c = New(s, hwsim.Testbed(0, 1), models, SLINFER())
	id := int64(0)
	newReq := func(m model.Model, in int) *engine.Request {
		id++
		return engine.NewRequest(workload.Request{ID: id, ModelName: m.Name, Arrival: s.Now(), InputLen: in, OutputLen: 200})
	}
	var insts []*engine.Instance
	for _, m := range []model.Model{models[0], models[1], models[1]} {
		insts = append(insts, c.createInstance(c.lookup(m.Name), c.Cluster.Nodes, 1, newReq(m, 1024)))
	}
	// Past the cold start, before the idle instances' keep-alive expires.
	s.RunUntil(s.Now().Add(c.Cluster.Nodes[0].Spec.LoadTime(&models[0]) + 0.1))
	grower, victim, spare = insts[0], insts[1], insts[2]
	c.place(newReq(models[1], 1024), victim)
	c.place(newReq(models[1], 1024), spare)
	c.place(newReq(models[0], 4096), grower)
	c.place(newReq(models[0], 4096), grower)
	ex := c.instExec[grower.ID]
	for _, inst := range insts {
		if inst.State != engine.Active || c.instExec[inst.ID] != ex {
			t.Fatal("precondition: want three active instances on one executor")
		}
	}
	req = newReq(models[0], 256)
	grower.ResizeInFlight, grower.ResizeDoneAt = true, req.NextDeadline().Add(0.5)
	return c, grower, victim, spare, req, func() { grower.ResizeInFlight, grower.ResizeDoneAt = false, 0 }
}

// The §VIII-A grower dry run is the admission check itself, with the victim
// left out, so it charges the grower's resize in flight as the final Admit
// does: the stall past the new request's TTFT deadline rejects it, and
// without the stall the same dry run passes.
func TestGrowerDryRunChargesResizeInFlight(t *testing.T) {
	c, grower, victim, _, req, restore := blockedGrower(t)
	ex := c.instExec[grower.ID]
	rv := compute.ViewRequest(req)
	if got := c.validate(ex, victim, grower, nil, rv, req.Obj.TPOT, 0); got != compute.NewTTFT {
		t.Fatalf("grower validation without the victim = %v, want %v from the resize in flight", got, compute.NewTTFT)
	}
	if c.host.Admits(req, grower, victim) {
		t.Fatal("grower dry run admits through a resize that lands past the TTFT deadline")
	}
	restore()
	if !c.host.Admits(req, grower, victim) {
		t.Fatal("precondition: without the resize the grower dry run should admit")
	}
}

// A preemption whose grower the final Admit would reject tears nothing
// down: the victim's request could be rehomed, but the grower's stall fails
// the dry run first, so the victim stays active with its request and no
// preemption is counted.
func TestPreemptionKeepsVictimWhenGrowerIsBlocked(t *testing.T) {
	c, grower, victim, spare, req, restore := blockedGrower(t)
	defer restore()
	if c.Cfg.Preemption.TryPreempt(c.host, req, grower.Model) {
		t.Fatal("preemption admitted through the grower's stall")
	}
	for _, inst := range []*engine.Instance{victim, spare} {
		if inst.State != engine.Active || inst.TotalLoad() != 1 {
			t.Errorf("instance %d: state %v with %d requests, want active with 1", inst.ID, inst.State, inst.TotalLoad())
		}
	}
	if n := c.Collector.Preemptions; n != 0 {
		t.Errorf("%d preemptions counted, want 0", n)
	}
}

// countingPreemption counts the TryPreempt calls of the policy it wraps
// that report success.
type countingPreemption struct {
	policy.PreemptionPolicy
	succeeded int64
}

func (p *countingPreemption) TryPreempt(h policy.Host, req *engine.Request, m model.Model) bool {
	ok := p.PreemptionPolicy.TryPreempt(h, req, m)
	if ok {
		p.succeeded++
	}
	return ok
}

// Every preemption SLOPreserving executes admits its request: on the
// saturated shape (24 7B models at 6 rps on 1+1), over four trace seeds,
// the report's preemption count equals the number of TryPreempt calls that
// succeeded, so no victim is torn down for a grower that then rejects.
func TestExecutedPreemptionsAdmit(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 24)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	var executed int64
	for _, seed := range []uint64{1, 2, 3, 7} {
		tr := workload.Generate(workload.TraceConfig{ModelNames: names, Duration: 5 * sim.Minute,
			Seed: seed, Dataset: workload.AzureConv, AggregateRPM: 360})
		cfg := SLINFER()
		counting := &countingPreemption{PreemptionPolicy: policy.SLOPreserving{}}
		cfg.Preemption = counting
		rep := New(sim.New(), hwsim.Testbed(1, 1), models, cfg).Run(tr)
		if rep.Preemptions != counting.succeeded {
			t.Errorf("seed %d: %d preemptions executed, %d admitted their request", seed, rep.Preemptions, counting.succeeded)
		}
		executed += rep.Preemptions
	}
	if executed == 0 {
		t.Fatal("precondition: the saturated shape should preempt")
	}
}
