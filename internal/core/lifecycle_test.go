package core

import (
	"testing"
	"testing/quick"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/workload"
)

func TestKeepAliveCancelledByNewRequest(t *testing.T) {
	m := model.Llama2_7B
	cfg := SLINFER()
	cfg.KeepAlive = 5 * sim.Second
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0), []model.Model{m}, cfg)
	c.Submit(workload.Request{ID: 1, ModelName: m.Name, Arrival: 0, InputLen: 512, OutputLen: 5})
	s.RunUntil(6) // request done ~t=1.6; keep-alive would fire ~6.6
	// Second request within the keep-alive window: no new cold start.
	c.Submit(workload.Request{ID: 2, ModelName: m.Name, Arrival: 6, InputLen: 512, OutputLen: 5})
	s.RunUntil(60)
	if c.Collector.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1 (warm reuse)", c.Collector.ColdStarts)
	}
	if c.Collector.Met != 2 {
		t.Fatalf("met = %d, want 2", c.Collector.Met)
	}
	s.Run()
	if c.Collector.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want exactly 1 at the end", c.Collector.Reclaims)
	}
}

func TestZeroWatermarkThrashes(t *testing.T) {
	m := model.Llama2_7B
	mk := func(w float64) (int64, float64) {
		cfg := SLINFER()
		cfg.Watermark = kvcache.Watermark{W: w}
		cfg.UseCPU = false
		s := sim.New()
		c := New(s, hwsim.Testbed(0, 1), []model.Model{m}, cfg)
		// Overlapping requests push Eq.-2 demand above the Lmin floor, so
		// the cache must actually grow and shrink with load.
		var reqs []workload.Request
		for i := 0; i < 24; i++ {
			reqs = append(reqs, workload.Request{
				ID: int64(i), ModelName: m.Name, Arrival: sim.Time(1 + float64(i)*0.4),
				InputLen: 2048, OutputLen: 400,
			})
		}
		rep := c.Run(workload.Trace{Requests: reqs, Duration: 60 * sim.Second})
		_ = rep
		return c.Collector.KVResizes, c.Collector.ScalingBusy.Seconds()
	}
	resizes0, _ := mk(0)
	resizes25, _ := mk(0.25)
	if resizes0 <= resizes25 {
		t.Fatalf("w=0 resizes (%d) should exceed w=0.25 (%d)", resizes0, resizes25)
	}
}

func TestStatic13BOnCPUGetsFullNode(t *testing.T) {
	cfg := SllmCS()
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0), []model.Model{model.Llama2_13B}, cfg)
	c.Submit(workload.Request{ID: 1, ModelName: model.Llama2_13B.Name, Arrival: 0, InputLen: 512, OutputLen: 5})
	s.RunUntil(1)
	insts := c.InstancesOf(model.Llama2_13B.Name)
	if len(insts) != 1 {
		t.Fatalf("instances = %d", len(insts))
	}
	if insts[0].Share != 1 {
		t.Fatalf("13B CPU share = %v, want full node (§IX-A exception)", insts[0].Share)
	}
	s.Run()
}

func TestStatic7BGetsHalfNode(t *testing.T) {
	cfg := SllmCS()
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0), []model.Model{model.Llama2_7B}, cfg)
	c.Submit(workload.Request{ID: 1, ModelName: model.Llama2_7B.Name, Arrival: 0, InputLen: 512, OutputLen: 5})
	s.RunUntil(1)
	insts := c.InstancesOf(model.Llama2_7B.Name)
	if len(insts) != 1 || insts[0].Share != 0.5 {
		t.Fatalf("7B static share wrong: %+v", insts)
	}
	s.Run()
}

func TestHarvestedNodeServesSlowly(t *testing.T) {
	m := model.Llama2_7B
	specs := []hwsim.NodeSpec{hwsim.NewHarvestedCPUNode("h", 16)}
	s := sim.New()
	c := New(s, specs, []model.Model{m}, SLINFER())
	c.Submit(workload.Request{ID: 1, ModelName: m.Name, Arrival: 0, InputLen: 512, OutputLen: 10})
	s.Run()
	// 16/32 cores: prefill ~2x a full CPU node. TTFT SLO 1s + ~0.7s load
	// grace still holds for 512 tokens (0.28s x2 = 0.56s prefill).
	if c.Collector.Met != 1 {
		t.Fatalf("met = %d; harvested node should still serve short requests", c.Collector.Met)
	}
}

// TestHarvestedCPUGateUsesDeratedProfile holds scale-out's CPU SLO gate to
// the derated profile an instance on a harvested node would run on: a
// request whose TTFT only a full-speed profile meets must not cost a
// scale-out dry run on that node.
func TestHarvestedCPUGateUsesDeratedProfile(t *testing.T) {
	m := model.Llama2_7B
	spec := hwsim.NewHarvestedCPUNode("h", 8)
	s := sim.New()
	c := New(s, []hwsim.NodeSpec{spec}, []model.Model{m}, SLINFER())
	full := c.Registry.Get(spec.Class, m, 1)
	derated := c.Registry.Get(spec.Class, m, spec.SpeedFactor)
	inputLen := 0
	for l := 64; l <= m.MaxContext && inputLen == 0; l += 64 {
		if full.CanMeet(l, slo.Default(l)) && !derated.CanMeet(l, slo.Default(l)) {
			inputLen = l
		}
	}
	if inputLen == 0 {
		t.Fatal("no input length separates the full-speed and derated profiles")
	}
	c.Submit(workload.Request{ID: 1, ModelName: m.Name, Arrival: 0, InputLen: inputLen, OutputLen: 10})
	s.Run()
	if n := c.Validator.Validations; n != 0 {
		t.Fatalf("%d scale-out dry runs on a node whose derated profile cannot meet a %d-token TTFT", n, inputLen)
	}
	if c.Collector.ColdStarts != 0 {
		t.Fatalf("cold starts = %d; the request has no node that can meet its SLO", c.Collector.ColdStarts)
	}
}

func TestTPPartnerNodeReleasedOnReclaim(t *testing.T) {
	m := model.CodeLlama34B
	cfg := SLINFER()
	cfg.KeepAlive = 0.2
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 2), []model.Model{m}, cfg)
	c.Submit(workload.Request{ID: 1, ModelName: m.Name, Arrival: 0, InputLen: 512, OutputLen: 5})
	s.Run()
	for _, n := range c.Cluster.Nodes {
		if n.ReservedBy != 0 {
			t.Fatalf("node %d still TP-reserved after reclaim", n.Idx)
		}
		if n.Occupied() {
			t.Fatalf("node %d still occupied", n.Idx)
		}
	}
	if c.Collector.Met != 1 {
		t.Fatal("34B request should be served")
	}
}

func TestQueuedRequestServedWhenCapacityFrees(t *testing.T) {
	// One GPU, exclusive: the second model queues behind a short first
	// request and is served after reclamation, within its TTFT.
	models := model.Replicas(model.Llama2_7B, 2)
	cfg := Sllm()
	cfg.KeepAlive = 0.1
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1), models, cfg)
	c.Submit(workload.Request{ID: 1, ModelName: models[0].Name, Arrival: 0, InputLen: 512, OutputLen: 4})
	c.Submit(workload.Request{ID: 2, ModelName: models[1].Name, Arrival: 0.1, InputLen: 4096, OutputLen: 4})
	s.Run()
	if c.Collector.Met != 2 {
		t.Fatalf("met = %d, want 2 (queued request revived)", c.Collector.Met)
	}
	if c.Collector.ColdStarts != 2 {
		t.Fatalf("cold starts = %d", c.Collector.ColdStarts)
	}
}

// TestMaxBatchCap pins perfmodel.MaxBatch as the per-instance load cap:
// with neither shadow validation nor a fixed limit to stop admissions
// earlier, one GPU's first instance fills to exactly the cap.
func TestMaxBatchCap(t *testing.T) {
	m := model.Llama32_3B
	cfg := SLINFER()
	cfg.ShadowValidation = false
	cfg.UseCPU = false
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1), []model.Model{m}, cfg)
	n := perfmodel.MaxBatch + 44
	for i := 0; i < n; i++ {
		c.Submit(workload.Request{ID: int64(i), ModelName: m.Name, Arrival: 0, InputLen: 64, OutputLen: 400})
	}
	s.RunUntil(3)
	most := 0
	for _, inst := range c.InstancesOf(m.Name) {
		most = max(most, inst.TotalLoad())
	}
	if most != 256 {
		t.Fatalf("largest instance load %d, want the cap of 256", most)
	}
	s.Run()
}

func TestUnknownModelPanics(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0), nil, SLINFER())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown model")
		}
	}()
	c.Submit(workload.Request{ID: 1, ModelName: "nope", Arrival: 0, InputLen: 10, OutputLen: 1})
}

func TestInputClampedToContext(t *testing.T) {
	m := model.Llama2_7B // max context 4096
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1), []model.Model{m}, SLINFER())
	c.Submit(workload.Request{ID: 1, ModelName: m.Name, Arrival: 0, InputLen: 99999, OutputLen: 3})
	s.Run()
	if c.Collector.Completed != 1 {
		t.Fatal("oversized input should be clamped and served")
	}
}

func TestRegisterModelAfterConstruction(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0), nil, SLINFER())
	c.RegisterModel(model.Llama32_3B)
	c.Submit(workload.Request{ID: 1, ModelName: model.Llama32_3B.Name, Arrival: 0, InputLen: 256, OutputLen: 3})
	s.Run()
	if c.Collector.Met != 1 {
		t.Fatal("registered model should serve")
	}
}

func TestGen3NodeNeverUsedBySLINFER(t *testing.T) {
	m := model.Llama2_7B
	specs := []hwsim.NodeSpec{hwsim.NewGen3CPUNode("old"), hwsim.NewGPUNode("g")}
	s := sim.New()
	c := New(s, specs, []model.Model{m}, SLINFER())
	c.Submit(workload.Request{ID: 1, ModelName: m.Name, Arrival: 0, InputLen: 1024, OutputLen: 5})
	s.Run()
	if c.Collector.Met != 1 {
		t.Fatal("request should be served on the GPU")
	}
	if c.Cluster.Nodes[0].Mem.OptimisticUsed() != 0 {
		t.Fatal("gen-3 CPU (no AMX) must be excluded (§V)")
	}
}

func TestNEOPlusExtendsKVCapacityAndPenalizesDecode(t *testing.T) {
	// NEO+'s offloaded KV gives each exclusive GPU instance more cache
	// than the node's memory alone, at a decode penalty (§IX-I3).
	m := model.Llama2_13B
	capacityOf := func(cfg Config) (int64, float64) {
		s := sim.New()
		c := New(s, hwsim.Testbed(0, 1), []model.Model{m}, cfg)
		c.Submit(workload.Request{ID: 1, ModelName: m.Name, Arrival: 0, InputLen: 1024, OutputLen: 2000})
		s.RunUntil(10)
		insts := c.InstancesOf(m.Name)
		if len(insts) != 1 {
			t.Fatalf("instances = %d", len(insts))
		}
		return insts[0].Cache.CapacityBytes(), insts[0].DecodePenalty
	}
	sllmCap, sllmPen := capacityOf(Sllm())
	neoCap, neoPen := capacityOf(NEOPlus(32))
	if neoCap <= sllmCap {
		t.Fatalf("NEO+ cache %d should exceed sllm %d", neoCap, sllmCap)
	}
	if sllmPen != 0 || neoPen <= 0 {
		t.Fatalf("decode penalties wrong: sllm %v, neo %v", sllmPen, neoPen)
	}
	// The offloaded KV and the penalty scale with the harvested cores, to
	// 64 GB and 10% at all 32 cores of a host (Figure 29's sweep).
	for _, tc := range []struct {
		cores   int
		extraKV int64
		penalty float64
	}{{8, 16e9, 0.025}, {16, 32e9, 0.05}, {32, 64e9, 0.10}} {
		neoCap, neoPen := capacityOf(NEOPlus(tc.cores))
		if neoCap-sllmCap != tc.extraKV || neoPen != tc.penalty {
			t.Errorf("NEOPlus(%d): extra KV %d, penalty %v; want %d, %v",
				tc.cores, neoCap-sllmCap, neoPen, tc.extraKV, tc.penalty)
		}
	}
}

// Integration fuzz: random small workloads across all systems never break
// ledgers or conservation (arrived = completed + dropped + in-flight).
func TestRandomTracesConservationProperty(t *testing.T) {
	f := func(seed uint16, nModels, sysPick uint8) bool {
		n := int(nModels)%12 + 2
		models := model.Replicas(model.Llama32_3B, n)
		names := make([]string, n)
		for i, m := range models {
			names[i] = m.Name
		}
		tr := workload.Generate(workload.TraceConfig{
			ModelNames: names, Duration: 2 * sim.Minute, Seed: uint64(seed),
			AggregateRPM: 30,
		})
		cfgs := []Config{Sllm(), SllmC(), SllmCS(), SLINFER()}
		cfg := cfgs[int(sysPick)%len(cfgs)]
		s := sim.New()
		c := New(s, hwsim.Testbed(1, 1), models, cfg)
		rep := c.Run(tr)
		if err := c.Cluster.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		if rep.Total != int64(len(tr.Requests)) {
			return false
		}
		inflight := int64(c.PendingCount())
		for _, m := range models {
			for _, inst := range c.InstancesOf(m.Name) {
				inflight += int64(inst.TotalLoad())
			}
		}
		return rep.Completed+rep.Dropped+inflight == rep.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestResizeChargesRemainingFractionOnly pins the partial-resize accounting
// fix: an in-flight resize records its landing time when it is issued, so a
// shadow validation observing it mid-flight charges only the remaining
// fraction — never a fresh full-size transfer, which overstated the stall
// several-fold for resizes caught near completion.
func TestResizeChargesRemainingFractionOnly(t *testing.T) {
	m := model.Llama2_7B
	cfg := SLINFER()
	cfg.UseCPU = false
	cfg.Watermark = kvcache.Watermark{W: 0} // no headroom: every growth step resizes
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1), []model.Model{m}, cfg)
	var reqs []workload.Request
	for i := 0; i < 24; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(i), ModelName: m.Name, Arrival: sim.Time(1 + float64(i)*0.4),
			InputLen: 2048, OutputLen: 400,
		})
	}
	observed, partial := 0, 0
	var probe func(any)
	probe = func(any) {
		for _, inst := range c.InstancesOf(m.Name) {
			if !inst.ResizeInFlight {
				if inst.ResizeDoneAt != 0 {
					t.Fatalf("instance %d: stale ResizeDoneAt %v with no resize in flight", inst.ID, inst.ResizeDoneAt)
				}
				continue
			}
			observed++
			if inst.ResizeDoneAt < s.Now() {
				t.Fatalf("in-flight resize lands in the past: %v < now %v", inst.ResizeDoneAt, s.Now())
			}
			// The old code charged ScaleTime(0, KVTarget) from the observer's
			// clock; the recorded landing time must never exceed that.
			full := s.Now().Add(kvcache.ScaleTime(0, inst.KVTarget))
			if inst.ResizeDoneAt > full {
				t.Fatalf("remaining charge lands at %v, beyond a fresh full-size transfer at %v", inst.ResizeDoneAt, full)
			}
			if inst.ResizeDoneAt < full {
				partial++ // strictly cheaper than the old full-size charge
			}
		}
		if s.Now() < 40 {
			s.AfterFunc(0.01, probe, nil)
		}
	}
	s.AfterFunc(1, probe, nil)
	c.Run(workload.Trace{Requests: reqs, Duration: 60 * sim.Second})
	if observed == 0 {
		t.Fatal("probe never caught a resize in flight — cadence too coarse for this workload")
	}
	if partial == 0 {
		t.Fatal("every observation equaled a full-size charge: landing time is not anchored at issue")
	}
}

// TestDrainGraceBoundsRun pins DrainGrace: a run stops ten minutes past
// its trace's end even with a request still decoding.
func TestDrainGraceBoundsRun(t *testing.T) {
	if DrainGrace != 10*sim.Minute {
		t.Fatalf("DrainGrace = %v, want 10 minutes", DrainGrace)
	}
	m := model.Llama2_7B
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0), []model.Model{m}, SLINFER())
	// A pathological request that decodes far longer than the grace.
	tr := workload.Trace{
		Requests: []workload.Request{{ID: 1, ModelName: m.Name, Arrival: 1, InputLen: 256, OutputLen: 100000}},
		Duration: 10 * sim.Second,
	}
	rep := c.Run(tr)
	if end := sim.Time(0).Add(tr.Duration + DrainGrace); s.Now() > end {
		t.Fatalf("run did not stop at drain grace: now=%v, want <= %v", s.Now(), end)
	}
	if rep.Completed != 0 {
		t.Fatal("request cannot have completed")
	}
}

func TestEvictionUnderMemorySqueeze(t *testing.T) {
	// A tiny GPU cannot grow its cache for long outputs: §VII-D must evict
	// and reschedule (or the request eventually violates) without OOM.
	m := model.Llama2_7B
	spec := hwsim.NewGPUNode("tiny")
	spec.MemBytes = 20e9 // weights 13.4 + act 2 leaves ~4.6 GB for KV
	cfg := SLINFER()
	cfg.UseCPU = false
	s := sim.New()
	c := New(s, []hwsim.NodeSpec{spec, hwsim.NewGPUNode("big")}, []model.Model{m}, cfg)
	var reqs []workload.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(i), ModelName: m.Name, Arrival: sim.Time(1 + 0.05*float64(i)),
			InputLen: 600, OutputLen: 3000,
		})
	}
	c.Run(workload.Trace{Requests: reqs, Duration: 5 * sim.Minute})
	if err := c.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Collector.Completed == 0 {
		t.Fatal("nothing completed under memory squeeze")
	}
}

// TestAdmitDecidesMemoryBeforeValidating pins admission's cheap-first
// order: a candidate whose node cannot fit the request's KV growth is
// rejected by the memory check alone, without paying for a shadow
// validation, and leaves no resize behind.
func TestAdmitDecidesMemoryBeforeValidating(t *testing.T) {
	m := model.Llama2_7B
	// Room for the weights and a 3 GiB cache: the first cache (the 2 GiB
	// Lmin floor plus the 25% watermark) fits, two long prompts do not.
	spec := hwsim.NewGPUNode("tight")
	spec.MemBytes = m.WeightBytes() + hwsim.ActivationReserve + 3*model.GiB
	s := sim.New()
	c := New(s, []hwsim.NodeSpec{spec}, []model.Model{m}, SLINFER())
	mkReq := func(id int64, in int) *engine.Request {
		return engine.NewRequest(workload.Request{ID: id, ModelName: m.Name, Arrival: s.Now(), InputLen: in, OutputLen: 1000})
	}
	first := mkReq(1, 256)
	inst := c.createInstance(m, c.Cluster.Nodes, 1, first)
	c.place(first, inst)
	s.RunUntil(s.Now().Add(spec.LoadTime(&m) + sim.Second))
	if inst.State != engine.Active || inst.ResizeInFlight {
		t.Fatalf("precondition: want a loaded instance with no resize in flight, got state %v", inst.State)
	}

	// Control: a request that fits the current cache reaches shadow
	// validation and is admitted.
	before := c.Validator.Validations
	if !c.admit(mkReq(2, 3000), inst) {
		t.Fatal("a request that fits should be admitted")
	}
	if got := c.Validator.Validations - before; got != 1 {
		t.Fatalf("admitted request ran %d shadow validations, want 1", got)
	}

	before = c.Validator.Validations
	if c.admit(mkReq(3, 3500), inst) {
		t.Fatal("admitted a request whose KV growth cannot fit the node")
	}
	if got := c.Validator.Validations - before; got != 0 {
		t.Fatalf("memory rejection ran %d shadow validations, want 0", got)
	}
	if inst.ResizeInFlight || inst.TotalLoad() != 2 {
		t.Fatal("a rejected admission left state behind")
	}
}
