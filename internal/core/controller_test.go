package core

import (
	"slices"
	"testing"

	"slinfer/internal/cluster"
	"slinfer/internal/consolidator"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// runTrace builds a controller over the spec'd testbed and replays a trace.
func runTrace(t *testing.T, specs []hwsim.NodeSpec, models []model.Model, cfg Config, tr workload.Trace) (*Controller, func() (total, met, dropped int64)) {
	t.Helper()
	s := sim.New()
	c := New(s, specs, models, cfg)
	report := c.Run(tr)
	if err := c.Cluster.CheckInvariants(); err != nil {
		t.Fatalf("memory invariant violated: %v", err)
	}
	return c, func() (int64, int64, int64) { return report.Total, report.Met, report.Dropped }
}

func singleRequestTrace(name string, in, out int) workload.Trace {
	return workload.Trace{
		Requests: []workload.Request{{ID: 1, ModelName: name, Arrival: 1, InputLen: in, OutputLen: out}},
		Duration: 30 * sim.Second,
		RPM:      map[string]float64{name: 2},
	}
}

func TestSingleRequestSLINFERServedOnCPU(t *testing.T) {
	m := model.Llama2_7B
	tr := singleRequestTrace(m.Name, 1024, 50)
	c, stats := runTrace(t, hwsim.Testbed(1, 1), []model.Model{m}, SLINFER(), tr)
	total, met, dropped := stats()
	if total != 1 || met != 1 || dropped != 0 {
		t.Fatalf("total=%d met=%d dropped=%d, want 1/1/0", total, met, dropped)
	}
	// CPU-first placement: the CPU node hosted it; it is reclaimed after
	// keep-alive so no live instances remain.
	if n := len(c.InstancesOf(m.Name)); n != 0 {
		t.Fatalf("instances remaining = %d, want 0 (keep-alive reclaim)", n)
	}
	if c.Collector.ColdStarts != 1 || c.Collector.Reclaims != 1 {
		t.Fatalf("coldStarts=%d reclaims=%d", c.Collector.ColdStarts, c.Collector.Reclaims)
	}
	rep := c.Collector.BuildReport("x", tr.Duration)
	if rep.AvgNodesUsed[hwsim.CPU] <= 0 {
		t.Fatal("CPU node should have been used")
	}
	if rep.AvgNodesUsed[hwsim.GPU] > 0 {
		t.Fatal("GPU should be untouched for a CPU-feasible 7B request")
	}
}

func TestSllmUsesOnlyGPUs(t *testing.T) {
	m := model.Llama2_7B
	tr := singleRequestTrace(m.Name, 1024, 50)
	c, stats := runTrace(t, hwsim.Testbed(2, 2), []model.Model{m}, Sllm(), tr)
	if _, met, _ := stats(); met != 1 {
		t.Fatal("request should be served")
	}
	rep := c.Collector.BuildReport("x", tr.Duration)
	if rep.AvgNodesUsed[hwsim.CPU] > 0 {
		t.Fatal("sllm must not use CPU nodes")
	}
	if rep.AvgNodesUsed[hwsim.GPU] <= 0 {
		t.Fatal("sllm must use a GPU")
	}
}

func TestLongInputFallsBackToGPU(t *testing.T) {
	// 32K-token LongBench-style input: CPU cannot meet the 8 s TTFT
	// (§IX-I1), so SLINFER must route to GPU despite CPU-first.
	m := model.Llama31_8B
	tr := singleRequestTrace(m.Name, 32768, 20)
	c, stats := runTrace(t, hwsim.Testbed(1, 1), []model.Model{m}, SLINFER(), tr)
	if _, met, _ := stats(); met != 1 {
		t.Fatalf("request should be served on GPU, met=%d", met)
	}
	rep := c.Collector.BuildReport("x", tr.Duration)
	if rep.AvgNodesUsed[hwsim.CPU] > 0 {
		t.Fatal("CPU must be excluded for 32K inputs")
	}
}

func TestColdStartGraceAppliesToTTFT(t *testing.T) {
	// Input 256 -> TTFT SLO 0.5 s, below the ~1 s cold start. Without the
	// grace window the request would always violate.
	m := model.Llama2_7B
	tr := singleRequestTrace(m.Name, 256, 20)
	_, stats := runTrace(t, hwsim.Testbed(1, 0), []model.Model{m}, SLINFER(), tr)
	if _, met, _ := stats(); met != 1 {
		t.Fatal("cold-start grace should save the request")
	}
}

func TestElasticSharingColocatesModels(t *testing.T) {
	// Four 3B models, one CPU node: SLINFER colocates them all; exclusive
	// sllm+c can hold only one at a time.
	models := model.Replicas(model.Llama32_3B, 4)
	var reqs []workload.Request
	for i, m := range models {
		reqs = append(reqs, workload.Request{
			ID: int64(i), ModelName: m.Name, Arrival: sim.Time(1 + float64(i)*0.2),
			InputLen: 512, OutputLen: 60,
		})
	}
	tr := workload.Trace{Requests: reqs, Duration: 60 * sim.Second, RPM: map[string]float64{}}
	c, stats := runTrace(t, hwsim.Testbed(1, 0), models, SLINFER(), tr)
	total, met, _ := stats()
	if total != 4 || met != 4 {
		t.Fatalf("total=%d met=%d, want 4/4", total, met)
	}
	// All four shared the single CPU node.
	if cs := c.Collector.ColdStarts; cs != 4 {
		t.Fatalf("cold starts = %d, want 4 (one per model)", cs)
	}
}

func TestExclusiveModeQueuesAndDrops(t *testing.T) {
	// Two models, one GPU, exclusive: the second request must queue behind
	// a long-running first and eventually drop past its TTFT.
	models := model.Replicas(model.Llama2_7B, 2)
	reqs := []workload.Request{
		{ID: 1, ModelName: models[0].Name, Arrival: 1, InputLen: 512, OutputLen: 2000},
		{ID: 2, ModelName: models[1].Name, Arrival: 2, InputLen: 512, OutputLen: 50},
	}
	tr := workload.Trace{Requests: reqs, Duration: 60 * sim.Second}
	c, stats := runTrace(t, hwsim.Testbed(0, 1), models, Sllm(), tr)
	_, _, dropped := stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (queue exceeds TTFT SLO)", dropped)
	}
	_ = c
}

func TestSLINFERSharesWhereExclusiveDrops(t *testing.T) {
	// Same scenario as above but elastic: both models colocate on the GPU.
	models := model.Replicas(model.Llama2_7B, 2)
	reqs := []workload.Request{
		{ID: 1, ModelName: models[0].Name, Arrival: 1, InputLen: 512, OutputLen: 2000},
		{ID: 2, ModelName: models[1].Name, Arrival: 2, InputLen: 512, OutputLen: 50},
	}
	tr := workload.Trace{Requests: reqs, Duration: 120 * sim.Second}
	cfg := SLINFER()
	cfg.UseCPU = false
	_, stats := runTrace(t, hwsim.Testbed(0, 1), models, cfg, tr)
	total, met, dropped := stats()
	if dropped != 0 || met != total {
		t.Fatalf("met=%d/%d dropped=%d, want all met", met, total, dropped)
	}
}

func TestStaticPartitioningTwoPerNode(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 3)
	reqs := []workload.Request{
		{ID: 1, ModelName: models[0].Name, Arrival: 1, InputLen: 512, OutputLen: 400},
		{ID: 2, ModelName: models[1].Name, Arrival: 1.5, InputLen: 512, OutputLen: 400},
		{ID: 3, ModelName: models[2].Name, Arrival: 2, InputLen: 512, OutputLen: 30},
	}
	tr := workload.Trace{Requests: reqs, Duration: 120 * sim.Second}
	c, stats := runTrace(t, hwsim.Testbed(0, 1), models, SllmCS(), tr)
	_, _, dropped := stats()
	// Two half-node partitions fit; the third model must queue (and drop).
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (only 2 half-node slots)", dropped)
	}
	_ = c
}

func TestDeterminism(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 5 * sim.Minute, Seed: 42,
	})
	run := func() (int64, int64) {
		s := sim.New()
		c := New(s, hwsim.Testbed(1, 1), models, SLINFER())
		rep := c.Run(tr)
		return rep.Met, rep.Dropped
	}
	m1, d1 := run()
	m2, d2 := run()
	if m1 != m2 || d1 != d2 {
		t.Fatalf("nondeterministic: met %d vs %d, dropped %d vs %d", m1, m2, d1, d2)
	}
}

func TestSmallTraceAllSystems(t *testing.T) {
	// A 16-model 5-minute trace on 2 CPU + 2 GPU: every system must serve
	// a sane fraction and keep ledgers consistent; SLINFER must not be the
	// worst.
	models := model.Replicas(model.Llama2_7B, 16)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 5 * sim.Minute, Seed: 7,
		Dataset: workload.AzureConv,
	})
	rates := map[string]float64{}
	for _, cfg := range []Config{Sllm(), SllmC(), SllmCS(), SLINFER()} {
		s := sim.New()
		c := New(s, hwsim.Testbed(2, 2), models, cfg)
		rep := c.Run(tr)
		if err := c.Cluster.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if rep.Total != int64(len(tr.Requests)) {
			t.Fatalf("%s: total=%d, want %d", cfg.Name, rep.Total, len(tr.Requests))
		}
		if rep.Met+rep.Dropped > rep.Total {
			t.Fatalf("%s: met+dropped exceeds total", cfg.Name)
		}
		if rep.SLORate < 0.2 {
			t.Fatalf("%s: SLO rate %.2f suspiciously low", cfg.Name, rep.SLORate)
		}
		rates[cfg.Name] = rep.SLORate
		t.Logf("%-9s SLO=%.3f met=%d/%d dropped=%d cpuNodes=%.2f gpuNodes=%.2f batch=%.1f",
			cfg.Name, rep.SLORate, rep.Met, rep.Total, rep.Dropped,
			rep.AvgNodesUsed[hwsim.CPU], rep.AvgNodesUsed[hwsim.GPU], rep.AvgBatch)
	}
	if rates["SLINFER"]+0.02 < rates["sllm"] {
		t.Fatalf("SLINFER (%.3f) should not lose to sllm (%.3f)", rates["SLINFER"], rates["sllm"])
	}
}

// routeCandidates sorts one buffer once: the preferred kind first, then
// load descending, then ID. On a mixed CPU/GPU model, with ties in load
// across and within kinds and instances it must skip (wrong role, not
// live), that is the order the former split-then-concatenate built: each
// kind filtered and sorted by SortRoute, then the preferred kind's list
// ahead of the other's.
func TestRouteCandidatesMatchSplitOrder(t *testing.T) {
	m := model.Llama2_7B
	c := New(sim.New(), hwsim.Testbed(2, 2), []model.Model{m}, SLINFER())
	hm := c.lookup(m.Name)
	for id, spec := range []struct {
		class hwsim.DeviceClass
		load  int
		state engine.InstState
		role  engine.Role
	}{
		{hwsim.A100, 3, engine.Active, engine.Mixed},
		{hwsim.XeonGen4, 1, engine.Active, engine.Mixed},
		{hwsim.XeonGen4, 3, engine.Loading, engine.Mixed},
		{hwsim.A100, 5, engine.Active, engine.Mixed},
		{hwsim.XeonGen4, 3, engine.Active, engine.Mixed},
		{hwsim.A100, 3, engine.Active, engine.Mixed},
		{hwsim.XeonGen4, 4, engine.Unloading, engine.Mixed},
		{hwsim.A100, 9, engine.Active, engine.DecodeOnly},
		{hwsim.XeonGen4, 0, engine.Active, engine.Mixed},
		{hwsim.A100, 0, engine.Loading, engine.Mixed},
	} {
		inst := &engine.Instance{ID: 10 - id, Model: m, Class: spec.class, State: spec.state, Role: spec.role}
		for r := 0; r < spec.load; r++ {
			inst.Admit(engine.NewRequest(workload.Request{ID: int64(100*id + r), ModelName: m.Name, InputLen: 64, OutputLen: 8}))
		}
		hm.insts = append(hm.insts, inst)
	}
	for _, cpuFirst := range []bool{true, false} {
		var cpu, gpu []*engine.Instance
		for _, inst := range hm.insts {
			if inst.Role != engine.Mixed || inst.State != engine.Active && inst.State != engine.Loading {
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
		want := append(slices.Clone(gpu), cpu...)
		if cpuFirst {
			want = append(slices.Clone(cpu), gpu...)
		}
		c.Cfg.CPUFirst = cpuFirst
		if got := c.routeCandidates(hm, engine.Mixed); !slices.Equal(got, want) {
			ids := func(insts []*engine.Instance) (out []int) {
				for _, inst := range insts {
					out = append(out, inst.ID)
				}
				return out
			}
			t.Errorf("CPUFirst=%v: route order %v, want %v", cpuFirst, ids(got), ids(want))
		}
	}
}

func TestPDDisaggregation(t *testing.T) {
	m := model.Llama2_7B
	cfg := SLINFER()
	cfg.PD = true
	tr := singleRequestTrace(m.Name, 1024, 50)
	_, stats := runTrace(t, hwsim.Testbed(1, 1), []model.Model{m}, cfg, tr)
	total, met, _ := stats()
	if total != 1 || met != 1 {
		t.Fatalf("PD request should complete and meet SLO, met=%d", met)
	}
}

// decodeProbe keeps every instance a run creates; the controller recycles
// instance shells only at reset, so they still hold their final role and
// class once Run returns.
type decodeProbe struct {
	recordingProbe
	insts []*engine.Instance
}

func (p *decodeProbe) InstanceCreated(inst *engine.Instance) { p.insts = append(p.insts, inst) }

// PD decode placement goes through the placement's Feasible, so the
// fixed-limit bar keeps decode instances off a class whose limit is 0: no
// request could ever join one there, since finishPDTransfer skips an
// instance at TotalLoad() >= limit. The shape is sllm+c with PD on and a
// limit of 0 on CPUs, 2 CPU + 2 GPU, 2x7B, a 2-minute Azure trace; the
// former decode filter skipped the bar and created 15 decode instances on
// the CPUs here.
func TestPDDecodeHonoursFixedLimitBar(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 2)
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: []string{models[0].Name, models[1].Name},
		Duration:   2 * sim.Minute,
		Dataset:    workload.AzureConv,
		Seed:       1,
		MaxInput:   models[0].MaxContext,
	})
	cfg := SllmC()
	cfg.PD = true
	cfg.FixedLimit = func(m model.Model, class hwsim.DeviceClass, share float64) int {
		if class.Kind() == hwsim.CPU {
			return 0
		}
		return PaperFixedLimits(m, class, share)
	}
	probe := &decodeProbe{}
	cfg.Probe = probe
	runTrace(t, hwsim.Testbed(2, 2), models, cfg, tr)
	var decode, onCPU int
	for _, inst := range probe.insts {
		if inst.Role != engine.DecodeOnly {
			continue
		}
		decode++
		if inst.Class.Kind() == hwsim.CPU {
			onCPU++
		}
	}
	if onCPU != 0 {
		t.Errorf("%d of %d decode instances on CPU nodes whose fixed limit is 0", onCPU, decode)
	}
	if decode == 0 {
		t.Error("no decode instance created: the trace never exercised PD decode placement")
	}
}

func TestTPModelSpansTwoGPUs(t *testing.T) {
	m := model.CodeLlama34B
	tr := singleRequestTrace(m.Name, 1024, 30)
	c, stats := runTrace(t, hwsim.Testbed(1, 2), []model.Model{m}, SLINFER(), tr)
	if _, met, _ := stats(); met != 1 {
		t.Fatalf("34B request should be served")
	}
	rep := c.Collector.BuildReport("x", tr.Duration)
	// Both GPU nodes were occupied.
	if rep.AvgNodesUsed[hwsim.GPU] <= 0 {
		t.Fatal("GPUs unused for 34B")
	}
	if rep.AvgNodesUsed[hwsim.CPU] > 0 {
		t.Fatal("34B must never land on CPU")
	}
}

func TestTPInsufficientGPUsQueues(t *testing.T) {
	m := model.CodeLlama34B
	tr := singleRequestTrace(m.Name, 1024, 30)
	_, stats := runTrace(t, hwsim.Testbed(1, 1), []model.Model{m}, SLINFER(), tr)
	if _, _, dropped := stats(); dropped != 1 {
		t.Fatal("TP=2 on a single GPU must queue and drop")
	}
}

func TestKeepAliveZeroReclaimsImmediately(t *testing.T) {
	m := model.Llama2_7B
	cfg := SLINFER()
	cfg.KeepAlive = 0.01
	tr := singleRequestTrace(m.Name, 512, 10)
	c, _ := runTrace(t, hwsim.Testbed(1, 0), []model.Model{m}, cfg, tr)
	if c.Collector.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", c.Collector.Reclaims)
	}
}

func TestBurstBatchesOnOneInstance(t *testing.T) {
	// 12 near-simultaneous requests to one model on one GPU: continuous
	// batching should hold them in one instance with a growing batch.
	m := model.Llama2_7B
	var reqs []workload.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(i), ModelName: m.Name, Arrival: sim.Time(1 + 0.05*float64(i)),
			InputLen: 512, OutputLen: 100,
		})
	}
	tr := workload.Trace{Requests: reqs, Duration: 2 * sim.Minute}
	cfg := SLINFER()
	cfg.UseCPU = false
	c, stats := runTrace(t, hwsim.Testbed(0, 1), []model.Model{m}, cfg, tr)
	total, met, _ := stats()
	if met != total {
		t.Fatalf("met=%d/%d", met, total)
	}
	if c.Collector.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1 (single shared instance)", c.Collector.ColdStarts)
	}
	rep := c.Collector.BuildReport("x", tr.Duration)
	if rep.AvgBatch < 4 {
		t.Fatalf("avg batch = %.1f, want meaningful batching", rep.AvgBatch)
	}
}

func TestDynamicMemoryScalesUpAndDown(t *testing.T) {
	m := model.Llama2_7B
	var reqs []workload.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(i), ModelName: m.Name, Arrival: sim.Time(1 + 0.1*float64(i)),
			InputLen: 2048, OutputLen: 150,
		})
	}
	tr := workload.Trace{Requests: reqs, Duration: 3 * sim.Minute}
	cfg := SLINFER()
	cfg.UseCPU = false
	c, _ := runTrace(t, hwsim.Testbed(0, 1), []model.Model{m}, cfg, tr)
	if c.Collector.KVResizes < 2 {
		t.Fatalf("KV resizes = %d, want scaling activity", c.Collector.KVResizes)
	}
	if c.Collector.ScalingBusy <= 0 {
		t.Fatal("scaling overhead should be recorded")
	}
}

func TestUnderestimationEvictsOrGrows(t *testing.T) {
	// Force underestimation: a tiny prior mean makes Eq. 2 underestimate
	// long outputs; the instance must grow or evict, never OOM.
	m := model.Llama2_7B
	var reqs []workload.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(i), ModelName: m.Name, Arrival: sim.Time(1 + 0.2*float64(i)),
			InputLen: 256, OutputLen: 3500, // far above the 256-token prior
		})
	}
	tr := workload.Trace{Requests: reqs, Duration: 10 * sim.Minute}
	cfg := SLINFER()
	cfg.UseCPU = false
	c, stats := runTrace(t, hwsim.Testbed(0, 1), []model.Model{m}, cfg, tr)
	total, met, _ := stats()
	if met < total-1 {
		t.Fatalf("met=%d/%d: §VII-D handling should save nearly all", met, total)
	}
	_ = c
}

func TestNEOPlusExtendsKV(t *testing.T) {
	m := model.Llama2_7B
	tr := singleRequestTrace(m.Name, 1024, 50)
	c, stats := runTrace(t, hwsim.Testbed(0, 1), []model.Model{m}, NEOPlus(16), tr)
	if _, met, _ := stats(); met != 1 {
		t.Fatal("NEO+ should serve the request")
	}
	_ = c
}

// scratchPlacement checks that a policy call nested inside a host action
// gets its own Scratch: CarveExecutor runs inside Spawn, which PlaceNew
// calls while it may still hold its own buffers.
type scratchPlacement struct {
	policy.PlacementPolicy
	outer   *policy.Scratch
	carves  int
	clashes int
}

func (p *scratchPlacement) PlaceNew(h policy.Host, req *engine.Request, m model.Model) bool {
	prev := p.outer
	p.outer = h.Scratch()
	ok := p.PlacementPolicy.PlaceNew(h, req, m)
	p.outer = prev
	return ok
}

func (p *scratchPlacement) CarveExecutor(h policy.Host, nodes []*cluster.Node, share float64) *cluster.Executor {
	p.carves++
	if h.Scratch() == p.outer {
		p.clashes++
	}
	return p.PlacementPolicy.CarveExecutor(h, nodes, share)
}

func TestHostScratchPerActionDepth(t *testing.T) {
	models, tr := perfTrace(1)
	cfg := SLINFER().withDefaults().composePolicies()
	p := &scratchPlacement{PlacementPolicy: cfg.Placement}
	cfg.Placement = p
	c, _ := runTrace(t, hwsim.Testbed(2, 2), models, cfg, tr)
	if p.carves == 0 {
		t.Fatal("precondition: no instance was spawned")
	}
	if p.clashes > 0 {
		t.Fatalf("%d of %d CarveExecutor calls inside Spawn got the Scratch of the PlaceNew that spawned", p.clashes, p.carves)
	}
	if c.scratchDepth != 0 {
		t.Fatalf("scratch depth %d after the run, want 0", c.scratchDepth)
	}
}
