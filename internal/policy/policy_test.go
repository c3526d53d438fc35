package policy

import (
	"maps"
	"slices"
	"testing"

	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/workload"
)

// fakeHost implements Host for the pure policy mechanics; methods the
// tested paths never touch panic so an unexpected call fails loudly.
type fakeHost struct {
	cl     *cluster.Cluster
	slots  map[int]float64
	wired  int
	armed  []sim.Duration
	shared *cluster.Executor

	// Preemption surface: live instances by model name, their executors,
	// and the validator dry runs are counted on.
	routes      map[string][]*engine.Instance
	execs       map[*engine.Instance]*cluster.Executor
	validator   *compute.Validator
	validateOns int

	// Scale-out surface: the memory a new instance needs on each node
	// (calls counted per node index) and the spawn attempts made.
	need      func(n *cluster.Node) int64
	needCalls map[int]int
	spawns    []int
	// profiles, when set, serves Profile; profileShares lists the share
	// each call asked for.
	profiles      *perfmodel.Registry
	profileShares []float64
	// sharedCalls and scaleOuts count SharedExecutor and ValidateScaleOut
	// calls per node index, when no single shared executor is set.
	sharedCalls map[int]int
	scaleOuts   map[int]int
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		cl:          cluster.New(sim.New(), hwsim.Testbed(1, 1)),
		slots:       map[int]float64{},
		sharedCalls: map[int]int{},
		scaleOuts:   map[int]int{},
	}
}

func (h *fakeHost) Now() sim.Time          { return 0 }
func (h *fakeHost) Nodes() []*cluster.Node { return h.cl.Nodes }
func (h *fakeHost) NodesOfKind(k hwsim.Kind) []*cluster.Node {
	return h.cl.NodesOfKind(k)
}
func (h *fakeHost) SlotUsed(idx int) float64 { return h.slots[idx] }
func (h *fakeHost) AddSlot(idx int, d float64) {
	h.slots[idx] += d
	if h.slots[idx] < 0 {
		h.slots[idx] = 0
	}
}
func (h *fakeHost) RouteCandidates(m model.Model) []*engine.Instance {
	return append([]*engine.Instance(nil), h.routes[m.Name]...)
}
func (h *fakeHost) ExecutorOf(inst *engine.Instance) *cluster.Executor { return h.execs[inst] }

// SharedExecutor returns the one shared executor when set. Otherwise, like
// the controller, it returns the node's executor, wiring one on first
// demand.
func (h *fakeHost) SharedExecutor(idx int) *cluster.Executor {
	if h.shared != nil {
		return h.shared
	}
	h.sharedCalls[idx]++
	n := h.cl.Nodes[idx]
	if len(n.Executors) == 0 {
		n.NewExecutor(1)
		h.wired++
	}
	return n.Executors[0]
}
func (h *fakeHost) WireExecutor(*cluster.Executor) { h.wired++ }
func (h *fakeHost) Model(name string) model.Model {
	return model.Model{Name: name}
}
func (h *fakeHost) Profile(class hwsim.DeviceClass, m model.Model, share float64) *perfmodel.Profile {
	if h.profiles == nil {
		panic("unused")
	}
	h.profileShares = append(h.profileShares, share)
	return h.profiles.Get(class, m, share)
}
func (h *fakeHost) FixedLimit(model.Model, hwsim.DeviceClass, float64) (int, bool) {
	return 0, false
}
func (h *fakeHost) Validator() *compute.Validator { return h.validator }
func (h *fakeHost) ValidateOn(*cluster.Executor, *engine.Instance, compute.ReqView, sim.Duration, sim.Duration) bool {
	h.validateOns++
	return true
}

// ValidateScaleOut rejects exactly on the case-3 aggregate check the
// controller runs first, and passes otherwise.
func (h *fakeHost) ValidateScaleOut(ex *cluster.Executor, _ *perfmodel.Profile, req *engine.Request, _ sim.Duration) bool {
	if h.validator == nil {
		panic("unused")
	}
	h.scaleOuts[ex.Node.Idx]++
	return !h.validator.RejectsAggregate(ex.Instances, req.Obj.TPOT)
}
func (h *fakeHost) CreationBytes(_ model.Model, n *cluster.Node, _ float64, _ *engine.Request) int64 {
	if h.need == nil {
		panic("unused")
	}
	h.needCalls[n.Idx]++
	return h.need(n)
}

// Spawn records the attempt and fails, so PlaceNew walks every candidate.
func (h *fakeHost) Spawn(_ model.Model, nodes []*cluster.Node, _ float64, _ *engine.Request) bool {
	if h.need == nil {
		panic("unused")
	}
	h.spawns = append(h.spawns, nodes[0].Idx)
	return false
}
func (h *fakeHost) Admit(*engine.Request, *engine.Instance) bool { panic("unused") }
func (h *fakeHost) Migrate(*engine.Request, *engine.Instance)    { panic("unused") }
func (h *fakeHost) Reclaim(*engine.Instance)                     { panic("unused") }
func (h *fakeHost) ArmReclaim(_ *engine.Instance, d sim.Duration) {
	h.armed = append(h.armed, d)
}
func (h *fakeHost) RecordPreemption() { panic("unused") }

func TestBinPackShare(t *testing.T) {
	p := &BinPack{Mode: Static, StaticShare: 0.5}
	if got := p.Share(model.Llama2_7B, hwsim.A100); got != 0.5 {
		t.Errorf("static GPU share = %v, want 0.5", got)
	}
	// §IX-A exception: 13B on CPU keeps the whole node even under static
	// partitioning.
	if got := p.Share(model.Llama2_13B, hwsim.XeonGen4); got != 1 {
		t.Errorf("static 13B CPU share = %v, want 1", got)
	}
	elastic := &BinPack{Mode: Elastic}
	if got := elastic.Share(model.Llama2_13B, hwsim.XeonGen4); got != 1 {
		t.Errorf("elastic share = %v, want 1", got)
	}
}

func TestBinPackHasSlot(t *testing.T) {
	h := newFakeHost()
	n := h.cl.Nodes[0]
	static := &BinPack{Mode: Static, StaticShare: 0.5}
	if !static.HasSlot(h, n, 0.5) {
		t.Error("empty node must have a half slot")
	}
	h.slots[n.Idx] = 0.75
	if static.HasSlot(h, n, 0.5) {
		t.Error("0.75 used + 0.5 share must not fit")
	}
	elastic := &BinPack{Mode: Elastic}
	if !elastic.HasSlot(h, n, 1) {
		t.Error("elastic sharing always has a slot (validation gates instead)")
	}
}

func TestBinPackCarveAndRelease(t *testing.T) {
	h := newFakeHost()
	n := h.cl.Nodes[0]
	p := &BinPack{Mode: Static, StaticShare: 0.5}
	ex := p.CarveExecutor(h, []*cluster.Node{n}, 0.5)
	if ex == nil || ex.Node != n {
		t.Fatal("carved executor not bound to its node")
	}
	if h.wired != 1 {
		t.Errorf("wired = %d, want 1 (dedicated executors must be wired)", h.wired)
	}
	if h.slots[n.Idx] != 0.5 {
		t.Errorf("slot charge = %v, want 0.5", h.slots[n.Idx])
	}
	inst := &engine.Instance{NodeIdxs: []int{n.Idx}, Share: 0.5}
	p.ReleaseExecutor(h, inst, ex)
	if h.slots[n.Idx] != 0 {
		t.Errorf("slot after release = %v, want 0", h.slots[n.Idx])
	}
	if len(n.Executors) != 0 {
		t.Error("dedicated executor must detach from its node on release")
	}
}

func TestBinPackElasticUsesSharedExecutor(t *testing.T) {
	h := newFakeHost()
	n := h.cl.Nodes[0]
	h.shared = n.NewExecutor(1)
	p := &BinPack{Mode: Elastic}
	if got := p.CarveExecutor(h, []*cluster.Node{n}, 1); got != h.shared {
		t.Fatal("elastic mode must reuse the node's shared executor")
	}
	if h.wired != 0 {
		t.Error("shared executors are wired at construction, not per instance")
	}
	inst := &engine.Instance{NodeIdxs: []int{n.Idx}, Share: 1}
	p.ReleaseExecutor(h, inst, h.shared)
	if len(n.Executors) != 1 {
		t.Error("shared executor must survive instance teardown")
	}
}

func TestKeepAlivePolicies(t *testing.T) {
	h := newFakeHost()
	inst := &engine.Instance{}
	FixedKeepAlive{Idle: 2.5}.Arm(h, inst)
	if len(h.armed) != 1 || h.armed[0] != 2.5 {
		t.Errorf("armed = %v, want [2.5]", h.armed)
	}
}

func TestNoPreemption(t *testing.T) {
	if (NoPreemption{}).TryPreempt(nil, nil, model.Model{}) {
		t.Error("NoPreemption must always fail")
	}
}

// TestPreemptionChecksRehomingFirst pins SLOPreserving's cheap-first order:
// a victim whose requests have no other live instance to move to fails the
// preemption before any shadow validation of the grower runs.
func TestPreemptionChecksRehomingFirst(t *testing.T) {
	h := newFakeHost()
	n := h.cl.NodesOfKind(hwsim.GPU)[0]
	ex := n.NewExecutor(1)
	reg := perfmodel.NewRegistry()
	ms := model.Replicas(model.Llama2_7B, 2)
	mkInst := func(id int, m model.Model, load int) *engine.Instance {
		inst := &engine.Instance{
			ID: id, Model: m, Class: n.Spec.Class, Share: 1, NodeIdxs: []int{n.Idx},
			Profile: reg.Get(n.Spec.Class, m, 1), State: engine.Active,
		}
		for i := 0; i < load; i++ {
			inst.Admit(engine.NewRequest(workload.Request{
				ID: int64(100*id + i), ModelName: m.Name, InputLen: 256, OutputLen: 64,
			}))
		}
		ex.AddInstance(inst)
		return inst
	}
	grower, victim := mkInst(1, ms[0], 4), mkInst(2, ms[1], 1)
	h.routes = map[string][]*engine.Instance{ms[0].Name: {grower}, ms[1].Name: {victim}}
	h.execs = map[*engine.Instance]*cluster.Executor{grower: ex, victim: ex}
	h.validator = &compute.Validator{Overestimate: 1.10, DecodeRounds: 2, MaxSteps: 600}

	req := engine.NewRequest(workload.Request{ID: 1, ModelName: ms[0].Name, InputLen: 256, OutputLen: 64})
	if (SLOPreserving{}).TryPreempt(h, req, ms[0]) {
		t.Fatal("preempted a victim whose request has nowhere to go")
	}
	if h.validator.Validations != 0 || h.validateOns != 0 {
		t.Fatalf("ran %d grower validations and %d rehoming validations, want none",
			h.validator.Validations, h.validateOns)
	}
}

// PlaceNew asks each node's creation size once, drops the nodes that
// cannot hold it before ordering, and tries the rest best-fit, CPU first.
func TestPlaceNewSizesEachNodeOnce(t *testing.T) {
	fits := weightFloor(model.Llama2_7B) + model.GiB
	for _, tc := range []struct {
		name   string
		need   func(n *cluster.Node) int64
		spawns []int
	}{
		{"both fit", func(*cluster.Node) int64 { return fits }, []int{0, 1}},
		{"gpu fits", func(n *cluster.Node) int64 {
			if n.Kind() == hwsim.CPU {
				return n.Mem.OptimisticFree() + 1
			}
			return fits
		}, []int{1}},
		{"cpu can never host", func(n *cluster.Node) int64 {
			if n.Kind() == hwsim.CPU {
				return -1
			}
			return fits
		}, []int{1}},
	} {
		h := newFakeHost()
		h.need, h.needCalls = tc.need, map[int]int{}
		p := &BinPack{Mode: Exclusive, UseCPU: true, CPUFirst: true}
		req := engine.NewRequest(workload.Request{ID: 1, ModelName: "m", InputLen: 512, OutputLen: 8})
		if p.PlaceNew(h, req, model.Llama2_7B) {
			t.Fatalf("%s: placed although every spawn fails", tc.name)
		}
		for _, n := range h.cl.Nodes {
			if got := h.needCalls[n.Idx]; got != 1 {
				t.Errorf("%s: CreationBytes called %d times for node %d, want 1", tc.name, got, n.Idx)
			}
		}
		if !slices.Equal(h.spawns, tc.spawns) {
			t.Errorf("%s: spawn attempts on nodes %v, want %v", tc.name, h.spawns, tc.spawns)
		}
	}
}

// PlaceNew works out the CPU SLO gate and the creation size once per node
// shape — class, memory, speed factor and share — while slots and free
// memory stay per node: five nodes of three shapes, one of them out of
// slots, cost two profile lookups and at most three sizings.
func TestPlaceNewSizesEachShapeOnce(t *testing.T) {
	h := newFakeHost()
	// cpu-slow differs from cpu-0 and cpu-1 in its speed factor alone.
	slow := hwsim.NewCPUNode("cpu-slow")
	slow.SpeedFactor = 0.5
	h.cl = cluster.New(sim.New(), []hwsim.NodeSpec{
		hwsim.NewCPUNode("cpu-0"), slow, hwsim.NewCPUNode("cpu-1"),
		hwsim.NewGPUNode("gpu-0"), hwsim.NewGPUNode("gpu-1"),
	})
	h.profiles = perfmodel.NewRegistry()
	m := model.Llama2_7B
	fits := weightFloor(m) + model.GiB
	h.need, h.needCalls = func(*cluster.Node) int64 { return fits }, map[int]int{}
	h.slots[3] = 1 // gpu-0 has no slot left
	p := &BinPack{Mode: Exclusive, UseCPU: true, CPUFirst: true, ShadowValidation: true}
	req := engine.NewRequest(workload.Request{ID: 1, ModelName: m.Name, InputLen: 512, OutputLen: 8})
	slowOK := h.profiles.Get(slow.Class, m, slow.SpeedFactor).CanMeet(req.W.InputLen, req.Obj)
	if p.PlaceNew(h, req, m) {
		t.Fatal("placed although every spawn fails")
	}
	if len(h.profileShares) != 2 {
		t.Errorf("Profile called %d times, want 2 (full-speed and derated CPU)", len(h.profileShares))
	}
	wantNeed := map[int]int{0: 1, 4: 1} // cpu-1 and gpu-0 reuse their shape's size
	wantSpawns := []int{0, 2, 4}
	if slowOK {
		wantNeed[1] = 1
		wantSpawns = []int{0, 1, 2, 4}
	}
	if !maps.Equal(h.needCalls, wantNeed) {
		t.Errorf("CreationBytes calls per node %v, want %v", h.needCalls, wantNeed)
	}
	if !slices.Equal(h.spawns, wantSpawns) {
		t.Errorf("spawn attempts on nodes %v, want %v", h.spawns, wantSpawns)
	}
}

// weightFloor is the least non-negative answer Host.CreationBytes may give
// for m: its weights and the activation reserve.
func weightFloor(m model.Model) int64 { return m.WeightBytes() + hwsim.ActivationReserve }

// PlaceNew drops a node on two facts before any per-request work: free
// memory below the model's weights, and, when scale-out is validated, a
// shared executor that already fails the case-3 aggregate check at the
// request's TPOT. Such a node never reaches the SLO gate's Profile,
// CreationBytes, SharedExecutor, ValidateScaleOut or Spawn, and the other
// nodes are tried in the order they would have been. Every node has its
// own speed factor, so the share of a Profile call names its node.
func TestPlaceNewDropsBeforePerRequestWork(t *testing.T) {
	m := model.Llama2_7B
	floor := weightFloor(m)
	node := func(spec hwsim.NodeSpec, mem int64, speed float64) hwsim.NodeSpec {
		spec.SpeedFactor = speed
		if mem > 0 {
			spec.MemBytes = mem
		}
		return spec
	}
	specs := []hwsim.NodeSpec{
		node(hwsim.NewCPUNode("cpu-small"), floor-1, 0.95), // no room for the weights
		node(hwsim.NewCPUNode("cpu-edge"), floor, 0.9),     // room for the weights alone
		node(hwsim.NewCPUNode("cpu-busy"), 0, 0.85),        // executor over budget
		node(hwsim.NewCPUNode("cpu-idle"), 0, 0.8),         // wired, empty executor
		node(hwsim.NewGPUNode("gpu-mid"), 0, 0.75),         // under this TPOT, over the default
		node(hwsim.NewGPUNode("gpu-fresh"), 0, 0.7),        // executor not wired yet
		node(hwsim.NewGPUNode("gpu-busy"), 0, 0.65),        // executor over budget
	}
	const small, cpuBusy, idle, mid, gpuBusy = 0, 2, 3, 4, 6
	dropped := []int{small, cpuBusy, gpuBusy}

	// Every loaded executor holds one or two instances with the same
	// decode estimate e; the validator's factor makes one of them 0.5 s of
	// a round, so a busy executor's round is 1 s. The request's TPOT of
	// 0.75 s lies between, and the default TPOT below both.
	reg := perfmodel.NewRegistry()
	load := func(ex *cluster.Executor, id int) sim.Duration {
		inst := &engine.Instance{ID: id, Model: m, Class: hwsim.A100, Share: 1,
			Profile: reg.Get(hwsim.A100, m, 1), Cache: kvcache.NewCache(m, 1), State: engine.Active}
		inst.Cache.SetCapacity(60 * model.GiB)
		for i := 0; i < 4; i++ {
			r := engine.NewRequest(workload.Request{ID: int64(10*id + i), ModelName: m.Name, InputLen: 512, OutputLen: 64})
			inst.Admit(r)
			inst.CompletePrefill(r, 0)
		}
		ex.AddInstance(inst)
		return inst.EstimateDecode()
	}
	obj := slo.Default(128)
	obj.TPOT = 0.75
	req := engine.NewRequestWith(workload.Request{ID: 1, ModelName: m.Name, InputLen: 128, OutputLen: 8}, obj)
	if obj.TPOT <= slo.DefaultTPOT {
		t.Fatal("precondition: the request's TPOT must be looser than the default")
	}

	for _, tc := range []struct {
		name      string
		validated bool
		spawns    []int
	}{
		{"validated", true, []int{1, 3, 4, 5}},
		{"unvalidated", false, []int{1, 2, 3, 4, 5, 6}},
	} {
		h := newFakeHost()
		h.cl = cluster.New(sim.New(), specs)
		h.profiles = reg
		h.need, h.needCalls = func(*cluster.Node) int64 { return floor }, map[int]int{}
		var e sim.Duration
		for idx, insts := range map[int]int{cpuBusy: 2, idle: 0, mid: 1, gpuBusy: 2} {
			ex := h.cl.Nodes[idx].NewExecutor(1)
			for i := 0; i < insts; i++ {
				e = load(ex, 100*idx+i)
			}
		}
		h.validator = &compute.Validator{Overestimate: float64(0.5 / e)}
		p := &BinPack{Mode: Elastic, UseCPU: true, CPUFirst: true, ShadowValidation: tc.validated}
		if p.PlaceNew(h, req, m) {
			t.Fatalf("%s: placed although every spawn fails", tc.name)
		}
		if !slices.Equal(h.spawns, tc.spawns) {
			t.Errorf("%s: spawn attempts on nodes %v, want %v", tc.name, h.spawns, tc.spawns)
		}
		if compute.FullRun {
			continue // the oracle re-runs every dropped node through the full order
		}
		drops := dropped[:1]
		if tc.validated {
			drops = dropped
		}
		for _, idx := range drops {
			speed := specs[idx].SpeedFactor
			if h.needCalls[idx] != 0 || h.sharedCalls[idx] != 0 || h.scaleOuts[idx] != 0 || slices.Contains(h.profileShares, speed) {
				t.Errorf("%s: dropped node %d reached per-request work: %d sizings, %d executor reads, %d validations, profile shares %v",
					tc.name, idx, h.needCalls[idx], h.sharedCalls[idx], h.scaleOuts[idx], h.profileShares)
			}
		}
		if tc.validated {
			want := map[int]int{1: 1, 3: 1, 4: 1, 5: 1}
			if !maps.Equal(h.sharedCalls, want) || !maps.Equal(h.scaleOuts, want) || h.wired != 2 {
				t.Errorf("%s: executor reads %v, validations %v, %d wired; want %v, %v and 2 (cpu-edge, gpu-fresh)",
					tc.name, h.sharedCalls, h.scaleOuts, h.wired, want, want)
			}
		}
	}
}

func TestSharingModeString(t *testing.T) {
	for m, want := range map[SharingMode]string{
		Exclusive: "exclusive", Static: "static", Elastic: "elastic",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %s, want %s", m, m.String(), want)
		}
	}
}
