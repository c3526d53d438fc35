package cluster

import (
	"slices"
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

func testInstance(id int, class hwsim.DeviceClass, share float64) *engine.Instance {
	m := model.Llama2_7B
	inst := &engine.Instance{
		ID: id, Model: m, Class: class, Share: share, NodeIdxs: []int{0},
		Profile: perfmodel.NewProfile(class, m, share, 64),
		Cache:   kvcache.NewCache(m, 1),
		State:   engine.Active,
	}
	inst.Cache.SetCapacity(32 * model.GiB)
	return inst
}

func TestExecutorRunsIterationsSerially(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1))
	node := c.Nodes[0]
	ex := node.NewExecutor(1)
	inst := testInstance(1, hwsim.A100, 1)
	ex.AddInstance(inst)

	r := engine.NewRequest(workload.Request{ID: 1, InputLen: 512, OutputLen: 3})
	inst.Admit(r)

	var iterations []engine.WorkKind
	ex.Pick = func(e *Executor) (engine.Work, bool) {
		w, _, ok := inst.NextWork(s.Now())
		return w, ok
	}
	ex.OnDone = func(e *Executor, w engine.Work, dur sim.Duration) {
		iterations = append(iterations, w.Kind)
		switch w.Kind {
		case engine.PrefillWork:
			inst.CompletePrefill(w.Req, s.Now())
		case engine.DecodeWork:
			inst.CompleteDecode(s.Now())
		}
	}
	ex.Kick()
	s.Run()

	// One prefill + two decodes (output 3: first token at prefill).
	if len(iterations) != 3 {
		t.Fatalf("iterations = %v, want prefill+2 decodes", iterations)
	}
	if iterations[0] != engine.PrefillWork {
		t.Fatal("first iteration must be the prefill")
	}
	if r.State != engine.Done || !r.Met() {
		t.Fatalf("state=%v met=%v", r.State, r.Met())
	}
	if ex.Iterations() != 3 {
		t.Fatalf("iters=%d", ex.Iterations())
	}
	if ex.Busy() {
		t.Fatal("executor should be idle at end")
	}
}

func TestExecutorNoWorkParks(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0))
	ex := c.Nodes[0].NewExecutor(1)
	ex.Pick = func(e *Executor) (engine.Work, bool) { return engine.Work{}, false }
	ex.Kick()
	if s.Pending() != 0 {
		t.Fatal("parked executor must not schedule events")
	}
}

func TestSpeedFactorDerating(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 0))
	node := c.Nodes[0]
	node.SpeedFactor = 0.5
	ex := node.NewExecutor(1)
	if ex.Share != 0.5 {
		t.Fatalf("Share = %v, want 0.5 after derating", ex.Share)
	}
}

// New and Reset are the only writers of a node's speed factor: 1 for a
// spec that leaves it unset, cores/32 for a harvested node. NewExecutor
// multiplies by it unguarded.
func TestSpeedFactorDefaults(t *testing.T) {
	specs := []hwsim.NodeSpec{
		hwsim.NewCPUNode("cpu"), hwsim.NewGPUNode("gpu"), hwsim.NewHarvestedCPUNode("harvest", 8),
	}
	want := []float64{1, 1, 8.0 / 32}
	check := func(stage string, c *Cluster) {
		t.Helper()
		for i, n := range c.Nodes {
			if n.SpeedFactor != want[i] {
				t.Errorf("%s: %s speed factor %v, want %v", stage, n.Spec.Name, n.SpeedFactor, want[i])
			}
			if ex := n.NewExecutor(1); ex.Share != want[i] {
				t.Errorf("%s: %s executor share %v, want %v", stage, n.Spec.Name, ex.Share, want[i])
			}
		}
	}
	c := New(sim.New(), specs)
	check("New", c)
	// Reset over the reversed specs puts the harvested shape on node 0,
	// whose factor was 1, and a full one on node 2, whose factor was not.
	slices.Reverse(specs)
	slices.Reverse(want)
	c.Reset(specs)
	check("Reset", c)
}

// Reset clears the compute bookkeeping a node carries: its carved share
// and its shared executor, which goes back to the spare shells with the
// node's other executors.
func TestResetClearsCarvedShareAndSharedExecutor(t *testing.T) {
	c := New(sim.New(), hwsim.Testbed(1, 1))
	for _, n := range c.Nodes {
		n.Shared = n.NewExecutor(1)
		n.Carved = 0.5
	}
	c.Reset(hwsim.Testbed(1, 1))
	for _, n := range c.Nodes {
		if n.Carved != 0 || n.Shared != nil || len(n.Executors) != 0 {
			t.Fatalf("%s after Reset: carved %v, shared %v, %d executors",
				n.Spec.Name, n.Carved, n.Shared, len(n.Executors))
		}
	}
}

func TestNoiseAppliedToDuration(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1))
	ex := c.Nodes[0].NewExecutor(1)
	inst := testInstance(1, hwsim.A100, 1)
	ex.AddInstance(inst)
	r := engine.NewRequest(workload.Request{ID: 1, InputLen: 1024, OutputLen: 1})
	inst.Admit(r)
	picked := false
	ex.Pick = func(e *Executor) (engine.Work, bool) {
		if picked {
			return engine.Work{}, false
		}
		picked = true
		return engine.Work{Inst: inst, Kind: engine.PrefillWork, Req: r}, true
	}
	var got sim.Duration
	ex.OnDone = func(e *Executor, w engine.Work, dur sim.Duration) { got = dur }
	ex.Noise = func() float64 { return 2.0 }
	ex.Kick()
	s.Run()
	want := hwsim.A100.PrefillTime(model.Llama2_7B, 1024, 1) * 2
	if got != want {
		t.Fatalf("dur = %v, want %v", got, want)
	}
}

func TestNodeOccupiedAndKinds(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(2, 3))
	var kinds [2]int
	for _, n := range c.Nodes {
		kinds[n.Kind()]++
	}
	if kinds[hwsim.CPU] != 2 || kinds[hwsim.GPU] != 3 {
		t.Fatal("kind partition wrong")
	}
	n := c.Nodes[0]
	if n.Occupied() {
		t.Fatal("fresh node must be unoccupied")
	}
	ex := n.NewExecutor(1)
	inst := testInstance(1, hwsim.XeonGen4, 1)
	ex.AddInstance(inst)
	if !n.Occupied() || n.InstanceCount() != 1 {
		t.Fatal("node with instance must be occupied")
	}
	ex.RemoveInstance(inst)
	n.ReservedBy = 7
	if !n.Occupied() {
		t.Fatal("TP-reserved node must be occupied")
	}
	n.ReservedBy = 0
	if n.Occupied() {
		t.Fatal("node should be free again")
	}
	if !n.RemoveExecutor(ex) || n.RemoveExecutor(ex) {
		t.Fatal("RemoveExecutor semantics")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// An executor removed from its node while an iteration is in flight still
// completes that iteration: its completion rides the simulator's lane and
// cannot be cancelled, and OnDone decides what happens next.
func TestRemovedExecutorCompletesInFlightIteration(t *testing.T) {
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1))
	node := c.Nodes[0]
	ex := node.NewExecutor(1)
	inst := testInstance(1, hwsim.A100, 1)
	ex.AddInstance(inst)
	r := engine.NewRequest(workload.Request{ID: 1, InputLen: 512, OutputLen: 4})
	inst.Admit(r)
	ex.Pick = func(e *Executor) (engine.Work, bool) {
		w, _, ok := inst.NextWork(s.Now())
		return w, ok
	}
	var done []engine.WorkKind
	ex.OnDone = func(e *Executor, w engine.Work, dur sim.Duration) {
		done = append(done, w.Kind)
		inst.CompletePrefill(w.Req, s.Now())
		e.Pick = nil // retired: park after this iteration
	}
	ex.Kick()
	if !ex.Busy() || s.Pending() != 1 {
		t.Fatalf("busy=%v pending=%d after Kick, want an iteration in flight", ex.Busy(), s.Pending())
	}
	if !node.RemoveExecutor(ex) {
		t.Fatal("RemoveExecutor failed")
	}
	s.Run()
	if len(done) != 1 || done[0] != engine.PrefillWork || ex.Iterations() != 1 || ex.Busy() {
		t.Fatalf("after removal: completions %v, iterations %d, busy %v; want the prefill to complete",
			done, ex.Iterations(), ex.Busy())
	}
	if r.Generated != 1 {
		t.Fatalf("generated %d tokens, want the prefill's 1", r.Generated)
	}
}
