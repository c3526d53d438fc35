package core

import (
	"reflect"
	"slices"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// TestResetRecyclesInCreationOrder pins the arena's request and instance
// recycling: reset strips every request Submit handed out and every
// instance the run built — including those reclaimed mid-run — and the
// next run takes the same shells back in creation order, so which shell a
// recycled run reuses depends on nothing but the previous run. Model
// records still retire in registration order.
func TestResetRecyclesInCreationOrder(t *testing.T) {
	models, tr := perfTrace(2)
	specs := hwsim.Testbed(2, 2)
	c := New(sim.New(), specs, models, SLINFER())
	c.Run(tr)
	reqs := slices.Clone(c.reqPool[:c.reqsUsed])
	insts := slices.Clone(c.instPool[:c.instsUsed])
	if len(reqs) != len(tr.Requests) {
		t.Fatalf("run handed out %d requests, want %d", len(reqs), len(tr.Requests))
	}
	if c.InstanceCount() >= len(insts) {
		t.Fatalf("precondition: %d instances built, %d still live; the run must reclaim some mid-run", len(insts), c.InstanceCount())
	}

	c.Sim.Reset()
	c.reset(specs, models, SLINFER())
	for i, req := range reqs {
		if !reflect.ValueOf(*req).IsZero() {
			t.Fatalf("request %d still holds state after reset: %+v", i, *req)
		}
	}
	for i, inst := range insts {
		if inst.ID != 0 || inst.Model.Name != "" || len(inst.NodeIdxs) != 0 || inst.TotalLoad() != 0 {
			t.Fatalf("instance %d still holds state after reset", i)
		}
	}
	for i, want := range insts {
		if got := c.takeInstance(); got != want {
			t.Fatalf("takeInstance #%d returned a shell out of creation order", i)
		}
	}
	for i, want := range reqs {
		if got := c.newRequest(tr.Requests[i]); got != want {
			t.Fatalf("newRequest #%d returned a request out of creation order", i)
		}
	}
	if len(c.order) != len(models) {
		t.Fatalf("order has %d entries after reset, want %d", len(c.order), len(models))
	}
	for i, m := range models {
		if c.order[i].m.Name != m.Name {
			t.Fatalf("order[%d] = %q, want %q", i, c.order[i].m.Name, m.Name)
		}
	}
}

// TestSamplerSequenceDeterministic pins the sampler tick's instance walk:
// with several models active at each tick, the raw KV-utilization sample
// sequence must be identical across independent runs. When samplerTick
// ranged the instances map, the per-tick sample order was shuffled
// per-iteration and this comparison was flaky.
func TestSamplerSequenceDeterministic(t *testing.T) {
	models := []model.Model{model.Llama2_7B, model.Llama32_3B}
	tr := workload.Trace{
		Requests: []workload.Request{
			{ID: 1, ModelName: model.Llama2_7B.Name, Arrival: 1, InputLen: 512, OutputLen: 400},
			{ID: 2, ModelName: model.Llama32_3B.Name, Arrival: 1, InputLen: 512, OutputLen: 400},
			{ID: 3, ModelName: model.Llama2_7B.Name, Arrival: 2, InputLen: 256, OutputLen: 300},
			{ID: 4, ModelName: model.Llama32_3B.Name, Arrival: 2, InputLen: 256, OutputLen: 300},
		},
		Duration: 60 * sim.Second,
		RPM: map[string]float64{
			model.Llama2_7B.Name:  2,
			model.Llama32_3B.Name: 2,
		},
	}
	run := func() []float64 {
		s := sim.New()
		c := New(s, hwsim.Testbed(2, 2), models, SLINFER())
		c.Run(tr)
		// KVUtil keeps raw append order (it feeds a mean, not a CDF).
		return append([]float64(nil), c.Collector.KVUtil...)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no KV utilization samples recorded; the workload must keep instances active across ticks")
	}
	if len(a) != len(b) {
		t.Fatalf("sample counts differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical runs: %v vs %v (sampler walk must be deterministic)", i, a[i], b[i])
		}
	}
}
