package core

import (
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// TestResetRetiresInRegistrationOrder pins the reset retirement walk to
// model registration order. This path used to range the instances map, so
// the spare-pool refill order — and therefore which shell a recycled run's
// first instance reuses — was randomized per process.
func TestResetRetiresInRegistrationOrder(t *testing.T) {
	models := []model.Model{model.Llama2_7B, model.Llama32_3B, model.Llama2_13B}
	specs := hwsim.Testbed(2, 2)
	s := sim.New()
	c := New(s, specs, models, SLINFER())

	// Install instance shells out of registration order; reset must retire
	// them model-by-model in the order the models were registered. Recycle
	// zeroes most fields but keeps the Cache pointer, so distinct caches
	// identify the shells afterwards.
	caches := []*kvcache.Cache{new(kvcache.Cache), new(kvcache.Cache), new(kvcache.Cache)}
	for i, name := range []string{model.Llama2_13B.Name, model.Llama32_3B.Name, model.Llama2_7B.Name} {
		c.hosted[name].insts = []*engine.Instance{{ID: 100 + i, Cache: caches[i]}}
	}
	c.reset(specs, models, SLINFER())

	wantCaches := []*kvcache.Cache{caches[2], caches[1], caches[0]} // 7B first, then 3.2-3B, then 13B
	if len(c.spareInsts) != len(wantCaches) {
		t.Fatalf("spareInsts has %d shells, want %d", len(c.spareInsts), len(wantCaches))
	}
	for i, want := range wantCaches {
		if got := c.spareInsts[i].Cache; got != want {
			t.Fatalf("spareInsts[%d] is the wrong shell (retirement must follow registration order)", i)
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
