package core

import (
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// perfTrace is a small fixed-seed trace for the hot-path behavior tests.
func perfTrace(minutes sim.Duration) ([]model.Model, workload.Trace) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return models, workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: minutes * sim.Minute, Seed: 23,
		Dataset: workload.AzureConv,
	})
}

// TestRunDeterministicWithPooling proves event pooling does not perturb
// simulation semantics: two fresh controllers over the same trace produce
// byte-identical canonical reports. (The golden suite pins the same property
// against the pre-pooling seed outputs.)
func TestRunDeterministicWithPooling(t *testing.T) {
	models, tr := perfTrace(2)
	run := func() string {
		s := sim.New()
		c := New(s, hwsim.Testbed(2, 2), models, SLINFER())
		return c.Run(tr).Canonical()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-trace runs diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestLazyArrivalsKeepHeapSmall checks the lazy-injection contract: the
// event heap holds O(active events), not O(total requests). Eager
// pre-scheduling would start the run with len(tr.Requests) pending events.
func TestLazyArrivalsKeepHeapSmall(t *testing.T) {
	models, tr := perfTrace(4)
	if len(tr.Requests) < 100 {
		t.Fatalf("trace too small (%d requests) for a meaningful bound", len(tr.Requests))
	}
	s := sim.New()
	c := New(s, hwsim.Testbed(2, 2), models, SLINFER())
	maxPending := 0
	s.OnEvent = func(sim.Time) {
		if p := s.Pending(); p > maxPending {
			maxPending = p
		}
	}
	c.Run(tr)
	if maxPending >= len(tr.Requests)/2 {
		t.Fatalf("peak heap size %d vs %d requests: arrivals are not injected lazily",
			maxPending, len(tr.Requests))
	}
}

// TestSamplerStopsAfterRun is the sampler-shutdown fix: Run must cancel the
// pending tick, so continuing to drain the simulator afterwards fires no
// trailing ticks and records no further samples.
func TestSamplerStopsAfterRun(t *testing.T) {
	models, tr := perfTrace(1)
	s := sim.New()
	c := New(s, hwsim.Testbed(2, 2), models, SLINFER())
	c.Run(tr)
	if c.samplerEv != (sim.Event{}) {
		t.Fatal("sampler handle still armed after Run")
	}
	memSamples := func() int {
		n := len(c.Collector.KVUtil)
		for _, s := range c.Collector.MemUtil {
			n += len(s)
		}
		return n
	}
	before := memSamples()
	firedBefore := s.Fired()
	s.Run() // drain whatever remains (keep-alive reclaims, unload completions)
	if got := memSamples(); got != before {
		t.Fatalf("sampler recorded %d extra samples after Run returned", got-before)
	}
	// The drained queue must stay drained: no tick chain re-arming itself.
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain; a timer chain is re-arming", s.Pending())
	}
	_ = firedBefore
}

// TestSamplerStopsWhenWorkloadDrains checks the early-exit: once every
// request is terminal and all instances are gone, the tick chain stops
// re-arming instead of firing empty ticks until the trace end.
func TestSamplerStopsWhenWorkloadDrains(t *testing.T) {
	models, tr := perfTrace(1)
	run := func(window sim.Duration) uint64 {
		trc := tr
		trc.Duration = window
		s := sim.New()
		c := New(s, hwsim.Testbed(2, 2), models, SLINFER())
		c.Run(trc)
		return s.Fired()
	}
	// Same workload, two windows: all requests arrive in the first minute,
	// so everything past the drain point differs only by empty sampler
	// ticks. Without the early stop the hour-long window pays one tick per
	// sampler period (hundreds of events); with it, the counts must be
	// nearly identical.
	short := run(2 * sim.Minute)
	long := run(3600 * sim.Second)
	if long > short+100 {
		t.Fatalf("fired %d events over an hour window vs %d over two minutes: "+
			"sampler kept ticking after the workload drained", long, short)
	}
}
