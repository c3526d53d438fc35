package main

import (
	"slices"
	"testing"
	"time"

	"slinfer/internal/core"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// testSize is one trace holding about a twentieth of a full pass.
func testSize(w *spec) size {
	return size{traces: 1, minutes: min(w.full.minutes, w.full.minutes*float64(w.full.traces)/20)}
}

// plainReport replays a trace the way a user would, without the harness:
// a fresh controller from core.New, or fleet.Run with the fleet's own
// defaults and one worker.
func plainReport(w *spec, tr workload.Trace, seed uint64, models []model.Model) metrics.Report {
	sys := w.system()
	if w.shards == 0 {
		sys.Seed = seed
		return core.New(sim.New(), hwsim.Testbed(w.cpu, w.gpu), models, sys).Run(tr)
	}
	cfg := fleet.Config{
		System: sys, Shards: fleet.UniformShards(w.shards, w.cpu, w.gpu),
		Models: models, Routing: w.routing(), Workers: 1, Seed: seed,
	}
	if w.chaos {
		cfg.Faults = faults.Preset("rolling-restart", w.shards, tr.Duration, int64(seed))
		cfg.AttachInvariants = true
		cfg.Telemetry = telemetry.New(telemetry.Options{Spans: true, Series: true, FlightRing: telemetry.DefaultFlightRing})
	}
	return fleet.Run(cfg, tr).Report
}

// TestTransparency runs every workload through all three phases at test
// size. The harness fails the run unless the measure, trace and profile
// passes produce byte-identical canonical reports and the workload's
// regime checks hold; the test adds a fourth replay with no harness code
// at all and requires the same report.
func TestTransparency(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			h := newHarness(w, runConfig{
				seed: 1, seconds: 1e-9, size: testSize(w), setups: 1,
				measure: true, trace: true, workers: 2, profDir: t.TempDir(),
			})
			res := h.run()
			for _, p := range res.Problems {
				t.Error(p)
			}
			if want := int64(4); res.Attempted < want {
				t.Errorf("attempted %d replays, want at least %d", res.Attempted, want)
			}
			for i, tr := range h.in.traces {
				if got := canonicalHash(plainReport(w, tr, h.in.seeds[i], h.in.models)); got != h.refs[i] {
					t.Errorf("trace %d: plain replay hash %x, harness replays %x", i, got, h.refs[i])
				}
			}
			for _, d := range catalog {
				if _, ok := res.Metrics[d.name]; !ok && d.kind != diag {
					t.Errorf("metric %s not reported", d.name)
				}
			}
		})
	}
}

// TestDriftChangesReport shows the transparency check has teeth: spies
// over a composition that differs from core's derivation in one knob
// replay a different report.
func TestDriftChangesReport(t *testing.T) {
	w, _ := workloadByName("azure-steady")
	models := w.hosted()
	tr := w.gen(modelNames(models), 10*sim.Minute, 7)
	specs := hwsim.Testbed(w.cpu, w.gpu)
	cfg := w.system()
	want := canonicalHash(core.New(sim.New(), specs, models, cfg).Run(tr))

	tc := newSpanSet().tracer()
	same := decorate(cfg, tc)
	if got := canonicalHash(core.New(sim.New(), specs, models, same).Run(tr)); got != want {
		t.Fatalf("stock composition behind spies replayed %x, plain %x", got, want)
	}
	drift := decorate(cfg, tc)
	drift.Placement = placementSpy{&policy.BinPack{
		Mode: cfg.Sharing, StaticShare: 0.5, UseCPU: cfg.UseCPU,
		CPUFirst: !cfg.CPUFirst, ShadowValidation: cfg.ShadowValidation,
	}, tc}
	if got := canonicalHash(core.New(sim.New(), specs, models, drift).Run(tr)); got == want {
		t.Fatal("placement without CPU-first replayed the stock report; drift would go unseen")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tc := newSpanSet().tracer()
	tc.begin(spanPlaceNew)
	tc.begin(spanArm)
	time.Sleep(2 * time.Millisecond)
	tc.end(true)
	tc.end(false)
	a := tc.agg
	if a[spanPlaceNew].count != 1 || a[spanPlaceNew].ok != 0 || a[spanArm].ok != 1 {
		t.Fatalf("counts %+v %+v", a[spanPlaceNew], a[spanArm])
	}
	if got, want := a[spanPlaceNew].self, a[spanPlaceNew].totalNs-a[spanArm].totalNs; got != want {
		t.Fatalf("parent self %d ns, want total minus child = %d ns", got, want)
	}
	if tc.spans[0].parent != tc.spans[1].id {
		t.Fatalf("child span's parent %d, want %d", tc.spans[0].parent, tc.spans[1].id)
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("command %q paths %q", b.Command, b.Paths)
	}
	var names []string
	for _, wl := range b.Workloads {
		names = append(names, wl.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %q, harness %q", names, want)
	}
	var e2e, layers []metricDef
	for _, d := range catalog {
		switch d.kind {
		case endToEnd:
			e2e = append(e2e, d)
		case layer:
			layers = append(layers, d)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, catalog %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layers))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		if d := e2e[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalog %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g, want the largest bound %g", setupBound, maxBound)
	}
	for i, m := range b.PerLayer {
		if d := layers[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, catalog %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}
