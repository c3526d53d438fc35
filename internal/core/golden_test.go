package core

import (
	"path/filepath"
	"strings"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/testutil"
	"slinfer/internal/workload"
)

// goldenShape generates the fixed-seed 5-minute AzureConv trace over n 7B
// replicas; rpm 0 selects the paper's per-model scaling.
func goldenShape(n int, rpm float64) ([]model.Model, workload.Trace) {
	models := model.Replicas(model.Llama2_7B, n)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 5 * sim.Minute, Seed: 7,
		Dataset: workload.AzureConv, AggregateRPM: rpm,
	})
	return models, tr
}

// goldenChat generates the fixed-seed 5-minute multi-turn chat trace over n
// 7B replicas that the prefix goldens replay.
func goldenChat(n int) ([]model.Model, workload.Trace) {
	models := model.Replicas(model.Llama2_7B, n)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateChat(workload.ChatConfig{
		ModelNames: names, Duration: 5 * sim.Minute, Seed: 7, Sessions: 64,
	})
	return models, tr
}

// goldenPrefixTiers sizes the prefix store like the benchmark's chat
// workload: a 512 MiB GPU tier small enough that sessions spill to the
// 8 GiB host tier, promote back on later turns, and get evicted.
var goldenPrefixTiers = kvcache.TieredConfig{Enabled: true, GPUBytes: 512 << 20, CPUBytes: 8 << 30}

// TestGoldenPresetReports pins the exact fixed-seed behavior of every system
// preset via metrics.Report.Canonical, on two shapes: a lightly loaded 2+2
// testbed that barely queues, and a 1+1 testbed at 6 rps far past
// saturation, where queued requests retry placement and preemption on
// every completion. A third shape replays a multi-turn chat trace through
// SLINFER with the spilling tiered prefix store, pinning every tier
// decision that reaches a report (hit bytes, promotion and spill costs). The goldens were regenerated exactly once for the
// RNG.Derive purity and percentile-interpolation bugfixes; a diff here
// means a change in simulation semantics, not just structure.
// Regenerate deliberately with: go test ./internal/core -run Golden -update
func TestGoldenPresetReports(t *testing.T) {
	presets := []Config{SLINFER(), Sllm(), SllmC(), SllmCS(), NEOPlus(16)}
	prefix := SLINFER()
	prefix.PrefixCache = goldenPrefixTiers
	shapes := []struct {
		dir      string
		cpu, gpu int
		gen      func() ([]model.Model, workload.Trace)
		presets  []Config
	}{
		{dir: "", cpu: 2, gpu: 2, gen: func() ([]model.Model, workload.Trace) { return goldenShape(16, 0) }, presets: presets},
		{dir: "saturated", cpu: 1, gpu: 1, gen: func() ([]model.Model, workload.Trace) { return goldenShape(24, 360) }, presets: presets},
		{dir: "prefix", cpu: 2, gpu: 2, gen: func() ([]model.Model, workload.Trace) { return goldenChat(8) }, presets: []Config{prefix}},
	}
	for _, sh := range shapes {
		models, tr := sh.gen()
		for _, cfg := range sh.presets {
			cfg := cfg
			name := strings.NewReplacer("+", "_", " ", "_").Replace(cfg.Name)
			t.Run(filepath.Join(sh.dir, cfg.Name), func(t *testing.T) {
				s := sim.New()
				c := New(s, hwsim.Testbed(sh.cpu, sh.gpu), models, cfg)
				got := c.Run(tr).Canonical()
				if cfg.PrefixCache.Enabled {
					if l := c.PrefixStore().Ledger; l.Spills == 0 || l.Evictions == 0 || l.CPUHitBytes == 0 {
						t.Fatalf("prefix golden misses a tier path (spill, evict, promote): %+v", l)
					}
				}
				path := filepath.Join("testdata", "golden", sh.dir, name+".golden")
				testutil.GoldenString(t, path, got)
			})
		}
	}
}

// TestGoldenElasticPlacementWiresOnDemand pins a custom elastic,
// shadow-validated BinPack on sllm+c, whose Exclusive sharing wires no
// shared executor at construction: each node's executor is wired when
// scale-out first validates on it, and the wiring order names every
// executor's noise stream. Without CPU-first, best fit tries the (smaller)
// GPUs before the CPUs listed ahead of them, so that order is not the node
// order. The goldens were recorded before PlaceNew dropped nodes on its
// prefilter, so a prefilter that wired an executor early (or dropped a
// node the full order would try) diverges here.
func TestGoldenElasticPlacementWiresOnDemand(t *testing.T) {
	cfg := SllmC()
	cfg.Name = "sllm+c/elastic-placement"
	cfg.Placement = &policy.BinPack{Mode: policy.Elastic, UseCPU: true, ShadowValidation: true}
	for _, sh := range []struct {
		name         string
		cpu, gpu     int
		replicas     int
		aggregateRPM float64
	}{
		{name: "light", cpu: 2, gpu: 2, replicas: 16},
		{name: "saturated", cpu: 1, gpu: 1, replicas: 24, aggregateRPM: 360},
	} {
		models, tr := goldenShape(sh.replicas, sh.aggregateRPM)
		t.Run(sh.name, func(t *testing.T) {
			c := New(sim.New(), hwsim.Testbed(sh.cpu, sh.gpu), models, cfg)
			if len(c.elasticExecs) != 0 {
				t.Fatal("precondition: Exclusive sharing must wire no executor at construction")
			}
			got := c.Run(tr).Canonical()
			path := filepath.Join("testdata", "golden", "elastic_placement", sh.name+".golden")
			testutil.GoldenString(t, path, got)
		})
	}
}
