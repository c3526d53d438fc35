package core

import (
	"path/filepath"
	"strings"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/model"
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

// TestGoldenPresetReports pins the exact fixed-seed behavior of every system
// preset via metrics.Report.Canonical, on two shapes: a lightly loaded 2+2
// testbed that barely queues, and a 1+1 testbed at 6 rps far past
// saturation, where queued requests retry placement and preemption on
// every completion. The goldens were regenerated exactly once for the
// RNG.Derive purity and percentile-interpolation bugfixes; a diff here
// means a change in simulation semantics, not just structure.
// Regenerate deliberately with: go test ./internal/core -run Golden -update
func TestGoldenPresetReports(t *testing.T) {
	shapes := []struct {
		dir      string
		cpu, gpu int
		models   int
		rpm      float64
	}{
		{dir: "", cpu: 2, gpu: 2, models: 16},
		{dir: "saturated", cpu: 1, gpu: 1, models: 24, rpm: 360},
	}
	for _, sh := range shapes {
		models, tr := goldenShape(sh.models, sh.rpm)
		presets := []Config{SLINFER(), Sllm(), SllmC(), SllmCS(), NEOPlus(16)}
		for _, cfg := range presets {
			cfg := cfg
			name := strings.NewReplacer("+", "_", " ", "_").Replace(cfg.Name)
			t.Run(filepath.Join(sh.dir, cfg.Name), func(t *testing.T) {
				s := sim.New()
				c := New(s, hwsim.Testbed(sh.cpu, sh.gpu), models, cfg)
				got := c.Run(tr).Canonical()
				path := filepath.Join("testdata", "golden", sh.dir, name+".golden")
				testutil.GoldenString(t, path, got)
			})
		}
	}
}
