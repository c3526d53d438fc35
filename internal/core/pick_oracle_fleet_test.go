package core_test

import (
	"testing"

	"slinfer/internal/baseline"
	"slinfer/internal/core"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// TestPickMatchesReferenceRollingRestart runs the pick oracle on the fleet
// rolling-restart golden shape, on SLINFER and on its PD variant: every
// shard is drained, crashed, rebuilt and recovered in turn, and the
// re-driven requests land on the rebuilt controllers.
func TestPickMatchesReferenceRollingRestart(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 3 * sim.Minute, Dataset: workload.AzureConv, Seed: 6,
	})
	for _, sys := range []core.Config{core.SLINFER(), baseline.Disaggregated(core.SLINFER())} {
		t.Run(sys.Name, func(t *testing.T) {
			var o core.PickOracle
			res := fleet.Run(fleet.Config{
				System:           core.WatchPicks(sys, &o),
				Shards:           fleet.UniformShards(4, 2, 2),
				Models:           models,
				Workers:          2,
				Seed:             7,
				AttachInvariants: true,
				Faults:           faults.Preset("rolling-restart", 4, tr.Duration, 6),
			}, tr)
			if !res.Ok() {
				t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
			}
			if res.Redriven == 0 {
				t.Fatal("rolling restart re-drove nothing")
			}
			o.Check(t)
		})
	}
}
