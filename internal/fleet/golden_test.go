package fleet

import (
	"path/filepath"
	"testing"

	"slinfer/internal/baseline"
	"slinfer/internal/core"
	"slinfer/internal/faults"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/testutil"
	"slinfer/internal/workload"
)

// TestGoldenKVAffinityFleet pins a 4-shard KV-affinity fleet replaying the
// same multi-turn chat trace as the core prefix golden, each shard running
// SLINFER with a spilling tiered prefix store. Routing scores on every
// shard's AppendResidency snapshot, so any drift in tier residency shows
// up as a different request-to-shard split here.
// Regenerate deliberately with: go test ./internal/fleet -run Golden -update
func TestGoldenKVAffinityFleet(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateChat(workload.ChatConfig{
		ModelNames: names, Duration: 5 * sim.Minute, Seed: 7, Sessions: 64,
	})
	sys := core.SLINFER()
	sys.PrefixCache = kvcache.TieredConfig{Enabled: true, GPUBytes: 512 << 20, CPUBytes: 8 << 30}
	res := Run(Config{
		System:           sys,
		Shards:           UniformShards(4, 2, 2),
		Models:           models,
		Routing:          &KVAffinity{},
		Workers:          2,
		Seed:             7,
		AttachInvariants: true,
	}, tr)
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	testutil.GoldenString(t, filepath.Join("testdata", "golden", "kvaffinity_prefix.golden"), canonical(res))
}

// TestGoldenRollingRestartFleet pins a 4-shard 2+2 fleet through a seeded
// rolling restart — every shard drained, crashed and recovered in turn —
// with invariant suites attached, once on SLINFER and once on its
// PD-disaggregated variant. Each crash pulls the shard's live requests and
// re-drives them in (arrival, ID) order, so the reports pin both the pulled
// set and the re-drive order. The trace seed is chosen so that PD crashes
// catch requests whose KV is in transit to a decode instance: a crash that
// misses them re-drives fewer requests and shifts every report.
// Regenerate deliberately with: go test ./internal/fleet -run Golden -update
func TestGoldenRollingRestartFleet(t *testing.T) {
	tr := testTrace(t, testModels(8), 3, 6)
	for _, tc := range []struct {
		file string
		sys  core.Config
	}{
		{"rolling_restart_slinfer.golden", core.SLINFER()},
		{"rolling_restart_pd.golden", baseline.Disaggregated(core.SLINFER())},
	} {
		t.Run(tc.sys.Name, func(t *testing.T) {
			cfg := testConfig(4, 2)
			cfg.System = tc.sys
			cfg.Shards = UniformShards(4, 2, 2)
			cfg.Faults = faults.Preset("rolling-restart", 4, tr.Duration, 6)
			res := Run(cfg, tr)
			if !res.Ok() {
				t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
			}
			if res.Redriven == 0 {
				t.Fatal("rolling restart re-drove nothing")
			}
			testutil.GoldenString(t, filepath.Join("testdata", "golden", tc.file), canonical(res))
		})
	}
}
