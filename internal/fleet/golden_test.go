package fleet

import (
	"path/filepath"
	"testing"

	"slinfer/internal/core"
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
