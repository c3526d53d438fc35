package fleet

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/par"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

func testModels(n int) []model.Model { return model.Replicas(model.Llama2_7B, n) }

func testTrace(t testing.TB, models []model.Model, minutes float64, seed uint64) workload.Trace {
	t.Helper()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names,
		Duration:   sim.Duration(minutes) * sim.Minute,
		Dataset:    workload.AzureConv,
		Seed:       seed,
	})
	if len(tr.Requests) == 0 {
		t.Fatal("empty generated trace")
	}
	return tr
}

func testConfig(shards, workers int) Config {
	return Config{
		System:           core.SLINFER(),
		Shards:           UniformShards(shards, 1, 1),
		Models:           testModels(8),
		Workers:          workers,
		Seed:             7,
		AttachInvariants: true,
	}
}

// canonical folds a result into one byte-stable string: the merged report,
// every per-shard report, and the front-door ledger counters.
func canonical(res Result) string {
	var b strings.Builder
	b.WriteString(res.Report.Canonical())
	for _, r := range res.Shards {
		b.WriteString(r.Canonical())
	}
	for _, rj := range res.Rejections {
		b.WriteString(rj.Model)
		b.WriteString(rj.Reason)
	}
	return b.String()
}

// TestFleetDeterministicAcrossWorkers pins the acceptance criterion: a
// 4-shard fleet run is a pure function of (config, trace) — byte-identical
// canonical output across repeated runs and across every worker-pool
// setting, because routing is serial on epoch snapshots and shard
// interiors share nothing.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	tr := testTrace(t, testModels(8), 3, 41)
	var want string
	// Workers 2 and 3 split the 4 shards between the caller and one or
	// two pool helpers; 3 splits them unevenly.
	for _, workers := range []int{1, 2, 3, 8, 1, 8} {
		res := Run(testConfig(4, workers), tr)
		if !res.Ok() {
			t.Fatalf("workers=%d: violations: %v %v", workers, res.Violations, res.ShardViolations)
		}
		got := canonical(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: fleet run diverged from first run", workers)
		}
	}
}

// panicPlacement fails a shard from inside its simulator: the first
// scale-out attempt panics.
type panicPlacement struct{ policy.PlacementPolicy }

func (panicPlacement) PlaceNew(policy.Host, *engine.Request, model.Model) bool {
	panic("placement exploded")
}

// TestFleetShardPanicJoinsWorkers: a shard that panics while the epoch
// pool advances it surfaces on Run's caller as a *par.CellPanic naming
// the shard, and no pool helper outlives Run.
func TestFleetShardPanicJoinsWorkers(t *testing.T) {
	tr := testTrace(t, testModels(8), 1, 3)
	for _, workers := range []int{2, 3, 8} {
		base := runtime.NumGoroutine()
		cfg := testConfig(4, workers)
		bad := cfg.System
		bad.Placement = panicPlacement{bad.Placement}
		cfg.Shards[2].System = &bad
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			Run(cfg, tr)
			return nil
		}()
		cp, ok := rec.(*par.CellPanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %T (%v), want *par.CellPanic", workers, rec, rec)
		}
		if cp.Cell != 2 || cp.Value != "placement exploded" {
			t.Fatalf("workers=%d: CellPanic{Cell:%d Value:%v}, want shard 2's panic", workers, cp.Cell, cp.Value)
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after Run, %d before", workers, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestFleetConservation drives an overloaded fleet through a shedding
// admission policy and checks the front-door ledger: every offered request
// is either on exactly one shard or in the rejection ledger.
func TestFleetConservation(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Admission = MaxOutstanding{PerShard: 2}
	tr := testTrace(t, testModels(8), 3, 5)
	res := Run(cfg, tr)
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	if len(res.Rejections) == 0 {
		t.Fatal("MaxOutstanding{2/shard} shed nothing on an overloaded fleet")
	}
	if res.Offered != int64(len(tr.Requests)) {
		t.Fatalf("offered %d, trace has %d", res.Offered, len(tr.Requests))
	}
	if res.Accepted+int64(len(res.Rejections)) != res.Offered {
		t.Fatalf("accepted %d + rejected %d != offered %d",
			res.Accepted, len(res.Rejections), res.Offered)
	}
	var sliced int64
	for _, st := range res.ShardTraces {
		sliced += int64(len(st.Requests))
	}
	if sliced != res.Accepted {
		t.Fatalf("shard trace slices hold %d requests, accepted %d", sliced, res.Accepted)
	}
	for _, rj := range res.Rejections {
		if rj.Reason != "fleet-overload" {
			t.Fatalf("rejection carries reason %q", rj.Reason)
		}
	}
}

// TestFleetCheckerCatchesBadRouting is the negative test for the fleet
// invariants: a policy routing outside the active set must be flagged (and
// clamped), never silently trusted.
func TestFleetCheckerCatchesBadRouting(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.AttachInvariants = false
	cfg.Routing = badRouting{}
	res := Run(cfg, testTrace(t, testModels(8), 1, 3))
	found := false
	for _, v := range res.Violations {
		if v.Check == "fleet-routing" {
			found = true
		}
	}
	if !found {
		t.Fatalf("out-of-range routing not reported; violations: %v", res.Violations)
	}
}

type badRouting struct{}

func (badRouting) Name() string                            { return "bad" }
func (badRouting) Reset()                                  {}
func (badRouting) Route(workload.Request, *EpochState) int { return 99 }

// TestModelAffinityPinsModels: under affinity routing with a fixed active
// set, each model's requests land on exactly one shard.
func TestModelAffinityPinsModels(t *testing.T) {
	cfg := testConfig(4, 4)
	cfg.Routing = ModelAffinity{}
	res := Run(cfg, testTrace(t, testModels(8), 2, 9))
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	home := map[string]int{}
	for i, st := range res.ShardTraces {
		for _, r := range st.Requests {
			if prev, ok := home[r.ModelName]; ok && prev != i {
				t.Fatalf("model %s split across shards %d and %d", r.ModelName, prev, i)
			}
			home[r.ModelName] = i
		}
	}
	if len(home) == 0 {
		t.Fatal("no model routed anywhere")
	}
}

// chatFleetConfig builds a prefix-sharing fleet over a single hot model: the
// shape where model-affinity degenerates (everything rendezvouses to one
// shard, thrashing its bounded tier) while KV-affinity spreads prefix roots
// across shards by expected hit bytes.
func chatFleetConfig(shards int, routing RoutingPolicy) (Config, workload.Trace) {
	sys := core.SLINFER()
	perTok := model.Llama2_7B.KVBytesPerToken()
	sys.PrefixCache = kvcache.TieredConfig{
		Enabled: true,
		// Deliberately tight: roughly two sessions' context per shard, so
		// concentrating every session on one shard evicts constantly.
		GPUBytes: 8192 * perTok,
		CPUBytes: 16384 * perTok,
	}
	models := testModels(1)
	tr := workload.GenerateChat(workload.ChatConfig{
		ModelNames: []string{models[0].Name},
		Duration:   4 * sim.Minute,
		Sessions:   24,
		Templates:  4,
		Seed:       19,
		MaxInput:   models[0].MaxContext,
	})
	return Config{
		System:           sys,
		Shards:           UniformShards(shards, 1, 1),
		Models:           models,
		Routing:          routing,
		Workers:          shards,
		Seed:             7,
		AttachInvariants: true,
	}, tr
}

// TestKVAffinityBeatsModelAffinity pins the tentpole's routing payoff: on a
// multi-turn chat workload over one model, KV-affinity routing serves more
// prefix bytes from cache than model-affinity (which lands the whole model on
// one shard and thrashes its tier), and the tier-conservation invariant stays
// green on every shard under both policies.
func TestKVAffinityBeatsModelAffinity(t *testing.T) {
	run := func(routing RoutingPolicy) Result {
		cfg, tr := chatFleetConfig(4, routing)
		res := Run(cfg, tr)
		if !res.Ok() {
			t.Fatalf("%s: violations: %v %v", routing.Name(), res.Violations, res.ShardViolations)
		}
		if res.Report.PrefixLookups == 0 {
			t.Fatalf("%s: prefix store saw no lookups — chat keys not threaded", routing.Name())
		}
		return res
	}
	kv := run(&KVAffinity{})
	ma := run(ModelAffinity{})
	if kv.Report.PrefixHitBytes <= ma.Report.PrefixHitBytes {
		t.Fatalf("kvaffinity served %d prefix-hit bytes, model-affinity %d — no routing payoff",
			kv.Report.PrefixHitBytes, ma.Report.PrefixHitBytes)
	}
	// Sanity: KV-affinity actually used more than one shard for the model.
	used := 0
	for _, st := range kv.ShardTraces {
		if len(st.Requests) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("kvaffinity collapsed onto %d shard(s)", used)
	}
}

// TestKVAffinityDeterministicAcrossWorkers extends the fleet determinism
// contract to the prefix-residency snapshot path: scoring on end-of-epoch
// ledgers is byte-identical across worker counts and repeated runs.
func TestKVAffinityDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4, 1} {
		cfg, tr := chatFleetConfig(3, &KVAffinity{})
		cfg.Workers = workers
		res := Run(cfg, tr)
		if !res.Ok() {
			t.Fatalf("workers=%d: violations: %v %v", workers, res.Violations, res.ShardViolations)
		}
		got := canonical(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: kvaffinity fleet run diverged", workers)
		}
	}
}

// TestLeastOutstandingSpreads: least-outstanding routing uses every shard
// of a uniform fleet under a multi-model workload.
func TestLeastOutstandingSpreads(t *testing.T) {
	cfg := testConfig(3, 3)
	cfg.Routing = LeastOutstanding{}
	res := Run(cfg, testTrace(t, testModels(8), 2, 13))
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	for i, rep := range res.Shards {
		if rep.Total == 0 {
			t.Fatalf("shard %d received nothing under least-outstanding", i)
		}
	}
}

// TestAutoscaleShrinksIdleFleet: at trivial load, the threshold policy
// shrinks the active set toward Min, and deactivated shards stop receiving
// arrivals from the shrink epoch on.
func TestAutoscaleShrinksIdleFleet(t *testing.T) {
	cfg := testConfig(4, 2)
	cfg.Autoscale = LoadThreshold{High: 64, Low: 2, Min: 1}
	cfg.Epoch = 2 * sim.Second
	res := Run(cfg, testTrace(t, testModels(4), 2, 21))
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	min := res.ActiveByEpoch[0]
	for _, a := range res.ActiveByEpoch {
		if a < min {
			min = a
		}
	}
	if min >= 4 {
		t.Fatalf("active set never shrank below 4 at trivial load: %v", res.ActiveByEpoch)
	}
}

// TestHeterogeneousShards: per-shard topology and system overrides run
// clean — a GPU-rich SLINFER shard next to a CPU-only sllm+c shard.
func TestHeterogeneousShards(t *testing.T) {
	sllmc := core.SllmC()
	cfg := Config{
		System: core.SLINFER(),
		Shards: []ShardSpec{
			{Name: "gpu", Specs: hwsim.Testbed(0, 2)},
			{Name: "cpu", Specs: hwsim.Testbed(2, 1), System: &sllmc},
		},
		Models:           testModels(6),
		Workers:          2,
		Seed:             3,
		AttachInvariants: true,
	}
	res := Run(cfg, testTrace(t, testModels(6), 2, 17))
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	if !strings.Contains(res.Shards[0].System, "gpu") || !strings.Contains(res.Shards[1].System, "cpu") {
		t.Fatalf("shard names not threaded into reports: %q %q",
			res.Shards[0].System, res.Shards[1].System)
	}
	if res.Shards[1].System[:len("sllm+c/")] != "sllm+c/" {
		t.Fatalf("per-shard system override lost: %q", res.Shards[1].System)
	}
}

// TestShardSliceReplaysStandalone pins shard isolation end-to-end: running
// a shard's routed trace slice through a standalone controller with the
// shard's derived seed reproduces the in-fleet shard report byte-for-byte.
// The epoch barriers are pure clock advances, so they must be
// observationally invisible to the shard interior.
func TestShardSliceReplaysStandalone(t *testing.T) {
	cfg := testConfig(3, 3)
	tr := testTrace(t, testModels(8), 2, 29)
	res := Run(cfg, tr)
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	for i := range res.Shards {
		sys := core.SLINFER()
		sys.Name = res.Shards[i].System
		sys.Seed = ShardSeed(cfg.Seed^core.SLINFER().Seed, i)
		s := sim.New()
		ctl := core.New(s, cfg.Shards[i].Specs, cfg.Models, sys)
		rep := ctl.Run(res.ShardTraces[i])
		if got, want := rep.Canonical(), res.Shards[i].Canonical(); got != want {
			t.Fatalf("shard %d: standalone replay diverged from in-fleet run:\n--- standalone ---\n%s--- fleet ---\n%s",
				i, got, want)
		}
	}
}

// TestRejectionLedgerOrder: rejections arrive in global arrival order.
func TestRejectionLedgerOrder(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Admission = MaxOutstanding{PerShard: 1}
	res := Run(cfg, testTrace(t, testModels(8), 2, 31))
	for i := 1; i < len(res.Rejections); i++ {
		if res.Rejections[i].At < res.Rejections[i-1].At {
			t.Fatalf("rejection ledger out of order at %d", i)
		}
	}
}
