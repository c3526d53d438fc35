package invariants

import (
	"strings"
	"testing"

	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// runWithSuite drives one preset over a short fixed-seed trace with the full
// suite attached.
func runWithSuite(t *testing.T, cfg core.Config) *Suite {
	t.Helper()
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 2 * sim.Minute, Seed: 11,
		Dataset: workload.AzureConv,
	})
	s := sim.New()
	c := core.New(s, hwsim.Testbed(2, 2), models, cfg)
	suite := Attach(c)
	c.Run(tr)
	return suite
}

// TestCleanRunHasNoViolations is the positive baseline: every preset passes
// all always-on checkers on a real workload.
func TestCleanRunHasNoViolations(t *testing.T) {
	for _, cfg := range []core.Config{core.SLINFER(), core.Sllm(), core.SllmC(), core.SllmCS()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			suite := runWithSuite(t, cfg)
			if err := suite.Err(); err != nil {
				t.Fatalf("clean run reported violations: %v\nall: %v", err, suite.Violations())
			}
			if suite.submitted == 0 || suite.completed == 0 {
				t.Fatalf("suite observed no traffic (submitted=%d completed=%d) — probe not wired",
					suite.submitted, suite.completed)
			}
		})
	}
}

// TestAttachedRunIsByteIdentical pins that attaching the suite cannot
// perturb the simulation: checkers are witnesses, not participants.
func TestAttachedRunIsByteIdentical(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 2 * sim.Minute, Seed: 5,
		Dataset: workload.AzureConv,
	})
	run := func(attach bool) string {
		s := sim.New()
		c := core.New(s, hwsim.Testbed(2, 2), models, core.SLINFER())
		if attach {
			Attach(c)
		}
		return c.Run(tr).Canonical()
	}
	if plain, watched := run(false), run(true); plain != watched {
		t.Fatalf("attaching the invariant suite changed the run:\n--- plain ---\n%s--- watched ---\n%s",
			plain, watched)
	}
}

// TestConservationCatchesCorruptedLedger deliberately corrupts the memory
// ledger — an unload claiming fewer bytes than the allocation physically
// holds, the double-free/leak class of bug — and requires the conservation
// checker to flag it under the allocation's name.
func TestConservationCatchesCorruptedLedger(t *testing.T) {
	s := sim.New()
	nm := memctl.New(s, "node0", 1000)
	suite := New(s)
	suite.WatchNode(nm)

	// Legitimate load of 400 bytes.
	weights := memctl.Owner{Inst: 1}
	if !nm.Demand(memctl.Op{Kind: memctl.LoadWeights, Owner: weights, From: 0, To: 400}) {
		t.Fatal("load rejected")
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("legitimate op flagged: %v", err)
	}

	// Corruption: unload claims the allocation holds only 300 bytes, so 100
	// bytes silently leak from the ledger.
	nm.Demand(memctl.Op{Kind: memctl.UnloadWeights, Owner: weights, From: 300, To: 0})

	if suite.Ok() {
		t.Fatal("conservation checker missed a corrupted ledger")
	}
	found := false
	for _, v := range suite.Violations() {
		if v.Check == "ledger-conservation" && strings.Contains(v.Detail, "inst1/weights claims From=300") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a ledger-conservation violation naming the bad From, got %v",
			suite.Violations())
	}
}

// TestConservationCatchesConcurrentOps flags two in-flight operations on
// one allocation (memctl's contract is at most one), naming the allocation.
func TestConservationCatchesConcurrentOps(t *testing.T) {
	s := sim.New()
	nm := memctl.New(s, "node0", 1000)
	suite := New(s)
	suite.WatchNode(nm)

	kv := memctl.Owner{Inst: 1, KV: true}
	nm.Demand(memctl.Op{Kind: memctl.ResizeKV, Owner: kv, From: 0, To: 200, Duration: sim.Second})
	nm.Demand(memctl.Op{Kind: memctl.ResizeKV, Owner: kv, From: 200, To: 300, Duration: sim.Second})

	found := false
	for _, v := range suite.Violations() {
		if v.Check == "ledger-conservation" && strings.Contains(v.Detail, "inst1/kv admitted while resize-kv->200 in flight on the same allocation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a concurrent-op violation, got %v", suite.Violations())
	}
}

// TestKVOverReleaseCaught flags releasing more tokens than live at each of
// the suite's KV check points: a completion on the instance, the
// instance's removal, and the end of a run it is still live at. Each
// over-release is reported once, by the first check point that reads it.
func TestKVOverReleaseCaught(t *testing.T) {
	overReleased := func(suite *Suite) *engine.Instance {
		inst := &engine.Instance{ID: 7, Model: model.Llama2_7B, Cache: kvcache.NewCache(model.Llama2_7B, 1)}
		suite.InstanceCreated(inst)
		inst.Cache.SetCapacity(1 << 30)
		if !inst.Cache.AddTokens(100) {
			t.Fatal("tokens did not fit")
		}
		inst.Cache.ReleaseTokens(150)
		return inst
	}
	for _, tc := range []struct {
		name  string
		check func(*Suite, *engine.Instance)
	}{
		{"completion", func(suite *Suite, inst *engine.Instance) {
			req := engine.NewRequest(workload.Request{ID: 1, ModelName: "m", InputLen: 10, OutputLen: 1})
			suite.RequestSubmitted(req)
			req.State = engine.Done
			req.RecordToken(0.1)
			suite.RequestCompleted(req, inst)
		}},
		{"removal", func(suite *Suite, inst *engine.Instance) { suite.InstanceRemoved(inst) }},
		{"live at run end", func(*Suite, *engine.Instance) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			suite := New(sim.New())
			inst := overReleased(suite)
			tc.check(suite, inst)
			rep := metrics.Report{}
			if tc.name == "completion" {
				rep = metrics.Report{Total: 1, Completed: 1, TTFTCDF: []float64{0.1}}
			}
			suite.RunFinished(nil, rep)
			vs := suite.Violations()
			if len(vs) != 1 {
				t.Fatalf("want exactly one violation, got %v", vs)
			}
			if vs[0].Check != "kv-accounting" || !strings.Contains(vs[0].Detail, "released 50 tokens past the live count") {
				t.Fatalf("unexpected violation %v", vs[0])
			}
		})
	}
}

// TestRunningContextDriftCaught emulates a mutator that drops a request
// from the decode batch and releases its KV but forgets the instance's
// running-context sum. The next check point, a completion on the instance
// or its removal, must report the drift, and nothing else.
func TestRunningContextDriftCaught(t *testing.T) {
	for _, at := range []string{"completion", "removal"} {
		t.Run(at, func(t *testing.T) {
			suite := New(sim.New())
			inst := &engine.Instance{ID: 7, Model: model.Llama2_7B, Cache: kvcache.NewCache(model.Llama2_7B, 1)}
			suite.InstanceCreated(inst)
			inst.Cache.SetCapacity(1 << 30)
			r := engine.NewRequest(workload.Request{ID: 1, ModelName: "m", InputLen: 100, OutputLen: 10})
			r.Generated = 1
			if !inst.JoinDecode(r) {
				t.Fatal("request did not fit")
			}
			inst.Cache.ReleaseTokens(int64(r.ContextTokens()))
			inst.Running = inst.Running[:0]
			switch at {
			case "completion":
				done := engine.NewRequest(workload.Request{ID: 2, ModelName: "m", InputLen: 10, OutputLen: 1})
				suite.RequestSubmitted(done)
				done.State = engine.Done
				done.RecordToken(0.1)
				suite.RequestCompleted(done, inst)
			case "removal":
				suite.InstanceRemoved(inst)
			}
			vs := suite.Violations()
			if len(vs) != 1 || vs[0].Check != "kv-accounting" ||
				!strings.Contains(vs[0].Detail, "running context kept at 101 tokens but the batch sums to 0") {
				t.Fatalf("want exactly the running-context drift, got %v", vs)
			}
		})
	}
}

// runChatWithSuite replays a multi-turn chat trace through SLINFER with a
// deliberately tight prefix store, so blocks churn between tiers, and the
// full suite attached. rec, if set, records telemetry. sabotage, if set,
// corrupts the store's ledger mid-run, at t=60s with traffic in flight (Run
// does not reset the simulator, so the event scheduled before it fires).
func runChatWithSuite(t *testing.T, rec *telemetry.Recorder, sabotage func(*kvcache.TieredStore)) (*Suite, *kvcache.TieredStore) {
	t.Helper()
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateChat(workload.ChatConfig{
		ModelNames: names, Duration: 4 * sim.Minute, Seed: 7,
	})
	perTok := model.Llama2_7B.KVBytesPerToken()
	cfg := core.SLINFER()
	cfg.PrefixCache = kvcache.TieredConfig{
		Enabled: true, GPUBytes: 64 * 16 * perTok, CPUBytes: 128 * 16 * perTok,
	}
	cfg.Telemetry = rec
	s := sim.New()
	c := core.New(s, hwsim.Testbed(2, 2), models, cfg)
	suite := Attach(c)
	ts := c.PrefixStore()
	if sabotage != nil {
		s.AtFunc(sim.Time(60*sim.Second), func(any) { sabotage(ts) }, nil)
	}
	c.Run(tr)
	return suite, ts
}

// TestTierConservationCleanAndCorrupted drives the tiered prefix store
// through a controller run (clean: no violations), then corrupts its
// ledger mid-run — the over-release and tier-leak classes — and requires
// the conservation checker to fire at the next store call the probe sees,
// or, for a leak that keeps the sum law intact, at the end-of-run
// residency walk.
func TestTierConservationCleanAndCorrupted(t *testing.T) {
	block := 16 * model.Llama2_7B.KVBytesPerToken()
	hasViolation := func(suite *Suite, detail string) bool {
		for _, v := range suite.Violations() {
			if v.Check == "tier-conservation" && strings.Contains(v.Detail, detail) {
				return true
			}
		}
		return false
	}

	// Clean traffic: inserts, hits, spills, evictions — all conserved.
	suite, ts := runChatWithSuite(t, nil, nil)
	if err := suite.Err(); err != nil {
		t.Fatalf("clean tier traffic flagged: %v", err)
	}
	if l := ts.Ledger; l.Evictions == 0 || l.Spills == 0 || l.PromotedBytes == 0 {
		t.Fatalf("traffic did not exercise promote/spill/evict paths: %+v", l)
	}

	// Over-release: FreedBytes inflated as if blocks were freed twice.
	suite, _ = runChatWithSuite(t, nil, func(ts *kvcache.TieredStore) { ts.Ledger.FreedBytes += 10 * block })
	if v := suite.Violations(); len(v) == 0 || v[0].Check != "tier-conservation" {
		t.Fatalf("over-release corruption not caught first: %v", v)
	}
	if !hasViolation(suite, "bytes leaked or conjured") {
		t.Fatalf("over-release not caught at a store call: %v", suite.Violations())
	}

	// Tier leak: the ledger claims fewer GPU-resident bytes than the block
	// lists actually hold; the conservation law breaks at the next store
	// call.
	suite, _ = runChatWithSuite(t, nil, func(ts *kvcache.TieredStore) { ts.Ledger.GPUBytes -= block })
	if !hasViolation(suite, "bytes leaked or conjured") {
		t.Fatalf("tier leak not caught at a store call: %v", suite.Violations())
	}

	// The same leak with the sum law kept intact only shows against the
	// end-of-run walk of the block lists.
	suite, _ = runChatWithSuite(t, nil, func(ts *kvcache.TieredStore) {
		ts.Ledger.GPUBytes -= block
		ts.Ledger.AllocatedBytes -= block
	})
	if hasViolation(suite, "bytes leaked or conjured") {
		t.Fatalf("sum-preserving leak broke the conservation law: %v", suite.Violations())
	}
	if !hasViolation(suite, "tier leak") {
		t.Fatalf("walk reconciliation missed the leak, got %v", suite.Violations())
	}
}

// TestClockViolationCaught feeds the clock checker a regressing timestamp.
func TestClockViolationCaught(t *testing.T) {
	s := sim.New()
	suite := New(s)
	s.OnEvent(5) // direct feed: the simulator itself refuses to regress
	s.OnEvent(3)
	if suite.Ok() {
		t.Fatal("clock regression not caught")
	}
	if v := suite.Violations()[0]; v.Check != "clock-monotonic" {
		t.Fatalf("unexpected check %q", v.Check)
	}
}

// TestLifecycleDuplicationCaught flags double submission and double
// completion.
func TestLifecycleDuplicationCaught(t *testing.T) {
	suite := New(sim.New())
	req := engine.NewRequest(workload.Request{ID: 42, ModelName: "m", InputLen: 10, OutputLen: 1})
	suite.RequestSubmitted(req)
	suite.RequestSubmitted(req)
	if suite.Ok() {
		t.Fatal("duplicate submission not caught")
	}

	suite2 := New(sim.New())
	req2 := engine.NewRequest(workload.Request{ID: 43, ModelName: "m", InputLen: 10, OutputLen: 1})
	suite2.RequestSubmitted(req2)
	req2.State = engine.Done
	req2.RecordToken(0.1)
	suite2.RequestCompleted(req2, nil)
	suite2.RequestCompleted(req2, nil)
	if suite2.Ok() {
		t.Fatal("duplicate completion not caught")
	}
}
