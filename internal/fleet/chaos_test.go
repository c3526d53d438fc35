package fleet

import (
	"testing"

	"slinfer/internal/faults"
	"slinfer/internal/sim"
)

// chaosPlan builds a deterministic two-shard plan: shard 1 crashes a third
// of the way through the trace and recovers at two thirds.
func chaosPlan(dur sim.Duration) *faults.Plan {
	return &faults.Plan{Events: []faults.Event{
		{At: sim.Time(0).Add(dur / 3), Kind: faults.ShardCrash, Shard: 1},
		{At: sim.Time(0).Add(2 * dur / 3), Kind: faults.ShardRecover, Shard: 1},
	}}
}

// TestFleetChaosCrashConservation is the tentpole's positive test: a
// mid-run crash pulls the victim's in-flight set, re-drives it through the
// retry budget, and the extended conservation identity (offered ==
// completed + rejected + retry-exhausted + live, no loss or duplication
// across the crash) holds with zero violations.
func TestFleetChaosCrashConservation(t *testing.T) {
	tr := testTrace(t, testModels(8), 3, 41)
	cfg := testConfig(2, 2)
	cfg.Faults = chaosPlan(tr.Duration)
	res := Run(cfg, tr)
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	if res.Report.FaultEvents == 0 {
		t.Fatal("crash+recover plan applied no fault events")
	}
	if res.Redriven == 0 && res.RetryExhausted == 0 {
		t.Fatal("crash pulled no in-flight requests (trace too sparse to exercise the fault path)")
	}
	if res.Report.Redriven != res.Redriven || res.Report.RetryExhausted != res.RetryExhausted {
		t.Fatalf("report fault counters (%d, %d) disagree with result (%d, %d)",
			res.Report.Redriven, res.Report.RetryExhausted, res.Redriven, res.RetryExhausted)
	}
	for _, rj := range res.Rejections {
		if rj.Reason != ReasonRetryExhausted && rj.Reason != ReasonNoHealthyShard {
			t.Fatalf("unexpected rejection reason %q under AcceptAll admission", rj.Reason)
		}
	}
}

// TestFleetChaosDeterministicAcrossWorkers extends the fleet's core
// determinism contract to fault runs: crashes, re-drives, and recoveries
// all happen in the serial front-door section, so a chaos run stays
// byte-identical across worker-pool settings.
func TestFleetChaosDeterministicAcrossWorkers(t *testing.T) {
	tr := testTrace(t, testModels(8), 3, 41)
	var want string
	for _, workers := range []int{1, 2, 3, 8, 1, 8} {
		cfg := testConfig(4, workers)
		cfg.Faults = faults.Preset("rolling-restart", 4, tr.Duration, 17)
		res := Run(cfg, tr)
		if !res.Ok() {
			t.Fatalf("workers=%d: violations: %v %v", workers, res.Violations, res.ShardViolations)
		}
		if res.Report.FaultEvents == 0 {
			t.Fatalf("workers=%d: rolling-restart applied nothing", workers)
		}
		got := canonical(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: chaos run diverged from first run", workers)
		}
	}
}

// TestFleetEmptyPlanByteIdentical pins the zero-cost contract: a nil plan,
// an empty plan, and a plan whose every event is out of range (rejected by
// Validate) all leave the run byte-identical to a config without the
// field.
func TestFleetEmptyPlanByteIdentical(t *testing.T) {
	tr := testTrace(t, testModels(8), 2, 9)
	base := Run(testConfig(2, 2), tr)
	if !base.Ok() {
		t.Fatalf("baseline violations: %v", base.Violations)
	}
	want := canonical(base)
	for name, plan := range map[string]*faults.Plan{
		"nil":   nil,
		"empty": {},
	} {
		cfg := testConfig(2, 2)
		cfg.Faults = plan
		if got := canonical(Run(cfg, tr)); got != want {
			t.Fatalf("%s plan: run diverged from no-plan baseline", name)
		}
	}
	// An invalid plan is reported as a violation but must not perturb the
	// simulation itself.
	cfg := testConfig(2, 2)
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{At: 0, Kind: faults.ShardCrash, Shard: 99},
	}}
	res := Run(cfg, tr)
	found := false
	for _, v := range res.Violations {
		if v.Check == "fleet-faults" {
			found = true
		}
	}
	if !found {
		t.Fatalf("invalid plan not reported; violations: %v", res.Violations)
	}
	if got := canonical(res); got != want {
		t.Fatal("invalid plan: run diverged from no-plan baseline")
	}
}

// TestFleetChaosStragglerAndDegrade covers the non-crash fault kinds: a
// slowdown and a KV tier degrade both apply, restore, and keep every
// invariant green.
func TestFleetChaosStragglerAndDegrade(t *testing.T) {
	tr := testTrace(t, testModels(8), 2, 23)
	cfg := testConfig(2, 2)
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{At: sim.Time(0).Add(tr.Duration / 4), Kind: faults.Slowdown, Shard: 0,
			Factor: 3, Duration: tr.Duration / 4},
		{At: sim.Time(0).Add(tr.Duration / 4), Kind: faults.KVTierDegrade, Shard: 1,
			Factor: 0.25, Duration: tr.Duration / 4},
	}}
	res := Run(cfg, tr)
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	if res.Report.FaultEvents == 0 {
		t.Fatal("slowdown/degrade plan applied nothing")
	}
	if res.Redriven != 0 || res.RetryExhausted != 0 {
		t.Fatalf("non-crash faults re-drove requests: redriven=%d exhausted=%d",
			res.Redriven, res.RetryExhausted)
	}
}

// TestFleetChaosDrain: a drained shard stops receiving arrivals but keeps
// serving its queue; recover reopens it without a crash-reset.
func TestFleetChaosDrain(t *testing.T) {
	tr := testTrace(t, testModels(8), 2, 23)
	cfg := testConfig(2, 2)
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{At: sim.Time(0).Add(tr.Duration / 3), Kind: faults.ShardDrain, Shard: 1},
		{At: sim.Time(0).Add(2 * tr.Duration / 3), Kind: faults.ShardRecover, Shard: 1},
	}}
	res := Run(cfg, tr)
	if !res.Ok() {
		t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
	}
	if res.Redriven != 0 {
		t.Fatalf("drain re-drove %d requests; drain must not pull in-flight work", res.Redriven)
	}
}

// TestFleetCheckerCatchesLeakedRequest is the negative conservation test:
// hand-corrupt a finished run's bookkeeping — a request silently vanishes
// from a shard's completed count — and the lifecycle identity (completed +
// dropped + retry-exhausted + live == accepted) must flag it, on a run
// through a crash and on a fault-free one alike.
func TestFleetCheckerCatchesLeakedRequest(t *testing.T) {
	tr := testTrace(t, testModels(8), 2, 41)
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"crash", chaosPlan(tr.Duration)},
		{"nil", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2, 2)
			cfg.Faults = tc.plan
			res := Run(cfg, tr)
			if !res.Ok() {
				t.Fatalf("violations before corruption: %v", res.Violations)
			}
			// Replay runDone over the finished accounting: clean as is, then
			// with one completion leaked.
			replay := func() []Violation {
				sd := []*shard{
					{routed: int(res.Shards[0].Total), sliceCount: len(res.ShardTraces[0].Requests)},
					{routed: int(res.Shards[1].Total), sliceCount: len(res.ShardTraces[1].Requests)},
				}
				ck := newChecker()
				ck.runDone(&res, sd, 0)
				return ck.violations
			}
			if vs := replay(); len(vs) > 0 {
				t.Fatalf("uncorrupted replay flagged: %v", vs)
			}
			res.Shards[0].Completed--
			found := false
			vs := replay()
			for _, v := range vs {
				if v.Check == "fleet-conservation" {
					found = true
				}
			}
			if !found {
				t.Fatalf("leaked request not flagged; violations: %v", vs)
			}
		})
	}
}

// TestRoutingPolicyReuseDeterministic is the satellite-1 regression: a
// single stateful policy value reused across two identical Runs must give
// identical results, because Run resets policy state up front. Before the
// Reset hook, RoundRobin's cursor leaked across runs.
func TestRoutingPolicyReuseDeterministic(t *testing.T) {
	tr := testTrace(t, testModels(8), 2, 9)
	for _, mk := range []func() RoutingPolicy{
		func() RoutingPolicy { return &RoundRobin{} },
		func() RoutingPolicy { return &KVAffinity{} },
	} {
		shared := mk()
		cfg := testConfig(2, 2)
		cfg.Routing = shared
		first := canonical(Run(cfg, tr))
		second := canonical(Run(cfg, tr))
		if first != second {
			t.Fatalf("policy %s: second run with a reused policy value diverged", shared.Name())
		}
		fresh := mk()
		cfg.Routing = fresh
		if got := canonical(Run(cfg, tr)); got != first {
			t.Fatalf("policy %s: reused policy value diverged from a fresh one", fresh.Name())
		}
	}
}
