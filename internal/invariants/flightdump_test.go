package invariants

import (
	"strings"
	"testing"

	"slinfer/internal/core"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/telemetry"
)

// TestFlightRecorderDumpsOnViolation is the post-mortem path end to end: a
// chat workload drives the tiered prefix store, an event scheduled mid-run
// corrupts its ledger, and the tier-conservation checker fires after the
// next store call. The suite must capture the telemetry flight ring at
// that first violation, and the dump must hold the span history leading up
// to it — including tier events, which the controller emits for each store
// call before the probe checks the ledger.
func TestFlightRecorderDumpsOnViolation(t *testing.T) {
	// The tight GPU tier keeps blocks churning between tiers, so store calls
	// record tier events into the ring right before the probe validates the
	// ledger. Mid-run, a block's worth of GPU-resident bytes leaks from the
	// ledger; the conservation law breaks at the store's next call.
	telem := telemetry.New(telemetry.Options{FlightRing: 2048})
	suite, _ := runChatWithSuite(t, telem.Recorder(0), func(ts *kvcache.TieredStore) {
		ts.Ledger.GPUBytes -= 16 * model.Llama2_7B.KVBytesPerToken()
	})

	if suite.Ok() {
		t.Fatal("corrupted ledger escaped the tier-conservation checker")
	}
	if v := suite.Violations()[0]; v.Check != "tier-conservation" {
		t.Fatalf("first violation is %q, want tier-conservation: %v", v.Check, v)
	}

	dump := suite.FlightDump()
	if dump == "" {
		t.Fatal("violation did not capture a flight-recorder dump")
	}
	if !strings.Contains(dump, "flight recorder: last") {
		t.Fatalf("dump missing header:\n%s", dump)
	}
	// The ring holds request lifecycle history with sim timestamps...
	for _, want := range []string{"t=", "req="} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	// ...and the violating subsystem's own events in the tail: the
	// controller emits each store call's tier events before the probe
	// validates the ledger.
	if !strings.Contains(dump, "tier_") {
		t.Fatalf("dump tail missing the violating tier event:\n%s", dump)
	}
}

// TestFlightDumpEmptyWithoutViolation pins that a clean run never invokes
// the dump hook: the recorder ring fills, but FlightDump stays empty.
func TestFlightDumpEmptyWithoutViolation(t *testing.T) {
	cfg := core.SLINFER()
	telem := telemetry.New(telemetry.Options{FlightRing: 64})
	cfg.Telemetry = telem.Recorder(0)
	suite := runWithSuite(t, cfg)
	if err := suite.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if d := suite.FlightDump(); d != "" {
		t.Fatalf("clean run captured a dump:\n%s", d)
	}
	if telem.Recorder(0).DumpTail() == "" {
		t.Fatal("armed ring recorded nothing over a full run")
	}
}
