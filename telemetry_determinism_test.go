package slinfer

import (
	"bytes"
	"testing"

	"slinfer/internal/telemetry"
)

// chaosTelemetryRun executes the reference chaos fleet with all three
// telemetry pillars on and returns the Chrome timeline and series CSV
// exports as strings.
func chaosTelemetryRun(t *testing.T, workers int) (timeline, series string) {
	t.Helper()
	models := Replicas(Llama2_7B, 8)
	tr := BurstGPTTrace(models, 2, 2.0, 7)
	plan, err := FaultPreset("crash", 2, tr.Duration, 7)
	if err != nil {
		t.Fatal(err)
	}
	telem := NewTelemetry(TelemetryOptions{Spans: true, Series: true, FlightRing: 128})
	res := RunFleet(FleetConfig{
		System:           SLINFER(),
		Shards:           UniformFleet(2, 1, 2),
		Models:           models,
		Workers:          workers,
		Seed:             7,
		AttachInvariants: true,
		Faults:           plan,
		Telemetry:        telem,
	}, tr)
	if !res.Ok() {
		t.Fatalf("chaos run violated invariants: fleet=%v shards=%v",
			res.Violations, res.ShardViolations)
	}
	if res.Report.FaultEvents == 0 {
		t.Fatal("crash preset fired no faults; the run exercises nothing")
	}
	if telem.EventCount() == 0 || telem.SampleCount() == 0 {
		t.Fatalf("telemetry recorded nothing: events=%d samples=%d",
			telem.EventCount(), telem.SampleCount())
	}
	var tl, cs bytes.Buffer
	if err := SpanExportChrome(&tl, telem); err != nil {
		t.Fatal(err)
	}
	if err := SeriesCSV(&cs, telem); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChrome(bytes.NewReader(tl.Bytes())); err != nil {
		t.Fatalf("timeline fails its own schema checker: %v", err)
	}
	return tl.String(), cs.String()
}

// TestTelemetryDeterministicAcrossWorkersAndReuse runs the same chaos
// fleet three times — serial on fresh arenas, then with 4 workers on
// pool-reused arenas, then serial again — and requires every telemetry
// export to be byte-identical: the telemetry layer is a pure function of
// (config, trace, seed), blind to worker count and arena lifecycle.
func TestTelemetryDeterministicAcrossWorkersAndReuse(t *testing.T) {
	tlSerial, csSerial := chaosTelemetryRun(t, 1)
	tlPar, csPar := chaosTelemetryRun(t, 4) // arenas now come from the pool
	tlAgain, csAgain := chaosTelemetryRun(t, 1)
	if tlSerial != tlPar {
		t.Error("Chrome timeline differs between Workers=1 and Workers=4")
	}
	if csSerial != csPar {
		t.Error("series CSV differs between Workers=1 and Workers=4")
	}
	if tlSerial != tlAgain || csSerial != csAgain {
		t.Error("exports differ between fresh and arena-reused runs")
	}
}

// TestTelemetryObservational checks the layer's core contract: the same
// run with and without telemetry produces a byte-identical canonical
// report — recording never perturbs the simulation.
func TestTelemetryObservational(t *testing.T) {
	models := Replicas(Llama2_7B, 4)
	tr := AzureTrace(models, 2, 3)
	cluster := Testbed(2, 2)

	plain := Run(SLINFER(), cluster, models, tr).Canonical()
	telem := NewTelemetry(TelemetryOptions{Spans: true, Series: true, FlightRing: 64})
	watched := Run(WithTelemetry(SLINFER(), telem.Recorder(0)), cluster, models, tr).Canonical()
	if plain != watched {
		t.Fatalf("telemetry changed the run:\n--- plain ---\n%s--- watched ---\n%s", plain, watched)
	}
	if telem.EventCount() == 0 {
		t.Fatal("telemetry recorded nothing")
	}
}
