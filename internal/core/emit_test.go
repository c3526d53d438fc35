package core

import (
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/metrics"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
)

// lifecycleEvent is one observed lifecycle transition, in the shape both
// observers can produce: the telemetry kind plus the request and instance
// IDs (-1 when the event is not scoped to one).
type lifecycleEvent struct {
	kind telemetry.Kind
	req  int64
	inst int32
}

// recordingProbe logs every Probe callback as a lifecycleEvent.
type recordingProbe struct{ seen []lifecycleEvent }

func (p *recordingProbe) add(k telemetry.Kind, req *engine.Request, inst *engine.Instance) {
	ev := lifecycleEvent{kind: k, req: -1, inst: -1}
	if req != nil {
		ev.req = req.W.ID
	}
	if inst != nil {
		ev.inst = int32(inst.ID)
	}
	p.seen = append(p.seen, ev)
}

func (p *recordingProbe) RequestSubmitted(req *engine.Request) {
	p.add(telemetry.KindAdmit, req, nil)
}
func (p *recordingProbe) RequestCompleted(req *engine.Request, inst *engine.Instance) {
	p.add(telemetry.KindComplete, req, inst)
}
func (p *recordingProbe) RequestDropped(req *engine.Request) {
	p.add(telemetry.KindDrop, req, nil)
}
func (p *recordingProbe) InstanceCreated(inst *engine.Instance) {
	p.add(telemetry.KindInstanceUp, nil, inst)
}
func (p *recordingProbe) InstanceRemoved(inst *engine.Instance) {
	p.add(telemetry.KindInstanceDown, nil, inst)
}
func (p *recordingProbe) RunFinished(*Controller, metrics.Report) {}

// TestProbeSeesTelemetryLifecycleStream pins the single emission stream:
// with a probe and a recorder both attached, the probe's callback sequence
// is exactly the recorder's event stream filtered to the five lifecycle
// kinds — same order, same request and instance IDs.
func TestProbeSeesTelemetryLifecycleStream(t *testing.T) {
	models, tr := perfTrace(2)
	probe := &recordingProbe{}
	rec := telemetry.New(telemetry.Options{Spans: true}).Recorder(0)
	cfg := Sllm()
	cfg.Probe = probe
	cfg.Telemetry = rec
	New(sim.New(), hwsim.Testbed(1, 1), models, cfg).Run(tr)

	var want []lifecycleEvent
	counts := map[telemetry.Kind]int{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case telemetry.KindAdmit, telemetry.KindComplete, telemetry.KindDrop,
			telemetry.KindInstanceUp, telemetry.KindInstanceDown:
			want = append(want, lifecycleEvent{kind: ev.Kind, req: ev.Req, inst: ev.Inst})
			counts[ev.Kind]++
		}
	}
	for _, k := range []telemetry.Kind{telemetry.KindAdmit, telemetry.KindComplete,
		telemetry.KindDrop, telemetry.KindInstanceUp, telemetry.KindInstanceDown} {
		if counts[k] == 0 {
			t.Fatalf("workload produced no %s events; it must exercise every lifecycle kind", k)
		}
	}
	if len(probe.seen) != len(want) {
		t.Fatalf("probe saw %d lifecycle callbacks, recorder holds %d lifecycle events", len(probe.seen), len(want))
	}
	for i := range want {
		if probe.seen[i] != want[i] {
			t.Fatalf("lifecycle event %d: probe saw %+v, recorder holds %+v", i, probe.seen[i], want[i])
		}
	}
}
