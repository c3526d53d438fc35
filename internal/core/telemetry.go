package core

import "slinfer/internal/telemetry"

// Controller-side telemetry plumbing. Span events go through emit
// (probe.go), the controller's one lifecycle emission point; this file
// holds the sampler-tick metric row, the tiered store's transition adapter,
// and the flight-recorder dump. Telemetry is strictly observational — no
// hook may influence scheduling, timing, or the invariant probes riding
// Config.Probe.

// telemSample records one sim-time metric row on the sampler tick.
func (c *Controller) telemSample() {
	t := c.Cfg.Telemetry
	if t == nil || !t.SeriesEnabled() {
		return
	}
	queue := len(c.pending)
	outstanding := c.Collector.Total - c.Collector.Completed - c.Collector.Dropped
	active := outstanding - int64(queue)
	if active < 0 {
		active = 0
	}
	var kvGPU, kvCPU int64
	if c.prefix != nil {
		kvGPU, kvCPU = c.prefix.Ledger.GPUBytes, c.prefix.Ledger.CPUBytes
	}
	var schedNs, valNs int64
	if c.Cfg.MeasureOverhead {
		schedNs, valNs = c.Collector.ScheduleNs, c.Collector.ValidationNs
	}
	t.Sample(telemetry.Sample{
		T: c.Sim.Now(), Kind: telemetry.SampleTick,
		Queue: int32(queue), Active: int32(active),
		KVGPU: kvGPU, KVCPU: kvCPU,
		Outstanding: outstanding,
		ScheduleNs:  schedNs, ValidationNs: valNs,
	})
}

// tierTelem adapts the tiered prefix store's transition hooks onto the
// controller's recorder, stamping virtual time at the call site. Wired at
// construction/reset (never on a hot path); the store's nil check is its
// whole disabled-path cost.
type tierTelem struct{ c *Controller }

func (t tierTelem) TierPromoted(bytes int64) {
	t.c.emit(telemetry.KindTierPromote, nil, nil, bytes, 0)
}
func (t tierTelem) TierSpilled(bytes int64) {
	t.c.emit(telemetry.KindTierSpill, nil, nil, bytes, 0)
}
func (t tierTelem) TierEvicted(bytes int64) {
	t.c.emit(telemetry.KindTierEvict, nil, nil, bytes, 0)
}

// wireTelemetry attaches the tier-transition adapter to the prefix store
// when both features are on. Called from New and reset after the store
// exists.
func (c *Controller) wireTelemetry() {
	if c.prefix != nil {
		if c.Cfg.Telemetry != nil {
			c.prefix.Trace = tierTelem{c}
		} else {
			c.prefix.Trace = nil
		}
	}
}

// FlightDump renders the telemetry flight-recorder ring (empty when
// telemetry is off or no ring is configured). The invariants suite wires
// this into its violation funnel so the first failed check dumps the
// events that led to it.
func (c *Controller) FlightDump() string {
	if t := c.Cfg.Telemetry; t != nil {
		return t.DumpTail()
	}
	return ""
}
