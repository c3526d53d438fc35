package core

import (
	"slinfer/internal/kvcache"
	"slinfer/internal/telemetry"
)

// Controller-side telemetry plumbing. Span events go through emit
// (probe.go), the controller's one lifecycle emission point; this file
// holds the sampler-tick metric row, the prefix store's tier events, and
// the flight-recorder dump. Telemetry is strictly observational — no
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

// emitTierMoves reports one prefix-store call's tier traffic: it diffs the
// store's lifetime byte counters against before, the ledger as it stood
// just ahead of the call, and emits one event per kind that moved —
// promoted CPU->GPU, spilled GPU->CPU, evicted out of the store.
//
//slinfer:hotpath
func (c *Controller) emitTierMoves(before *kvcache.TierLedger) {
	if c.Cfg.Telemetry == nil {
		return
	}
	led := &c.prefix.Ledger
	if d := led.PromotedBytes - before.PromotedBytes; d > 0 {
		c.emit(telemetry.KindTierPromote, nil, nil, d, 0)
	}
	if d := led.SpillBytes - before.SpillBytes; d > 0 {
		c.emit(telemetry.KindTierSpill, nil, nil, d, 0)
	}
	if d := led.FreedBytes - before.FreedBytes; d > 0 {
		c.emit(telemetry.KindTierEvict, nil, nil, d, 0)
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
