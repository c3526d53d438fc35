// Package telemetry is the simulator's deterministic observability layer:
// request span traces, sim-time metric streams, and a fixed-size flight
// recorder for post-mortem debugging. End-of-run aggregate reports say *how
// much*; telemetry says *what happened when* — which queue filled before
// the goodput dip, which shard's re-drives landed where, what the last N
// events before an invariant violation were.
//
// Everything here is a pure function of (config, trace, seed): events carry
// virtual sim.Time, never wall clock; buffers are appended in simulation
// order by exactly one goroutine each (one Recorder per shard, plus a
// front-door Recorder written only between epoch barriers); exports walk
// recorders in shard order and format floats deterministically. The same
// run therefore exports byte-identical bytes regardless of -parallel
// workers, fleet Workers, or arena reuse.
//
// The controller feeds it from the same emission point that drives
// core.Probe: each lifecycle transition is one Kind-tagged emit, recorded
// here first and then dispatched to the probe. A disabled layer is a nil
// Recorder pointer in core.Config and costs one nil check per emission —
// no allocation, no interface dispatch, no closure. All recording methods
// take scalar arguments so `//slinfer:hotpath` callers never box.
package telemetry

import "slinfer/internal/sim"

// Kind tags one telemetry event. Span-phase kinds (Admit..Drop) are
// assembled into Chrome trace-event spans at export time; the rest render
// as instant events.
type Kind uint8

const (
	// KindAdmit: request admitted at the controller front door.
	// Req=request ID, A=input tokens, B=cached prefix tokens.
	KindAdmit Kind = iota
	// KindEnqueue: request entered the pending queue (no instance had
	// room). Req=request ID.
	KindEnqueue
	// KindPlace: request placed on an instance; prefill begins.
	// Req=request ID, Inst=instance.
	KindPlace
	// KindFirstToken: prefill complete, first token out.
	// Req=request ID, Inst=instance.
	KindFirstToken
	// KindDecodeIter: one decode iteration finished on an instance.
	// Inst=instance, A=batch size, B=iteration duration in nanoseconds.
	KindDecodeIter
	// KindComplete: request completed. Req=request ID, A=generated tokens.
	KindComplete
	// KindDrop: request dropped (deadline passed in queue). Req=request ID.
	KindDrop
	// KindPrefixHit: tiered-store lookup matched leading blocks.
	// Req=request ID, A=hit tokens, B=input tokens.
	KindPrefixHit
	// KindPrefixMiss: lookup matched nothing. Req=request ID, A=0 (hit
	// tokens), B=input tokens.
	KindPrefixMiss
	// KindTierPromote: CPU-tier bytes promoted to GPU on a hit. A=bytes.
	KindTierPromote
	// KindTierSpill: GPU-tier bytes demoted to the host tier. A=bytes.
	KindTierSpill
	// KindTierEvict: bytes evicted out of the store entirely. A=bytes.
	KindTierEvict
	// KindPreempt: request evicted/rescheduled (§VII-D migration).
	// Req=request ID, Inst=instance it left, A=migration count.
	KindPreempt
	// KindInstanceUp / KindInstanceDown: instance lifecycle. Inst=instance.
	KindInstanceUp
	KindInstanceDown
	// KindFault: a fault-plan action applied at an epoch boundary
	// (recorded on the fleet front door, Shard=-1). A=target shard,
	// B=fleet-internal op code.
	KindFault
	// KindRedrive: a crash-pulled request re-driven to another shard.
	// Req=request ID, A=source shard, B=destination shard.
	KindRedrive
	// KindRetryExhausted: a pulled request whose retry budget ran out.
	// Req=request ID, A=shard it died on.
	KindRetryExhausted

	kindCount
)

// kindNames index by Kind for exports; append-only so committed goldens
// stay stable.
var kindNames = [kindCount]string{
	"admit", "enqueue", "place", "first_token", "decode_iter", "complete",
	"drop", "prefix_hit", "prefix_miss", "tier_promote", "tier_spill",
	"tier_evict", "preempt", "instance_up", "instance_down", "fault",
	"redrive", "retry_exhausted",
}

// String returns the stable export name of a kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one telemetry record: a point on one shard's virtual timeline.
// Value type, no pointers — ring and buffer writes are plain copies.
type Event struct {
	// T is the virtual time the event fired.
	T sim.Time
	// Kind tags the event.
	Kind Kind
	// Shard is the owning shard row (-1 for fleet front-door events).
	Shard int32
	// Inst is the instance row, -1 when not instance-scoped.
	Inst int32
	// Req is the workload request ID, -1 when not request-scoped.
	Req int64
	// A and B are kind-specific payloads (see Kind docs).
	A, B int64
}

// SampleKind distinguishes the two metric-stream sources.
type SampleKind uint8

const (
	// SampleTick: recorded on a controller's sampler tick.
	SampleTick SampleKind = iota
	// SampleEpoch: recorded at a fleet epoch barrier.
	SampleEpoch
)

// Sample is one windowed metric-stream row.
type Sample struct {
	// T is the virtual sample time.
	T sim.Time
	// Kind is the sampling source (tick or epoch barrier).
	Kind SampleKind
	// Shard is the shard the row describes.
	Shard int32
	// Queue is the pending-queue depth.
	Queue int32
	// Active is the number of in-flight (admitted, not yet terminal)
	// requests beyond the queue — the active batch population.
	Active int32
	// KVGPU / KVCPU are the tiered prefix store's resident bytes per tier
	// (zero when prefix sharing is off).
	KVGPU, KVCPU int64
	// Outstanding is the shard's submitted-minus-terminal count (epoch
	// rows) or mirrors Active (tick rows).
	Outstanding int64
	// Goodput is completions within the closing epoch (epoch rows only).
	Goodput int64
	// RetryBacklog is the fleet retry queue depth (epoch rows only).
	RetryBacklog int32
	// ScheduleNs / ValidationNs are cumulative MeasureOverhead wall-clock
	// counters at sample time. Zero unless core.Config.MeasureOverhead is
	// on — they are real nanoseconds, so runs that set them trade export
	// byte-determinism for profiling data (cmd/slinfer-profile does).
	ScheduleNs, ValidationNs int64
}

// Options selects what a Trace records. The zero value records nothing;
// a nil *Recorder in core.Config disables the layer entirely.
type Options struct {
	// Spans records request span events (and decode iterations).
	Spans bool
	// Series records sim-time metric samples.
	Series bool
	// FlightRing, when > 0, keeps a ring of the last FlightRing events per
	// recorder for post-mortem dumps. Ring writes happen even when Spans
	// is false, so a flight recorder can run without span buffering.
	FlightRing int
}

// DefaultFlightRing is the ring capacity CLI surfaces use for -flightrec.
const DefaultFlightRing = 256

// spanChunk is the number of span events per storage chunk. Record fills
// one chunk and then starts the next, so a buffered span is never copied.
const spanChunk = 1024

// Recorder buffers one shard's telemetry. Exactly one goroutine writes a
// recorder at a time (the shard's own, or the fleet front door between
// barriers); the Trace that owns it merges at export time.
type Recorder struct {
	//slinfer:resetsafe identity: the shard row this recorder is bound to for life
	shard int32
	//slinfer:resetsafe configuration: pillar gates are per-Trace, not per-run
	opts Options
	// chunks[:used] hold the span events in recording order; every one but
	// the last is full. chunks[used:] are empty spares a Reset kept.
	chunks  [][]Event
	used    int
	samples []Sample

	ring    []Event
	ringPos int
	ringLen int
}

// Record appends one span event into the current chunk, starting a new
// chunk when it is full. Hot-path safe: scalar args, no copying of earlier
// events, one branch when the span pillar is off.
//
//slinfer:hotpath
func (r *Recorder) Record(t sim.Time, k Kind, inst int32, req int64, a, b int64) {
	ev := Event{T: t, Kind: k, Shard: r.shard, Inst: inst, Req: req, A: a, B: b}
	if r.opts.Spans {
		if r.used == 0 || len(r.chunks[r.used-1]) == cap(r.chunks[r.used-1]) {
			r.nextChunk()
		}
		c := &r.chunks[r.used-1]
		*c = append(*c, ev)
	}
	if n := len(r.ring); n > 0 {
		r.ring[r.ringPos] = ev
		r.ringPos++
		if r.ringPos == n {
			r.ringPos = 0
		}
		if r.ringLen < n {
			r.ringLen++
		}
	}
}

// nextChunk makes the next chunk current: a spare kept by Reset, or a new
// one.
func (r *Recorder) nextChunk() {
	if r.used == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Event, 0, spanChunk))
	}
	r.used++
}

// spans returns the chunks holding span events, in recording order.
func (r *Recorder) spans() [][]Event { return r.chunks[:r.used] }

// eventCount returns the number of buffered span events.
func (r *Recorder) eventCount() int {
	n := 0
	for _, c := range r.spans() {
		n += len(c)
	}
	return n
}

// Sample appends one metric-stream row.
func (r *Recorder) Sample(s Sample) {
	if !r.opts.Series {
		return
	}
	s.Shard = r.shard
	r.samples = append(r.samples, s)
}

// SpansEnabled reports whether span events are being buffered — callers
// with expensive per-event bookkeeping beyond the Record call may gate on
// it.
func (r *Recorder) SpansEnabled() bool { return r != nil && r.opts.Spans }

// SeriesEnabled reports whether metric samples are being buffered.
func (r *Recorder) SeriesEnabled() bool { return r != nil && r.opts.Series }

// Shard returns the recorder's shard row.
func (r *Recorder) Shard() int { return int(r.shard) }

// Events returns the recorded span events (owned by the recorder). When
// they span more than one chunk, it copies them once into one exact-size
// slice that replaces the chunks, so a repeated call does not copy again.
func (r *Recorder) Events() []Event {
	switch r.used {
	case 0:
		return nil
	case 1:
		return r.chunks[0]
	}
	flat := make([]Event, 0, r.eventCount())
	for _, c := range r.spans() {
		flat = append(flat, c...)
	}
	clear(r.chunks[1:])
	r.chunks = append(r.chunks[:0], flat)
	r.used = 1
	return flat
}

// Reset truncates every buffer in place, keeping capacity (the span chunks
// included) — the arena lifecycle for a recorder reused across runs.
func (r *Recorder) Reset() {
	for i := range r.spans() {
		r.chunks[i] = r.chunks[i][:0]
	}
	r.used = 0
	r.samples = r.samples[:0]
	r.ringPos, r.ringLen = 0, 0
	for i := range r.ring {
		r.ring[i] = Event{}
	}
}

// Trace is one run's telemetry sink: a recorder per shard plus a
// front-door recorder for fleet-level events (routing, faults, re-drives,
// epoch samples). Single-controller runs use Recorder(0) and never touch
// the front door.
type Trace struct {
	//slinfer:resetsafe configuration: pillar gates survive Reset by design
	opts Options
	//slinfer:resetsafe recorder identities persist; Reset empties each one
	recs  []*Recorder
	front *Recorder
}

// New returns an empty trace recording per opts.
func New(opts Options) *Trace { return &Trace{opts: opts} }

// Options returns the recording options the trace was built with.
func (t *Trace) Options() Options { return t.opts }

// Recorder returns the recorder for a shard row, creating recorders up
// through that shard on first use. Not safe for concurrent callers —
// acquire every shard's recorder before fanning out (fleet does this in
// its serial setup loop).
func (t *Trace) Recorder(shard int) *Recorder {
	for len(t.recs) <= shard {
		t.recs = append(t.recs, newRecorder(int32(len(t.recs)), t.opts))
	}
	return t.recs[shard]
}

// Fleet returns the front-door recorder (shard row -1).
func (t *Trace) Fleet() *Recorder {
	if t.front == nil {
		t.front = newRecorder(-1, t.opts)
	}
	return t.front
}

func newRecorder(shard int32, opts Options) *Recorder {
	r := &Recorder{shard: shard, opts: opts}
	if opts.FlightRing > 0 {
		r.ring = make([]Event, opts.FlightRing)
	}
	return r
}

// Reset truncates every recorder for reuse across runs.
func (t *Trace) Reset() {
	for _, r := range t.recs {
		r.Reset()
	}
	if t.front != nil {
		t.front.Reset()
	}
}

// Shards returns how many shard recorders exist.
func (t *Trace) Shards() int { return len(t.recs) }

// recorders returns every recorder in canonical export order: shards
// ascending, then the front door.
func (t *Trace) recorders() []*Recorder {
	out := make([]*Recorder, 0, len(t.recs)+1)
	out = append(out, t.recs...)
	if t.front != nil {
		out = append(out, t.front)
	}
	return out
}

// EventCount returns the total buffered span events across recorders.
func (t *Trace) EventCount() int {
	n := 0
	for _, r := range t.recorders() {
		n += r.eventCount()
	}
	return n
}

// SampleCount returns the total buffered metric rows across recorders.
func (t *Trace) SampleCount() int {
	n := 0
	for _, r := range t.recorders() {
		n += len(r.samples)
	}
	return n
}
