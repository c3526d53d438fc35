// Package engine models LLM inference instances: continuous batching with
// prefill and decode iterations (§III-A), per-request SLO tracking, KV-cache
// token accounting, cold-start/keep-alive lifecycle, and the PD-disaggregated
// roles of §IX-G. The engine is pure state machine; virtual-time execution
// lives in the cluster executor, and policy lives in compute/core.
package engine

import (
	"fmt"
	"math"

	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/workload"
)

// ReqState is a request's lifecycle state.
type ReqState int

const (
	// Queued: not yet admitted to any instance.
	Queued ReqState = iota
	// WaitingPrefill: admitted, prefill not yet executed.
	WaitingPrefill
	// Decoding: prefill done, generating tokens in the batch.
	Decoding
	// Transferring: KV in flight to a decode instance (PD disaggregation).
	Transferring
	// Done: all output tokens generated.
	Done
	// Dropped: abandoned because queueing exceeded the TTFT SLO.
	Dropped
)

func (s ReqState) String() string {
	switch s {
	case Queued:
		return "queued"
	case WaitingPrefill:
		return "waiting-prefill"
	case Decoding:
		return "decoding"
	case Transferring:
		return "transferring"
	case Done:
		return "done"
	default:
		return "dropped"
	}
}

// Request is the runtime state of one invocation.
type Request struct {
	// W is the arrival record from the trace.
	W workload.Request
	// Obj is the request's SLO.
	Obj slo.Objective
	// Tracker accumulates attainment. Embedded by value (its methods take
	// pointer receivers and requests are always handled as *Request): one
	// request costs one allocation, not two.
	Tracker slo.Tracker
	// State is the lifecycle state.
	State ReqState
	// Generated is the number of output tokens produced.
	Generated int
	// Inst is the hosting instance (nil while queued).
	Inst *Instance
	// Migrations counts §VII-D evictions/reschedules of this request.
	Migrations int
	// CachedPrefixTokens is the leading span of the prompt served from the
	// tiered prefix store at admission; the prefill recomputes only the
	// suffix. Zero when prefix sharing is off or the lookup missed.
	CachedPrefixTokens int
	// PrefixXfer is the tier-transfer cost (CPU->GPU promotion) the hit
	// incurred; it is added to the prefill duration.
	PrefixXfer sim.Duration
}

// NewRequest wraps a trace record with the paper's default SLO and tracker.
func NewRequest(w workload.Request) *Request {
	return NewRequestWith(w, slo.Default(w.InputLen))
}

// NewRequestWith wraps a trace record with an explicit SLO. The scenario
// matrix uses it to sweep SLO classes; Config.SLO routes through here.
func NewRequestWith(w workload.Request, obj slo.Objective) *Request {
	return &Request{
		W: w, Obj: obj,
		Tracker: slo.MakeTracker(obj, w.Arrival),
		State:   Queued,
	}
}

// ContextTokens is the KV footprint of the request in tokens.
func (r *Request) ContextTokens() int { return r.W.InputLen + r.Generated }

// Finished reports whether all output tokens have been generated.
func (r *Request) Finished() bool { return r.Generated >= r.W.OutputLen }

// Headroom returns the Eq.-1 headroom at now.
func (r *Request) Headroom(now sim.Time) sim.Duration { return r.Tracker.Headroom(now) }

// InstState is an instance's lifecycle state.
type InstState int

const (
	// Loading: weights are being fetched (cold start).
	Loading InstState = iota
	// Active: serving (possibly idle within keep-alive).
	Active
	// Unloading: weights being released; terminal.
	Unloading
)

func (s InstState) String() string {
	switch s {
	case Loading:
		return "loading"
	case Active:
		return "active"
	default:
		return "unloading"
	}
}

// Role distinguishes PD-disaggregated instances (§IX-G).
type Role int

const (
	// Mixed instances run both stages (SLINFER's default, §V).
	Mixed Role = iota
	// PrefillOnly instances run prefill and ship KV to a decode instance.
	PrefillOnly
	// DecodeOnly instances receive KV and run decode.
	DecodeOnly
)

// Instance is one loaded copy of a model on a node (or node pair for TP).
type Instance struct {
	// ID is unique within a run.
	ID int
	// Model is the served model.
	Model model.Model
	// Class is the host device class (drives ground-truth latencies).
	Class hwsim.DeviceClass
	// Share is the node fraction this instance may use: 1 under elastic or
	// exclusive allocation, 1/k under static partitioning.
	Share float64
	// NodeIdxs are the indices of host nodes in the cluster (len 2 for TP).
	NodeIdxs []int
	// Profile is the perfmodel used for estimates (scheduling only).
	Profile *perfmodel.Profile
	// Cache is the KV accounting.
	Cache *kvcache.Cache
	// State is the lifecycle state.
	State InstState
	// Role is Mixed unless PD disaggregation is enabled.
	Role Role

	// WaitingPrefill holds admitted requests awaiting their prefill
	// iteration, in admission order.
	WaitingPrefill []*Request
	// Running is the continuous batch in decode. Change either queue, or a
	// member's Generated or deadlines, only through the methods below:
	// they keep TotalContextTokens and MinDeadline current.
	Running []*Request

	// ResizeInFlight marks a KV resize in progress; iterations are blocked
	// until it completes (this is the scaling overhead of §IX-I5).
	ResizeInFlight bool
	// minDOK and decodeOK mark minD and decodeEst current. They sit in the
	// padding after ResizeInFlight, which keeps an Instance in the same
	// 384-byte allocation size class as before the cached facts.
	minDOK, decodeOK bool
	// KVTarget is the allocation size the latest admitted resize moves to.
	KVTarget int64
	// ResizeDoneAt is when the in-flight resize lands. Scale-out validation
	// charges colocated candidates only the remaining fraction of the
	// resize, not a fresh full-size transfer.
	ResizeDoneAt sim.Time

	// CreatedAt is the creation time; stats below feed the metrics.
	CreatedAt    sim.Time
	LastActiveAt sim.Time
	Iterations   int64
	ScalingBusy  sim.Duration

	// DecodePenalty multiplies decode durations (NEO+ CPU-offload path or
	// background CPU stress); zero means no penalty.
	DecodePenalty float64

	// decode caches the (Class, Model) decode polynomial; built lazily so
	// hand-constructed test instances need no extra setup.
	decode hwsim.DecodeCoeffs
	// kvOwner/weightsOwner cache the ledger owner names (derived from ID).
	kvOwner, weightsOwner string
	// finishedScratch backs CompleteDecode's result across iterations.
	finishedScratch []*Request

	// ctxSum is the summed context of Running, kept by every mutator that
	// changes Running or a member's Generated (TotalContextTokens).
	ctxSum int
	// minD caches the earliest next-token deadline over WaitingPrefill and
	// Running; every mutator that touches either queue or a member's
	// tracker clears minDOK (MinDeadline).
	minD sim.Time
	// decodeEst caches EstimateDecode; every mutator that changes ctxSum
	// or the batch size clears decodeOK.
	decodeEst sim.Duration
}

// Recycle strips a retired instance back to an empty shell for reuse: every
// field is zeroed except the slice capacities (NodeIdxs, request queues,
// scratch) and the Cache object, which the next creation rebinds with
// Cache.Reset. Only recycle instances no scheduled event can still reach —
// in practice, at an arena reset after the simulator's queue was discarded,
// never mid-run.
func (i *Instance) Recycle() {
	cache := i.Cache
	idxs := i.NodeIdxs[:0]
	waiting := clearRequests(i.WaitingPrefill)
	running := clearRequests(i.Running)
	scratch := clearRequests(i.finishedScratch)
	*i = Instance{
		NodeIdxs: idxs, Cache: cache,
		WaitingPrefill: waiting, Running: running, finishedScratch: scratch,
	}
}

// clearRequests nils out a request slice (so recycled shells pin nothing)
// and returns its empty prefix for reuse.
func clearRequests(rs []*Request) []*Request {
	for k := range rs {
		rs[k] = nil
	}
	return rs[:0]
}

// KVOwner returns the memctl allocation name for this instance's KV cache.
func (i *Instance) KVOwner() string {
	if i.kvOwner == "" {
		i.kvOwner = fmt.Sprintf("inst%d/kv", i.ID)
	}
	return i.kvOwner
}

// WeightsOwner returns the memctl allocation name for the weights.
func (i *Instance) WeightsOwner() string {
	if i.weightsOwner == "" {
		i.weightsOwner = fmt.Sprintf("inst%d/weights", i.ID)
	}
	return i.weightsOwner
}

// BatchSize returns the current decode batch size.
func (i *Instance) BatchSize() int { return len(i.Running) }

// TotalLoad returns batch size plus pending prefills: the §VIII preemption
// ordering key.
func (i *Instance) TotalLoad() int { return len(i.Running) + len(i.WaitingPrefill) }

// TotalContextTokens returns the summed context of the running batch. The
// sum is kept current by the mutators, so reading it is O(1).
func (i *Instance) TotalContextTokens() int { return i.ctxSum }

// MinDeadline returns the earliest next-token deadline over the prefill
// queue and the decode batch (+Inf when both are empty). It is recomputed
// only after a mutator has invalidated it. Headroom is fl(deadline - now),
// which is monotone in the deadline, so MinDeadline().Sub(now) is bit for
// bit the least headroom NextWork finds.
//
//slinfer:hotpath
func (i *Instance) MinDeadline() sim.Time {
	if !i.minDOK {
		d := sim.Time(math.Inf(1))
		for _, r := range i.WaitingPrefill {
			d = min(d, r.Tracker.NextDeadline())
		}
		for _, r := range i.Running {
			d = min(d, r.Tracker.NextDeadline())
		}
		i.minD, i.minDOK = d, true
	}
	return i.minD
}

// EstimateDecode returns Profile.EstimateDecode for one decode iteration of
// the running batch, which must not be empty, at its size and average
// context. The estimate is a pure function of the profile (fixed for the
// instance's life), the batch size and the summed context, so it is
// computed once per change of either.
func (i *Instance) EstimateDecode() sim.Duration {
	if !i.decodeOK {
		batch := len(i.Running)
		i.decodeEst, i.decodeOK = i.Profile.EstimateDecode(batch, i.ctxSum/batch), true
	}
	return i.decodeEst
}

// HasWork reports whether the instance has an iteration to run.
func (i *Instance) HasWork() bool {
	if i.State != Active {
		return false
	}
	if i.ResizeInFlight {
		return false
	}
	return len(i.WaitingPrefill) > 0 || len(i.Running) > 0
}

// WorkKind distinguishes the two iteration types.
type WorkKind int

const (
	// PrefillWork processes one request's whole prompt.
	PrefillWork WorkKind = iota
	// DecodeWork advances every running request by one token.
	DecodeWork
)

func (k WorkKind) String() string {
	if k == PrefillWork {
		return "prefill"
	}
	return "decode"
}

// Work is one schedulable iteration.
type Work struct {
	Inst *Instance
	Kind WorkKind
	// Req is the prefilling request (nil for decode).
	Req *Request
}

// NextWork returns the most urgent iteration for this instance and the
// headroom of the request driving it (§VI-A): the earliest-deadline request
// decides both whether to run, and whether the iteration is its prefill or
// the batch's decode. ok is false when the instance has no runnable work.
// Work travels by value — the scheduler runs every simulated iteration
// through here, and a per-probe heap allocation dominated its profile.
//
//slinfer:hotpath
func (i *Instance) NextWork(now sim.Time) (w Work, headroom sim.Duration, ok bool) {
	if !i.HasWork() {
		return Work{}, 0, false
	}
	for _, r := range i.WaitingPrefill {
		if h := r.Headroom(now); !ok || h < headroom {
			w, headroom, ok = Work{Inst: i, Kind: PrefillWork, Req: r}, h, true
		}
	}
	for _, r := range i.Running {
		if h := r.Headroom(now); !ok || h < headroom {
			w, headroom, ok = Work{Inst: i, Kind: DecodeWork}, h, true
		}
	}
	return w, headroom, ok
}

// GroundTruthDuration computes the true duration of a work item from the
// hardware substrate, including any decode penalty. Schedulers must not call
// this; they use Profile estimates. A migrated request's (re-)prefill covers
// its whole context, not just the original prompt.
func (i *Instance) GroundTruthDuration(w *Work) sim.Duration {
	var d sim.Duration
	switch w.Kind {
	case PrefillWork:
		// A prefix-cache hit skips recomputation of the cached leading span:
		// only the suffix (at least one token) is prefilled, plus whatever
		// tier-transfer time the hit cost.
		suffix := w.Req.ContextTokens() - w.Req.CachedPrefixTokens
		if suffix < 1 {
			suffix = 1
		}
		d = i.Class.PrefillTime(i.Model, suffix, i.Share) + w.Req.PrefixXfer
	default:
		if !i.decode.Valid() {
			i.decode = i.Class.DecodeCoeffsFor(i.Model)
		}
		d = i.decode.Time(i.BatchSize(), i.TotalContextTokens(), i.Share)
		if i.DecodePenalty > 0 {
			d *= sim.Duration(1 + i.DecodePenalty)
		}
	}
	return d
}

// Admit appends a request to the prefill queue.
func (i *Instance) Admit(r *Request) {
	r.State = WaitingPrefill
	r.Inst = i
	i.WaitingPrefill = append(i.WaitingPrefill, r)
	i.minDOK = false
}

// RemoveWaiting removes a request from the prefill queue (migration/drop).
func (i *Instance) RemoveWaiting(r *Request) bool {
	for k, x := range i.WaitingPrefill {
		if x == r {
			i.WaitingPrefill = append(i.WaitingPrefill[:k], i.WaitingPrefill[k+1:]...)
			i.minDOK = false
			return true
		}
	}
	return false
}

// RemoveRunning removes a request from the decode batch and releases its KV
// tokens.
func (i *Instance) RemoveRunning(r *Request) bool {
	for k, x := range i.Running {
		if x == r {
			i.Running = append(i.Running[:k], i.Running[k+1:]...)
			i.Cache.ReleaseTokens(int64(r.ContextTokens()))
			i.ctxSum -= r.ContextTokens()
			i.minDOK, i.decodeOK = false, false
			return true
		}
	}
	return false
}

// CompletePrefill transitions a request into the decode batch at time now,
// emitting one token. For fresh requests that is the first output token;
// for migrated requests (§VII-D eviction, §VIII-A preemption) the prefill
// recomputes the full context — prompt plus already-generated tokens — and
// produces the next one. It reports whether the KV tokens fit; on false the
// caller must handle the underestimation path before retrying.
//
//slinfer:hotpath
func (i *Instance) CompletePrefill(r *Request, now sim.Time) bool {
	// Context tokens plus the newly generated one.
	tokens := int64(r.ContextTokens()) + 1
	if !i.Cache.AddTokens(tokens) {
		return false
	}
	i.RemoveWaiting(r)
	r.Generated++
	r.Tracker.RecordToken(now)
	i.minDOK = false
	if r.Finished() || i.Role == PrefillOnly {
		// Single-token outputs complete at prefill; PD prefill instances
		// hand off without joining a batch.
		i.Cache.ReleaseTokens(tokens)
		if r.Finished() {
			r.State = Done
		} else {
			r.State = Transferring
		}
		r.Inst = nil
		return true
	}
	r.State = Decoding
	i.Running = append(i.Running, r)
	i.ctxSum += r.ContextTokens()
	i.decodeOK = false
	return true
}

// JoinDecode admits a prefilled request (PD transfer arrival) directly into
// the decode batch. Reports whether the KV fits.
func (i *Instance) JoinDecode(r *Request) bool {
	if !i.Cache.AddTokens(int64(r.ContextTokens())) {
		return false
	}
	r.State = Decoding
	r.Inst = i
	i.Running = append(i.Running, r)
	i.ctxSum += r.ContextTokens()
	i.minDOK, i.decodeOK = false, false
	return true
}

// CompleteDecode advances every running request one token at time now and
// returns the requests that finished (already removed from the batch, KV
// released). It reports underestimation when the batch's new tokens do not
// fit the cache (§VII-D); in that case no tokens are produced. Either way
// MinDeadline stays current without a rescan.
//
// The returned slice is scratch storage reused by the next CompleteDecode
// call on this instance; callers must finish with it before the instance
// runs another decode iteration (one allocation per iteration otherwise).
//
//slinfer:hotpath
func (i *Instance) CompleteDecode(now sim.Time) (finished []*Request, underestimated bool) {
	if len(i.Running) == 0 {
		return nil, false
	}
	if !i.Cache.AddTokens(int64(len(i.Running))) {
		return nil, true
	}
	finished = i.finishedScratch[:0]
	keep := i.Running[:0]
	i.ctxSum += len(i.Running)
	i.decodeOK = false
	// The loop visits every member of the batch anyway, so it folds the new
	// earliest deadline as it goes and leaves MinDeadline current: the
	// same min over the same deadlines as MinDeadline's own scan, and min
	// is exact in any order.
	d := sim.Time(math.Inf(1))
	for _, r := range i.WaitingPrefill {
		d = min(d, r.Tracker.NextDeadline())
	}
	for _, r := range i.Running {
		r.Generated++
		r.Tracker.RecordToken(now)
		if r.Finished() {
			r.State = Done
			r.Inst = nil
			i.Cache.ReleaseTokens(int64(r.ContextTokens()))
			i.ctxSum -= r.ContextTokens()
			finished = append(finished, r)
		} else {
			keep = append(keep, r)
			d = min(d, r.Tracker.NextDeadline())
		}
	}
	i.minD, i.minDOK = d, true
	// Compact in place (this runs once per decode iteration — a fresh copy
	// here was a top allocation site); nil the tail so the dropped requests
	// are not pinned by the backing array.
	for k := len(keep); k < len(i.Running); k++ {
		i.Running[k] = nil
	}
	i.Running = keep
	i.finishedScratch = finished
	return finished, false
}

// AppendKVReqStates appends the live requests' Eq.-2 inputs to buf and
// returns it, covering both the decode batch and admitted-but-unprefilled
// requests; hot callers reuse one scratch buffer instead of allocating.
func (i *Instance) AppendKVReqStates(buf []kvcache.ReqState) []kvcache.ReqState {
	for _, r := range i.Running {
		buf = append(buf, kvcache.ReqState{InputLen: r.W.InputLen, Generated: r.Generated})
	}
	for _, r := range i.WaitingPrefill {
		buf = append(buf, kvcache.ReqState{InputLen: r.W.InputLen, Generated: r.Generated})
	}
	return buf
}

// Idle reports whether the instance holds no requests at all.
func (i *Instance) Idle() bool {
	return len(i.WaitingPrefill) == 0 && len(i.Running) == 0
}

// WeightBytesOnNode returns the per-node weight footprint (TP shards on
// GPUs).
func (i *Instance) WeightBytesOnNode() int64 {
	n := len(i.NodeIdxs)
	if n < 1 {
		n = 1
	}
	return i.Model.WeightBytes() / int64(n)
}
