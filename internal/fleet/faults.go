// Fleet-side fault machinery: the closed rejection-reason enum, the
// RetryPolicy decision point, the compiler that quantizes a faults.Plan
// onto the epoch grid, and the front door's fault phases (apply actions,
// decide retries, re-drive) that pull a crashed shard's live requests —
// read from its controller (core.Controller.AppendLive), which owns them —
// and re-route them as their trace records.
//
// All fault handling runs in the serial front-door section at the top of
// an epoch — between barriers no shard is touched from outside — so runs
// with faults keep the byte-identical-across-Workers determinism contract.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"slinfer/internal/faults"
	"slinfer/internal/metrics"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// Rejection-ledger reasons. Every Rejection.Reason the fleet emits is one
// of these constants; RejectionReasons is the closed set the reason-enum
// test locks (a new reason must be added here and there, never inlined).
const (
	// ReasonFleetOverload is an admission-policy shed (MaxOutstanding).
	ReasonFleetOverload = "fleet-overload"
	// ReasonRetryExhausted marks a request pulled off a crashed shard
	// whose retry budget ran out.
	ReasonRetryExhausted = "retry-exhausted"
	// ReasonNoHealthyShard marks a request (arrival or re-drive) that
	// found no healthy shard in the active set to land on.
	ReasonNoHealthyShard = "no-healthy-shard"
)

// RejectionReasons is the closed set of reasons the fleet itself emits.
// Custom AdmissionPolicy implementations may mint their own.
var RejectionReasons = []string{
	ReasonFleetOverload,
	ReasonRetryExhausted,
	ReasonNoHealthyShard,
}

// RetryPolicy decides the fate of a request pulled off a crashed shard.
// Like every fleet decision point it runs in the serial front-door
// section and must be deterministic.
type RetryPolicy interface {
	Name() string
	// Retry is called once per pulled request with its trace record;
	// attempt counts prior re-drives (0 the first time the request is
	// pulled). ok=false sends the request to the rejection ledger as
	// retry-exhausted; otherwise it is re-routed delayEpochs epochs later
	// (0 = this epoch).
	Retry(req workload.Request, attempt int) (ok bool, delayEpochs int)
}

// BudgetedRetry re-drives each pulled request up to Budget times with a
// linear backoff: the k-th re-drive (k starting at 1) waits Backoff*k
// epochs. The zero value retries nothing; the fleet default is
// {Budget: 2, Backoff: 1}.
type BudgetedRetry struct {
	// Budget is the maximum number of re-drives per request.
	Budget int
	// Backoff scales the per-attempt delay in epochs; values < 1 mean
	// re-drive in the same epoch the request was pulled.
	Backoff int
}

func (b BudgetedRetry) Name() string { return fmt.Sprintf("retry@%d", b.Budget) }

func (b BudgetedRetry) Retry(_ workload.Request, attempt int) (bool, int) {
	if attempt >= b.Budget {
		return false, 0
	}
	return true, b.Backoff * (attempt + 1)
}

// actionOp is one compiled fault action. Duration-bearing plan events
// (Slowdown, KVTierDegrade) compile into a start/end action pair.
type actionOp uint8

const (
	opCrash actionOp = iota
	opRecover
	opDrain
	opSlowStart
	opSlowEnd
	opDegradeStart
	opDegradeEnd
)

// faultAction is a plan event quantized onto the epoch grid.
type faultAction struct {
	epoch  int
	shard  int
	op     actionOp
	factor float64
}

// compilePlan quantizes a fault plan onto the epoch grid: an event fires
// at the top of the first epoch whose start is at or after its At time,
// and a duration-bearing event additionally schedules its restore at the
// first epoch boundary at or after At+Duration (at least one epoch
// later, so every fault is observable). Actions come back sorted by
// (epoch, shard, op) — the deterministic application order.
func compilePlan(p *faults.Plan, epochLen sim.Duration) []faultAction {
	if p.Empty() || epochLen <= 0 {
		return nil
	}
	epochAtOrAfter := func(t sim.Time) int {
		e := int(math.Ceil(float64(t) / float64(epochLen)))
		if e < 0 {
			e = 0
		}
		return e
	}
	var out []faultAction
	for _, ev := range p.Events {
		start := epochAtOrAfter(ev.At)
		switch ev.Kind {
		case faults.ShardCrash:
			out = append(out, faultAction{epoch: start, shard: ev.Shard, op: opCrash})
		case faults.ShardRecover:
			out = append(out, faultAction{epoch: start, shard: ev.Shard, op: opRecover})
		case faults.ShardDrain:
			out = append(out, faultAction{epoch: start, shard: ev.Shard, op: opDrain})
		case faults.Slowdown, faults.KVTierDegrade:
			end := epochAtOrAfter(ev.At.Add(ev.Duration))
			if end <= start {
				end = start + 1
			}
			so, eo := opSlowStart, opSlowEnd
			if ev.Kind == faults.KVTierDegrade {
				so, eo = opDegradeStart, opDegradeEnd
			}
			out = append(out,
				faultAction{epoch: start, shard: ev.Shard, op: so, factor: ev.Factor},
				faultAction{epoch: end, shard: ev.Shard, op: eo},
			)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.op < b.op
	})
	return out
}

// retryEntry is a request pulled off a crashed shard: waiting for its
// retry decision, then out its backoff in the retry queue.
type retryEntry struct {
	idx   int // trace arrival index
	ready int // epoch index at which the re-drive may route
	from  int // shard the request was pulled off (telemetry provenance)
}

// arrivalIndex returns the trace arrival index of the request with the
// given ID, building the ID index on first use.
func (fd *frontDoor) arrivalIndex(id int64) int {
	if fd.arrivalIdx == nil {
		fd.arrivalIdx = make(map[int64]int, len(fd.tr.Requests))
		for i, r := range fd.tr.Requests {
			fd.arrivalIdx[r.ID] = i
		}
	}
	return fd.arrivalIdx[id]
}

// applyFaults fires the fault actions due by this epoch, at its top and
// before any routing decision, and patches the stale snapshots' health
// fields in place so this epoch's decisions already route around the
// change. A crash's live requests join fd.pulled.
func (fd *frontDoor) applyFaults() {
	for fd.nextAction < len(fd.actions) && fd.actions[fd.nextAction].epoch <= fd.epoch {
		a := fd.actions[fd.nextAction]
		fd.nextAction++
		if !fd.apply(a) {
			continue
		}
		if fd.front != nil {
			fd.front.Record(fd.start, telemetry.KindFault, -1, -1, int64(a.shard), int64(a.op))
		}
		fd.fired++
		if fd.firstFault < 0 {
			fd.firstFault = fd.epoch
		}
	}
}

// apply performs one fault action on its shard and reports whether it
// changed anything: each case pairs an op with the shard state it needs
// (crashing a down shard, say, is a no-op).
func (fd *frontDoor) apply(a faultAction) bool {
	sd, snap := fd.shards[a.shard], &fd.snaps[a.shard]
	ts := sd.ctl.PrefixStore()
	switch {
	case a.op == opCrash && sd.up:
		for _, req := range sd.crash(fd.start, fd.ck) {
			fd.pulled = append(fd.pulled, retryEntry{idx: fd.arrivalIndex(req.W.ID), from: a.shard})
		}
		snap.Healthy, snap.SlowFactor = false, 1
	case a.op == opRecover && !(sd.up && sd.healthy):
		sd.recover(fd.start, fd.traceEnd, fd.expected)
		snap.Healthy = true
	case a.op == opDrain && sd.up && sd.healthy:
		sd.healthy, snap.Healthy = false, false
	case a.op == opSlowStart && sd.up:
		sd.slow, snap.SlowFactor = a.factor, a.factor
		sd.ctl.SetSlowdown(a.factor)
	case a.op == opSlowEnd && sd.up && sd.slow > 0:
		sd.slow, snap.SlowFactor = 0, 1
		sd.ctl.SetSlowdown(0)
	case a.op == opDegradeStart && sd.up && sd.gpuFull == 0 && ts != nil &&
		int64(a.factor*float64(ts.Config().GPUBytes)) > 0:
		sd.gpuFull = ts.Config().GPUBytes
		sd.ctl.SetPrefixGPUCapacity(int64(a.factor * float64(sd.gpuFull)))
	case a.op == opDegradeEnd && sd.up && sd.gpuFull > 0:
		sd.ctl.SetPrefixGPUCapacity(sd.gpuFull)
		sd.gpuFull = 0
	default:
		return false
	}
	return true
}

// decideRetries meets every request pulled this epoch with the retry
// policy at once: the budget decides at pull time whether it waits out a
// backoff in the retry queue or goes to the ledger.
func (fd *frontDoor) decideRetries() {
	for _, e := range fd.pulled {
		fd.assigned[e.idx] = -1
		r := fd.tr.Requests[e.idx]
		att := fd.attempts[r.ID]
		fd.attempts[r.ID] = att + 1
		ok, delay := fd.cfg.Retry.Retry(r, att)
		if !ok {
			fd.exhaust(e, ReasonRetryExhausted)
			continue
		}
		e.ready = fd.epoch + max(delay, 0)
		fd.retryq = append(fd.retryq, e)
	}
	fd.pulled = fd.pulled[:0]
}

// redrive routes the due retry-queue entries ahead of this epoch's
// arrivals, through the same routing policy. While no healthy shard
// exists they wait without burning budget, and once the plan can no
// longer produce one they go to the ledger.
func (fd *frontDoor) redrive() {
	keep := fd.retryq[:0]
	for _, e := range fd.retryq {
		switch {
		case !fd.healthy && fd.epoch > fd.lastActionEpoch:
			fd.exhaust(e, ReasonNoHealthyShard)
		case !fd.healthy || e.ready > fd.epoch:
			keep = append(keep, e)
		default:
			r := fd.tr.Requests[e.idx]
			r.Arrival = fd.start
			s := fd.route(r)
			if fd.front != nil {
				fd.front.Record(fd.start, telemetry.KindRedrive, -1, r.ID, int64(e.from), int64(s))
			}
			fd.res.Redriven++
			fd.place(r, e.idx, s)
		}
	}
	fd.retryq = keep
}

// exhaust ledgers a pulled request the fleet gives up on.
func (fd *frontDoor) exhaust(e retryEntry, reason string) {
	r := &fd.tr.Requests[e.idx]
	if fd.front != nil {
		fd.front.Record(fd.start, telemetry.KindRetryExhausted, -1, r.ID, int64(e.from), 0)
	}
	fd.res.Rejections = append(fd.res.Rejections, Rejection{
		ID: r.ID, Model: r.ModelName, At: fd.start, Reason: reason,
	})
	fd.res.RetryExhausted++
}

// mergeSegments folds the sequential per-segment reports of one shard
// (produced by crash/recover cycles) into a single shard report.
// MergeReports sums AvgNodesUsed — correct for concurrent shards owning
// disjoint nodes, wrong for time-sliced segments of the same nodes — so
// the node-usage means are re-weighted by segment span afterwards.
// DecodeSpeed is already exact: MergeReports weights it by node-seconds,
// which the segment spans reconstruct.
func mergeSegments(name string, total sim.Duration, segs []metrics.Report) metrics.Report {
	r := metrics.MergeReports(name, total, segs...)
	if total > 0 {
		//slinfer:maporder each key is rewritten independently from the ordered segs slice; no cross-key accumulation
		for kind := range r.AvgNodesUsed {
			var act float64
			for _, s := range segs {
				act += s.AvgNodesUsed[kind] * s.Duration.Seconds()
			}
			r.AvgNodesUsed[kind] = act / total.Seconds()
		}
	}
	return r
}

// recoveryStats derives the canonical-report recovery metrics from the
// per-epoch fleet completion series: the deepest relative goodput
// shortfall after the first fault (against the mean of the pre-fault
// epochs) and how many epochs past the dip goodput took to re-attain
// that baseline (the tail length when it never did).
func recoveryStats(completions []int64, firstFaultEpoch int) (dip float64, recoverEpochs int64) {
	if firstFaultEpoch <= 0 || firstFaultEpoch >= len(completions) {
		return 0, 0
	}
	var base float64
	for _, c := range completions[:firstFaultEpoch] {
		base += float64(c)
	}
	base /= float64(firstFaultEpoch)
	if base <= 0 {
		return 0, 0
	}
	dipEpoch := -1
	for e := firstFaultEpoch; e < len(completions); e++ {
		if d := (base - float64(completions[e])) / base; d > dip {
			dip, dipEpoch = d, e
		}
	}
	if dipEpoch < 0 {
		return 0, 0
	}
	for e := dipEpoch + 1; e < len(completions); e++ {
		if float64(completions[e]) >= base {
			return dip, int64(e - dipEpoch)
		}
	}
	return dip, int64(len(completions) - dipEpoch)
}
