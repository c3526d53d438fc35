// Package compute is SLINFER's headroom-driven compute subsystem (§VI):
// token-level iteration scheduling that always serves the most urgent
// request (Eq. 1, Figure 14), and shadow validation (§VI-C) that virtually
// adds a request to a candidate instance and simulates the node's future
// iteration schedule — with 10% overestimation — to prove no SLO is
// violated before admitting it.
package compute

import (
	"math"

	"slinfer/internal/engine"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
)

// PickMinHeadroom implements the token-level scheduling cycle: across the
// executor's instances, run the iteration whose driving request has the
// least headroom (Figure 14). ok is false when nothing is runnable.
//
// An instance's least headroom is MinDeadline().Sub(now) bit for bit
// (rounding is monotone), so instances compare on their cached earliest
// deadline with NextWork's first-strict-minimum rule, and only the winner
// is scanned for its work. A winner with no prefill waiting is not scanned
// at all: its driving request can only be in the batch, so NextWork's
// answer is the batch's decode.
//
//slinfer:hotpath
func PickMinHeadroom(insts []*engine.Instance, now sim.Time) (engine.Work, bool) {
	var best *engine.Instance
	var bestH sim.Duration
	for _, inst := range insts {
		if !inst.HasWork() {
			continue
		}
		if h := inst.MinDeadline().Sub(now); best == nil || h < bestH {
			best, bestH = inst, h
		}
	}
	if best == nil {
		return engine.Work{}, false
	}
	if len(best.WaitingPrefill) == 0 {
		return engine.Work{Inst: best, Kind: engine.DecodeWork}, true
	}
	w, _, _ := best.NextWork(now)
	return w, true
}

// PickFIFO is the ablation alternative: serve instances round-robin-by-order
// with prefill priority, ignoring headroom.
//
//slinfer:hotpath
func PickFIFO(insts []*engine.Instance, now sim.Time) (engine.Work, bool) {
	for _, inst := range insts {
		if !inst.HasWork() {
			continue
		}
		if len(inst.WaitingPrefill) > 0 {
			return engine.Work{Inst: inst, Kind: engine.PrefillWork, Req: inst.WaitingPrefill[0]}, true
		}
		return engine.Work{Inst: inst, Kind: engine.DecodeWork}, true
	}
	return engine.Work{}, false
}

// Reason explains a shadow-validation rejection; the three cases of
// Figure 15.
type Reason int

const (
	// OK means validation passed.
	OK Reason = iota
	// NewTTFT: the new request's prefill would finish too late (case 1).
	NewTTFT
	// ExistingDelayed: an existing request would miss a token deadline
	// because of the insertion (case 2).
	ExistingDelayed
	// AggregateDecode: the node's combined decode round would exceed the
	// TPOT SLO (case 3).
	AggregateDecode
)

func (r Reason) String() string {
	switch r {
	case OK:
		return "ok"
	case NewTTFT:
		return "new-request-ttft"
	case ExistingDelayed:
		return "existing-delayed"
	default:
		return "aggregate-decode"
	}
}

// ReqView is the projection of one request for shadow validation.
type ReqView struct {
	// Deadline is the absolute deadline of the request's next token.
	Deadline sim.Time
	// TPOT is the per-token SLO that advances the deadline.
	TPOT sim.Duration
	// InputLen is the prompt length (prefill cost).
	InputLen int
	// Ctx is the current context footprint in tokens.
	Ctx int
	// NeedsPrefill marks requests whose (re-)prefill has not run.
	NeedsPrefill bool
	// IsNew marks the request under validation.
	IsNew bool
}

// InstView is the projection of one instance.
type InstView struct {
	Profile *perfmodel.Profile
	Reqs    []ReqView
	// BlockedUntil delays the instance's first virtual iteration (an
	// in-flight KV resize or cold start).
	BlockedUntil sim.Time
}

// appendViews appends the views of inst's requests to buf: the decode
// batch, then the prefill queue.
func appendViews(buf []ReqView, inst *engine.Instance) []ReqView {
	for _, r := range inst.Running {
		buf = append(buf, ReqView{
			Deadline: r.NextDeadline(), TPOT: r.Obj.TPOT,
			InputLen: r.W.InputLen, Ctx: r.ContextTokens(),
		})
	}
	for _, r := range inst.WaitingPrefill {
		// A migrated request re-prefills its whole context.
		buf = append(buf, ReqView{
			Deadline: r.NextDeadline(), TPOT: r.Obj.TPOT,
			InputLen: r.ContextTokens(), Ctx: r.ContextTokens(), NeedsPrefill: true,
		})
	}
	return buf
}

// ViewRequest builds the candidate's ReqView. For migrated requests the
// prefill cost covers the full context.
func ViewRequest(r *engine.Request) ReqView {
	return ReqView{
		Deadline: r.NextDeadline(), TPOT: r.Obj.TPOT,
		InputLen: r.ContextTokens(), Ctx: r.ContextTokens(),
		NeedsPrefill: true, IsNew: true,
	}
}

// Validator performs shadow validation.
type Validator struct {
	// Overestimate inflates every estimated iteration (paper: 10%).
	Overestimate float64
	// DecodeRounds is how many decode iterations per instance to verify
	// after the new request's prefill lands.
	DecodeRounds int
	// MaxSteps bounds the virtual simulation.
	MaxSteps int

	// Validations and Rejections count outcomes for the overhead study.
	Validations int64
	Rejections  int64
	// EarlyAccepts counts the passing validations that the demand test
	// settled before the step loop's end (see simulate).
	EarlyAccepts int64

	// Scratch storage for the projection, reused across dry runs (one can
	// run per admission attempt, so fresh copies dominated the allocation
	// profile). A Validator is therefore not safe for concurrent use; each
	// controller owns one. simulate's running state sits behind a pointer
	// so that the Validator stays in the 112-byte allocation size class:
	// one more word (even unused padding) moved it to the 128-byte class
	// and slowed BenchmarkSub_FleetEpochWide/64shard by about a fifth.
	projScratch []InstView
	reqScratch  []ReqView
	states      *[]instState
}

// Reset rebinds a recycled validator's tuning and zeroes its outcome
// counters for a new run, keeping the scratch capacity (but dropping the
// stale profiles and request views its backing arrays still pin). Reused
// controllers must call this or ValidationCount accumulates across runs.
func (v *Validator) Reset(overestimate float64, decodeRounds, maxSteps int) {
	v.Overestimate, v.DecodeRounds, v.MaxSteps = overestimate, decodeRounds, maxSteps
	v.Validations, v.Rejections, v.EarlyAccepts = 0, 0, 0
	v.projScratch = wipe(v.projScratch)
	v.reqScratch = wipe(v.reqScratch)
	if v.states != nil {
		*v.states = wipe(*v.states)
	}
}

// wipe zeroes a scratch slice's full backing array and returns the empty
// prefix for reuse.
func wipe[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// Project builds the §VI-C projection of insts into the validator's
// scratch: one view per instance in order, skip left out, and newReq
// appended to cand's requests. A nil cand is a scale-out: newReq goes to a
// fresh instance with profile fresh, appended as the last view. The views
// carry no blocking; a caller that charges it sets BlockedUntil before
// Check. The projection is valid until the next Project. A cand that is
// skip or absent from insts yields nil, which Check rejects as NewTTFT.
func (v *Validator) Project(insts []*engine.Instance, skip, cand *engine.Instance, fresh *perfmodel.Profile, newReq ReqView) []InstView {
	n, need := 0, 1 // newReq
	for _, inst := range insts {
		if inst != skip {
			n++
			need += len(inst.Running) + len(inst.WaitingPrefill)
		}
	}
	// Size the request buffer up front: growth mid-build would detach the
	// windows already carved from it.
	if cap(v.reqScratch) < need {
		v.reqScratch = make([]ReqView, 0, 2*need)
	}
	if cap(v.projScratch) < n+1 {
		v.projScratch = make([]InstView, 0, 2*(n+1))
	}
	proj, buf := v.projScratch[:0], v.reqScratch[:0]
	found := cand == nil
	for _, inst := range insts {
		if inst == skip {
			continue
		}
		start := len(buf)
		buf = appendViews(buf, inst)
		if inst == cand {
			buf = append(buf, newReq)
			found = true
		}
		proj = append(proj, InstView{Profile: inst.Profile, Reqs: buf[start:len(buf):len(buf)]})
	}
	if cand == nil {
		buf = append(buf, newReq)
		proj = append(proj, InstView{Profile: fresh, Reqs: buf[len(buf)-1 : len(buf) : len(buf)]})
	}
	v.projScratch, v.reqScratch = proj, buf
	if !found {
		return nil
	}
	return proj
}

// Check simulates the executor's future schedule over proj from now (the
// executor is busy until busyUntil) and counts the validation. It returns
// OK only if no request misses a deadline in the horizon and the aggregate
// decode round fits the TPOT SLO; a nil proj is NewTTFT. The simulation
// advances proj's views in place.
//
// The projection mirrors the live scheduler: min-headroom iteration order,
// estimated durations inflated by Overestimate, decode advancing every
// batch member's deadline.
func (v *Validator) Check(now, busyUntil sim.Time, proj []InstView, tpotSLO sim.Duration) Reason {
	v.Validations++
	reason := NewTTFT
	if proj != nil {
		reason = v.simulate(now, busyUntil, proj, tpotSLO)
	}
	if reason != OK {
		v.Rejections++
	}
	return reason
}

// ValidateWithout checks newReq on cand with skip left out and no blocking
// charged: the §VIII-A dry run of a grower once its victim is gone.
func (v *Validator) ValidateWithout(now, busyUntil sim.Time, insts []*engine.Instance, skip, cand *engine.Instance, newReq ReqView, tpotSLO sim.Duration) Reason {
	return v.Check(now, busyUntil, v.Project(insts, skip, cand, nil, newReq), tpotSLO)
}

// instState is simulate's running state for one projected instance: its
// decode batch (the requests past prefill), their summed context, and the
// earliest next-token deadline over all of its requests. A step updates
// only the instance it ran, so it picks the next instance in O(instances)
// instead of rescanning every request for headroom, batch and context.
type instState struct {
	batch, ctx int
	minD       sim.Time
	// rounds counts decode iterations after the new request's prefill.
	rounds int
	// wcet and period are the demand test's bound on one decode of the
	// instance and the least TPOT among its requests.
	wcet, period sim.Duration
	// cur is the instance's decode-estimate cursor. It outlives the
	// simulate call: it checks its own profile and brackets, so a slot
	// reused for another instance stays exact.
	cur perfmodel.DecodeCursor
}

// factor is the overestimation multiplier, with a non-positive
// Overestimate (a zero-value Validator) meaning none.
func (v *Validator) factor() sim.Duration {
	if v.Overestimate <= 0 {
		return 1
	}
	return sim.Duration(v.Overestimate)
}

// RejectsAggregate runs Check's case-3 check (Figure 15) on live instances
// before any view is built. A request under validation still needs its
// prefill, so it never joins a decode batch: the round summed here from
// insts' running batches, in the same order and with the same factor, is
// bit for bit the round Check computes over Project's views of insts with
// a request or a fresh instance added. When it already exceeds tpotSLO,
// Check would return AggregateDecode (given a valid candidate), so
// RejectsAggregate counts that validation and its rejection and returns
// true. Otherwise it counts nothing.
func (v *Validator) RejectsAggregate(insts []*engine.Instance, tpotSLO sim.Duration) bool {
	over := v.factor()
	var round sim.Duration
	for _, inst := range insts {
		if inst.BatchSize() == 0 {
			continue
		}
		round += over * inst.EstimateDecode()
	}
	if round <= tpotSLO {
		return false
	}
	v.Validations++
	v.Rejections++
	return true
}

// simulate runs the virtual schedule over a projection it may mutate.
//
// Once the new request has prefilled, no request awaits a prefill and no
// instance is blocked past the virtual clock, the rest of the loop only
// decodes, and decodesFeasible can prove that no decode in the remaining
// horizon misses its deadline: simulate then returns OK without stepping
// there (EarlyAccepts counts it). The answer is the loop's own, only
// found sooner; built with the slinfer_fullrun tag, simulate keeps
// stepping after such a proof and panics unless the loop also ends in OK.
func (v *Validator) simulate(now, busyUntil sim.Time, proj []InstView, tpotSLO sim.Duration) (reason Reason) {
	over := v.factor()
	if v.states == nil {
		v.states = new([]instState)
	}
	if cap(*v.states) < len(proj) {
		*v.states = make([]instState, 2*len(proj))
	}
	st := (*v.states)[:len(proj)]

	// Case 3 (Figure 15): the aggregate decode round across all colocated
	// instances must fit within one TPOT budget, otherwise decode tokens
	// cannot be sustained even with perfect interleaving.
	var round sim.Duration
	pending := 0 // requests still awaiting their prefill
	for i := range proj {
		s := &st[i]
		s.batch, s.ctx, s.minD = scanInst(proj[i].Reqs)
		s.rounds = 0
		pending += len(proj[i].Reqs) - s.batch
		if s.batch == 0 {
			continue
		}
		round += over * proj[i].Profile.EstimateDecodeAt(&s.cur, s.batch, s.ctx/s.batch)
	}
	if round > tpotSLO {
		return AggregateDecode
	}

	early := false
	if FullRun {
		defer func() {
			if early && reason != OK {
				panic("compute: the demand test accepted a validation the full step loop rejects as " + reason.String())
			}
		}()
	}
	vclock := now
	if busyUntil > vclock {
		vclock = busyUntil
	}
	newPrefilled := false
	for step := 0; step < v.MaxSteps; step++ {
		// Termination: the new request prefilled and every instance
		// verified DecodeRounds decode iterations (or has no work).
		if newPrefilled {
			done := true
			for i := range proj {
				if len(proj[i].Reqs) > 0 && st[i].rounds < v.DecodeRounds {
					done = false
					break
				}
			}
			if done {
				return OK
			}
		}
		// Min-headroom instance selection, mirroring PickMinHeadroom.
		// Rounding is monotone, so minD - vclock is exactly the least of
		// the instance's per-request headrooms.
		best, bestH := -1, sim.Duration(0)
		for i := range proj {
			if len(proj[i].Reqs) == 0 {
				continue
			}
			h := st[i].minD.Sub(vclock)
			if best == -1 || h < bestH {
				best, bestH = i, h
			}
		}
		if best == -1 {
			return OK
		}
		iv, s := &proj[best], &st[best]
		start := vclock
		if iv.BlockedUntil > start {
			start = iv.BlockedUntil
		}
		// Run the most urgent request's iteration.
		ri := mostUrgentReq(iv.Reqs, s.minD, vclock)
		r := &iv.Reqs[ri]
		if r.NeedsPrefill {
			end := start.Add(over * iv.Profile.EstimatePrefill(r.InputLen))
			if end > r.Deadline {
				if r.IsNew {
					return NewTTFT
				}
				return ExistingDelayed
			}
			r.NeedsPrefill = false
			r.Deadline = r.Deadline.Add(r.TPOT)
			r.Ctx++
			s.batch++
			s.ctx += r.Ctx
			_, _, s.minD = scanInst(iv.Reqs)
			pending--
			if r.IsNew {
				newPrefilled = true
			}
			vclock = end
			if newPrefilled && pending == 0 && decodesFeasible(proj, st, vclock, v.MaxSteps-step-1, over) {
				v.EarlyAccepts++
				if !FullRun {
					return OK
				}
				early = true
			}
			continue
		}
		// Decode the whole batch of this instance.
		end := start.Add(over * iv.Profile.EstimateDecodeAt(&s.cur, s.batch, s.ctx/s.batch))
		for j := range iv.Reqs {
			q := &iv.Reqs[j]
			if !q.NeedsPrefill {
				if end > q.Deadline {
					if q.IsNew {
						return NewTTFT
					}
					return ExistingDelayed
				}
				q.Deadline = q.Deadline.Add(q.TPOT)
				q.Ctx++
			}
			if j == 0 || q.Deadline < s.minD {
				s.minD = q.Deadline
			}
		}
		s.ctx += s.batch
		if newPrefilled {
			s.rounds++
		}
		vclock = end
	}
	// Horizon exhausted without violation.
	return OK
}

// earlyEps is the slack decodesFeasible demands at every breakpoint. It
// absorbs the rounding the step loop and the test itself accumulate, which
// decodesFeasible bounds far below it before it answers.
const earlyEps sim.Duration = 1e-6

// decodesFeasible reports whether the decode-only remainder of a dry run
// provably meets every deadline in its remaining rem steps: every request
// has prefilled, and no instance is blocked past vclock. It is the
// processor-demand test for EDF on one machine (DESIGN.md "Shadow-validation
// cost"): instance i's k-th decode from now is due no earlier than
// minD_i + k*period_i and takes at most wcet_i, and the linear bound on the
// work due by t must leave earlyEps of slack at each breakpoint minD_j,
// with total utilisation at most 1.
func decodesFeasible(proj []InstView, st []instState, vclock sim.Time, rem int, over sim.Duration) bool {
	if rem <= 0 {
		return false
	}
	var util, far, step float64
	for i := range proj {
		reqs := proj[i].Reqs
		if len(reqs) == 0 {
			continue
		}
		if proj[i].BlockedUntil > vclock {
			return false
		}
		s := &st[i]
		s.period = reqs[0].TPOT
		for _, r := range reqs[1:] {
			s.period = min(s.period, r.TPOT)
		}
		if s.period <= 0 {
			return false
		}
		// The k-th decode from now runs at average length a+k.
		a := s.ctx / s.batch
		s.wcet = over * proj[i].Profile.MaxDecode(s.batch, a, a+rem-1)
		util += float64(s.wcet / s.period)
		far = max(far, math.Abs(float64(s.minD)))
		step = max(step, float64(s.period+s.wcet))
	}
	// mag bounds every time the remaining loop and this test compute. A
	// comparison they make sees at most rem roundings of a deadline, rem
	// of the clock, one of a headroom and 5n+3 in this test, each off by
	// at most mag*2^-53; the bound below counts 4*rem+8n+8 of them.
	mag := math.Abs(float64(vclock)) + far + float64(rem)*step
	if util > 1 || float64(4*rem+8*len(proj)+8)*0x1p-53*mag > float64(earlyEps)/2 {
		return false
	}
	for j := range proj {
		if len(proj[j].Reqs) == 0 {
			continue
		}
		t := st[j].minD
		var demand sim.Duration
		for i := range proj {
			if len(proj[i].Reqs) == 0 || st[i].minD > t {
				continue
			}
			demand += st[i].wcet * (1 + t.Sub(st[i].minD)/st[i].period)
		}
		if demand > t.Sub(vclock)-earlyEps {
			return false
		}
	}
	return true
}

// scanInst computes an instance's decode batch, summed context and
// earliest deadline from its request views.
func scanInst(reqs []ReqView) (batch, ctx int, minD sim.Time) {
	for i, r := range reqs {
		if i == 0 || r.Deadline < minD {
			minD = r.Deadline
		}
		if !r.NeedsPrefill {
			batch++
			ctx += r.Ctx
		}
	}
	return batch, ctx, minD
}

// mostUrgentReq returns the index of the first request with the least
// headroom at now, given minD, the earliest deadline among reqs. Rounding
// is monotone, so that headroom is minD.Sub(now), and the first request
// whose own headroom equals it is the first strict minimum of a full scan.
func mostUrgentReq(reqs []ReqView, minD, now sim.Time) int {
	least := minD.Sub(now)
	for i, r := range reqs {
		if r.Deadline.Sub(now) == least {
			return i
		}
	}
	return 0
}
