package compute

import (
	"math/rand/v2"
	"slices"
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
)

// simulateRef is the validator's step loop as it was before per-instance
// running state: every step rescans every request for headroom, batch and
// context, picks the request to run by a full scan, and estimates decode
// rounds without a cursor. It is the oracle simulate must agree with.
func (v *Validator) simulateRef(now, busyUntil sim.Time, proj []InstView, tpotSLO sim.Duration) Reason {
	over := sim.Duration(v.Overestimate)
	if over <= 0 {
		over = 1
	}

	// Case 3 (Figure 15): the aggregate decode round across all colocated
	// instances must fit within one TPOT budget, otherwise decode tokens
	// cannot be sustained even with perfect interleaving.
	var round sim.Duration
	for _, iv := range proj {
		batch, ctx := decodeBatch(iv)
		if batch == 0 {
			continue
		}
		round += sim.Duration(v.Overestimate) * iv.Profile.EstimateDecode(batch, ctx/batch)
	}
	if round > tpotSLO {
		return AggregateDecode
	}

	vclock := now
	if busyUntil > vclock {
		vclock = busyUntil
	}
	newPrefilled := false
	roundsAfter := make([]int, len(proj))
	for step := 0; step < v.MaxSteps; step++ {
		// Termination: the new request prefilled and every instance
		// verified DecodeRounds decode iterations (or has no work).
		if newPrefilled {
			done := true
			for i := range proj {
				if len(proj[i].Reqs) > 0 && roundsAfter[i] < v.DecodeRounds {
					done = false
					break
				}
			}
			if done {
				return OK
			}
		}
		// Min-headroom instance selection, mirroring PickMinHeadroom.
		best, bestH := -1, sim.Duration(0)
		for i := range proj {
			if len(proj[i].Reqs) == 0 {
				continue
			}
			h := minHeadroom(proj[i], vclock)
			if best == -1 || h < bestH {
				best, bestH = i, h
			}
		}
		if best == -1 {
			return OK
		}
		iv := &proj[best]
		start := vclock
		if iv.BlockedUntil > start {
			start = iv.BlockedUntil
		}
		// Run the most urgent request's iteration.
		ri := mostUrgentReqRef(*iv, vclock)
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
			if r.IsNew {
				newPrefilled = true
			}
			vclock = end
			continue
		}
		// Decode the whole batch of this instance.
		batch, ctx := decodeBatch(*iv)
		end := start.Add(over * iv.Profile.EstimateDecode(batch, ctx/batch))
		for j := range iv.Reqs {
			q := &iv.Reqs[j]
			if q.NeedsPrefill {
				continue
			}
			if end > q.Deadline {
				if q.IsNew {
					return NewTTFT
				}
				return ExistingDelayed
			}
			q.Deadline = q.Deadline.Add(q.TPOT)
			q.Ctx++
		}
		if newPrefilled {
			roundsAfter[best]++
		}
		vclock = end
	}
	// Horizon exhausted without violation.
	return OK
}

func decodeBatch(iv InstView) (batch, ctx int) {
	for _, r := range iv.Reqs {
		if !r.NeedsPrefill {
			batch++
			ctx += r.Ctx
		}
	}
	return batch, ctx
}

func minHeadroom(iv InstView, now sim.Time) sim.Duration {
	best := sim.Duration(0)
	first := true
	for _, r := range iv.Reqs {
		h := r.Deadline.Sub(now)
		if first || h < best {
			best, first = h, false
		}
	}
	return best
}

// mostUrgentReqRef is mostUrgentReq as a full scan: the first request with
// the strictly least headroom.
func mostUrgentReqRef(iv InstView, now sim.Time) int {
	best, idx := sim.Duration(0), 0
	for i, r := range iv.Reqs {
		h := r.Deadline.Sub(now)
		if i == 0 || h < best {
			best, idx = h, i
		}
	}
	return idx
}

// refProfiles spans fast and slow decode: A100 rounds rarely trip case 3,
// Xeon 13B rounds often do.
func refProfiles() []*perfmodel.Profile {
	return []*perfmodel.Profile{
		reg.Get(hwsim.A100, model.Llama2_7B, 1),
		reg.Get(hwsim.A100, model.Llama2_13B, 1),
		reg.Get(hwsim.XeonGen4, model.Llama2_7B, 1),
		reg.Get(hwsim.XeonGen4, model.Llama2_13B, 1),
	}
}

// randomProjection builds a 1-5 instance projection with 0-7 requests each
// (a mix of decoding and pending prefills, deadlines from already missed to
// loose, some instances blocked) plus the new request on one of them.
//
// With ahead set it builds the shape a work-conserving min-headroom
// schedule leaves behind when it decodes lone requests far ahead of their
// deadlines: instances of 2-7 decoding requests whose next deadlines lie
// 0.3-4 s past now, TPOTs mixed across 0.1, 0.15 and 0.25 s, and only the
// odd pending prefill or blocked instance. On it most passing validations
// take the demand test's early path.
func randomProjection(rng *rand.Rand, now sim.Time, profs []*perfmodel.Profile, ahead bool) []InstView {
	n := 1 + rng.IntN(5)
	cand := rng.IntN(n)
	proj := make([]InstView, n)
	for i := range proj {
		iv := InstView{Profile: profs[rng.IntN(len(profs))]}
		blockOdds, blockMax, k := 4, 0.5, rng.IntN(8)
		if ahead {
			blockOdds, blockMax, k = 12, 2, 2+rng.IntN(6)
		}
		if rng.IntN(blockOdds) == 0 {
			iv.BlockedUntil = now.Add(sim.Duration(rng.Float64() * blockMax))
		}
		for ; k > 0; k-- {
			in := 1 + rng.IntN(4096)
			rv := ReqView{
				Deadline: now.Add(sim.Duration(rng.Float64()*2 - 0.05)),
				TPOT:     sim.Duration(0.1 + 0.15*float64(rng.IntN(2))),
				InputLen: in, Ctx: in + rng.IntN(600),
				NeedsPrefill: rng.IntN(4) == 0,
			}
			if ahead {
				rv.Deadline = now.Add(sim.Duration(0.3 + 3.7*rng.Float64()))
				rv.TPOT = []sim.Duration{0.1, 0.15, slo.DefaultTPOT}[rng.IntN(3)]
				rv.NeedsPrefill = rng.IntN(16) == 0
			}
			iv.Reqs = append(iv.Reqs, rv)
		}
		if i == cand {
			in := 1 + rng.IntN(4096)
			iv.Reqs = append(iv.Reqs, ReqView{
				Deadline: now.Add(sim.Duration(0.5 + 8*rng.Float64())),
				TPOT:     slo.DefaultTPOT, InputLen: in, Ctx: in,
				NeedsPrefill: true, IsNew: true,
			})
		}
		proj[i] = iv
	}
	return proj
}

func cloneProjection(proj []InstView) []InstView {
	out := make([]InstView, len(proj))
	for i, iv := range proj {
		out[i] = iv
		out[i].Reqs = slices.Clone(iv.Reqs)
	}
	return out
}

// simulate must reach the same Reason as the full-rescan step loop on
// random projections across the validator's tunings, including horizons
// short enough to run out, and both of its ways to pass must occur: the
// demand test's early accept and the loop's own end. A run that ends in
// the loop leaves the projection in the reference's end state; an early
// accept stops short of it, except in the slinfer_fullrun build, where
// simulate runs every early accept to the loop's end as well.
func TestSimulateMatchesReference(t *testing.T) {
	const trials = 120000
	rng := rand.New(rand.NewPCG(1, 15))
	profs := refProfiles()
	seen := map[Reason]int{}
	earlyOK, loopOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		v := &Validator{
			Overestimate: []float64{1.0, 1.1, 1.25}[rng.IntN(3)],
			DecodeRounds: 2 + rng.IntN(2),
			MaxSteps:     600,
		}
		switch rng.IntN(8) {
		case 0, 1:
			v.MaxSteps = 1 + rng.IntN(12)
		case 2:
			// No natural end before the horizon: every decode the demand
			// test vouches for is also stepped through.
			v.DecodeRounds = v.MaxSteps
		}
		now := sim.Time(rng.Float64() * 100)
		busyUntil := now
		if rng.IntN(3) == 0 {
			busyUntil = now.Add(sim.Duration(rng.Float64() * 0.4))
		}
		tpot := []sim.Duration{slo.DefaultTPOT, 0.1, 1}[rng.IntN(3)]
		proj := randomProjection(rng, now, profs, rng.IntN(3) == 0)
		ref := cloneProjection(proj)
		want := v.simulateRef(now, busyUntil, ref, tpot)
		got := v.simulate(now, busyUntil, proj, tpot)
		if got != want {
			t.Fatalf("trial %d: simulate=%v, reference=%v", trial, got, want)
		}
		early := v.EarlyAccepts == 1
		if !early || FullRun {
			for i := range proj {
				if !slices.Equal(proj[i].Reqs, ref[i].Reqs) {
					t.Fatalf("trial %d: instance %d ended in a different state", trial, i)
				}
			}
		}
		switch {
		case early:
			earlyOK++
		case got == OK:
			loopOK++
		}
		seen[got]++
	}
	for _, r := range []Reason{OK, NewTTFT, ExistingDelayed, AggregateDecode} {
		if seen[r] == 0 {
			t.Errorf("no trial ended in %v; the generator no longer covers it", r)
		}
	}
	t.Logf("reasons %v; %d passes early, %d through the loop", seen, earlyOK, loopOK)
	if earlyOK == 0 || loopOK == 0 {
		t.Errorf("%d passes took the early path and %d ran the loop; want both", earlyOK, loopOK)
	}
}

// FuzzValidatorEarlyAccept decodes bytes into a projection and a validator
// tuning: whenever simulate accepts early, the full step loop
// (simulateRef) must pass the same projection, and on every input the two
// must agree on the Reason.
func FuzzValidatorEarlyAccept(f *testing.F) {
	profs := refProfiles()
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteSource(data)
		v := &Validator{
			Overestimate: []float64{1.0, 1.1, 1.25}[in.intN(3)],
			DecodeRounds: 2 + in.intN(2),
			MaxSteps:     600,
		}
		if in.intN(4) == 0 {
			v.MaxSteps = 1 + in.intN(40)
		}
		now := sim.Time(in.frac() * 100)
		busyUntil := now.Add(sim.Duration(in.frac() * 0.2))
		tpot := []sim.Duration{slo.DefaultTPOT, 0.1, 1}[in.intN(3)]
		n := 1 + in.intN(5)
		cand := in.intN(n)
		proj := make([]InstView, n)
		for i := range proj {
			iv := InstView{Profile: profs[in.intN(len(profs))]}
			if in.intN(8) == 0 {
				iv.BlockedUntil = now.Add(sim.Duration(in.frac() * 0.5))
			}
			for k := in.intN(8); k > 0; k-- {
				l := 1 + in.intN(4096)
				iv.Reqs = append(iv.Reqs, ReqView{
					Deadline: now.Add(sim.Duration(4.5*in.frac() - 0.1)),
					TPOT:     []sim.Duration{0.1, 0.15, slo.DefaultTPOT}[in.intN(3)],
					InputLen: l, Ctx: l + in.intN(600),
					NeedsPrefill: in.intN(8) == 0,
				})
			}
			if i == cand {
				l := 1 + in.intN(4096)
				iv.Reqs = append(iv.Reqs, ReqView{
					Deadline: now.Add(sim.Duration(0.2 + 8*in.frac())),
					TPOT:     slo.DefaultTPOT, InputLen: l, Ctx: l,
					NeedsPrefill: true, IsNew: true,
				})
			}
			proj[i] = iv
		}
		ref := cloneProjection(proj)
		got := v.simulate(now, busyUntil, proj, tpot)
		want := v.simulateRef(now, busyUntil, ref, tpot)
		if v.EarlyAccepts > 0 && want != OK {
			t.Fatalf("early accept, but the full step loop ends in %v", want)
		}
		if got != want {
			t.Fatalf("simulate=%v, reference=%v", got, want)
		}
	})
}

// byteSource hands out a fuzz input's bytes, then zeros once it runs out.
type byteSource []byte

func (b *byteSource) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// intN returns a value in [0, n) from the next two bytes.
func (b *byteSource) intN(n int) int {
	return (int(b.byte())<<8 | int(b.byte())) % n
}

// frac returns a value in [0, 1) from the next two bytes.
func (b *byteSource) frac() float64 {
	return float64(int(b.byte())<<8|int(b.byte())) / 65536
}

// A zero-value Validator applies no overestimation, in the aggregate round
// as in the steps: it must still reject a round that exceeds the TPOT.
func TestZeroOverestimateStillChecksAggregateRound(t *testing.T) {
	var views []InstView
	for i := 0; i < 8; i++ {
		inst := mkInst(i, model.Llama2_7B, hwsim.XeonGen4)
		r := mkReq(int64(i), 512, 400, 0)
		inst.Admit(r)
		inst.CompletePrefill(r, 0.4)
		views = append(views, viewOf(inst))
	}
	v := &Validator{Overestimate: 0, DecodeRounds: 2, MaxSteps: 600}
	newReq := mkReq(99, 512, 100, 0.5)
	if got := v.Validate(0.5, 0.5, views, 0, ViewRequest(newReq), slo.DefaultTPOT); got != AggregateDecode {
		t.Fatalf("zero-value validator: want AggregateDecode, got %v", got)
	}
	insts := make([]*engine.Instance, 0, 8)
	for i := 0; i < 8; i++ {
		inst := mkInst(i, model.Llama2_7B, hwsim.XeonGen4)
		r := mkReq(int64(i), 512, 400, 0)
		inst.Admit(r)
		inst.CompletePrefill(r, 0.4)
		insts = append(insts, inst)
	}
	if !v.RejectsAggregate(insts, slo.DefaultTPOT) {
		t.Fatal("zero-value validator: the live pre-check must reject the same round")
	}
}

// randomInstances builds 1-5 live instances with 0-7 requests each, some
// still waiting for their prefill.
func randomInstances(rng *rand.Rand, now sim.Time) []*engine.Instance {
	classes := []hwsim.DeviceClass{hwsim.A100, hwsim.XeonGen4}
	models := []model.Model{model.Llama2_7B, model.Llama2_13B}
	insts := make([]*engine.Instance, 1+rng.IntN(5))
	id := int64(0)
	for i := range insts {
		inst := mkInst(i, models[rng.IntN(2)], classes[rng.IntN(2)])
		for k := rng.IntN(8); k > 0; k-- {
			id++
			r := mkReq(id, 1+rng.IntN(3000), 400, now-sim.Time(rng.Float64()))
			inst.Admit(r)
			if rng.IntN(4) != 0 {
				inst.CompletePrefill(r, now-sim.Time(rng.Float64()*0.1))
			}
		}
		insts[i] = inst
	}
	return insts
}

// RejectsAggregate must reject exactly when Validate over views of the same
// instances (with the request added to an existing instance, or to a fresh
// empty one) returns AggregateDecode, and the pre-check-then-Validate path
// must move the counters exactly as Validate alone does.
func TestRejectsAggregateMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 15))
	fresh := reg.Get(hwsim.A100, model.Llama2_7B, 1)
	rejected, passed := 0, 0
	for trial := 0; trial < 3000; trial++ {
		now := sim.Time(1 + rng.Float64())
		insts := randomInstances(rng, now)
		tpot := []sim.Duration{slo.DefaultTPOT, 0.1, 0.05}[rng.IntN(3)]
		var views []InstView
		for _, inst := range insts {
			views = append(views, viewOf(inst))
		}
		candIdx := rng.IntN(len(insts) + 1)
		if candIdx == len(insts) {
			views = append(views, InstView{Profile: fresh})
		}
		rv := ViewRequest(mkReq(1000, 1+rng.IntN(3000), 100, now))
		over := []float64{0, 1.1, 1.25}[rng.IntN(3)]

		alone := &Validator{Overestimate: over, DecodeRounds: 3, MaxSteps: 600}
		want := alone.Validate(now, now, views, candIdx, rv, tpot)

		pre := &Validator{Overestimate: over, DecodeRounds: 3, MaxSteps: 600}
		if pre.RejectsAggregate(insts, tpot) {
			rejected++
			if want != AggregateDecode {
				t.Fatalf("trial %d: pre-check rejected, Validate=%v", trial, want)
			}
		} else {
			passed++
			if got := pre.Validate(now, now, views, candIdx, rv, tpot); got != want || got == AggregateDecode {
				t.Fatalf("trial %d: pre-check passed, then Validate=%v (alone %v)", trial, got, want)
			}
		}
		if pre.Validations != alone.Validations || pre.Rejections != alone.Rejections {
			t.Fatalf("trial %d: counters %d/%d, want %d/%d", trial,
				pre.Validations, pre.Rejections, alone.Validations, alone.Rejections)
		}
	}
	if rejected == 0 || passed == 0 {
		t.Fatalf("pre-check rejected %d and passed %d trials; want both", rejected, passed)
	}
}
