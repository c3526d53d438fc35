package compute

import (
	"slices"
	"testing"
	"unsafe"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/workload"
)

var reg = perfmodel.NewRegistry()

func mkInst(id int, m model.Model, class hwsim.DeviceClass) *engine.Instance {
	inst := &engine.Instance{
		ID: id, Model: m, Class: class, Share: 1, NodeIdxs: []int{0},
		Profile: reg.Get(class, m, 1),
		Cache:   kvcache.NewCache(m, 1),
		State:   engine.Active,
	}
	inst.Cache.SetCapacity(60 * model.GiB)
	return inst
}

func mkReq(id int64, in, out int, at sim.Time) *engine.Request {
	return engine.NewRequest(workload.Request{ID: id, ModelName: "m", Arrival: at, InputLen: in, OutputLen: out})
}

func TestPickMinHeadroomAcrossInstances(t *testing.T) {
	a := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	b := mkInst(2, model.Llama2_7B, hwsim.XeonGen4)
	// a's request arrived earlier (tighter deadline).
	ra := mkReq(1, 512, 10, 0)
	rb := mkReq(2, 512, 10, 0.5)
	a.Admit(ra)
	b.Admit(rb)
	w, ok := PickMinHeadroom([]*engine.Instance{b, a}, 0.6)
	if !ok || w.Inst != a {
		t.Fatalf("want instance a (earliest deadline), got %+v", w)
	}
	// The paper's Figure 14 behaviour: after serving, the other becomes
	// most urgent.
	a.RemoveWaiting(ra)
	w, ok = PickMinHeadroom([]*engine.Instance{b, a}, 0.6)
	if !ok || w.Inst != b {
		t.Fatal("want instance b after a drained")
	}
	if _, ok := PickMinHeadroom(nil, 0); ok {
		t.Fatal("empty set must yield no work")
	}
}

func TestPickFIFOPrefersPrefillInOrder(t *testing.T) {
	a := mkInst(1, model.Llama2_7B, hwsim.A100)
	ra := mkReq(1, 512, 10, 0)
	rb := mkReq(2, 512, 10, 0)
	a.Admit(ra)
	a.CompletePrefill(ra, 0.1)
	a.Admit(rb)
	w, _ := PickFIFO([]*engine.Instance{a}, 0.2)
	if w.Kind != engine.PrefillWork || w.Req != rb {
		t.Fatalf("FIFO should prefill first, got %v", w.Kind)
	}
}

// newValidatorForTest returns the validator these tests are written
// against: the paper's 10% overestimate and two decode rounds past the new
// request's prefill, within a 600-step horizon.
func newValidatorForTest() *Validator {
	return &Validator{Overestimate: 1.10, DecodeRounds: 2, MaxSteps: 600}
}

// viewOf builds a standalone view of inst's live state.
func viewOf(inst *engine.Instance) InstView {
	return InstView{Profile: inst.Profile, Reqs: appendViews(nil, inst)}
}

// Validate is the view-level entry the tests drive and the reference the
// production projection is held to: it deep-copies insts with newReq added
// to insts[candIdx] and checks the copy, so the caller's views are never
// touched. An out-of-range candIdx is NewTTFT.
func (v *Validator) Validate(now, busyUntil sim.Time, insts []InstView, candIdx int, newReq ReqView, tpotSLO sim.Duration) Reason {
	if candIdx < 0 || candIdx >= len(insts) {
		return v.Check(now, busyUntil, nil, tpotSLO)
	}
	proj := make([]InstView, len(insts))
	for i, iv := range insts {
		proj[i] = iv
		proj[i].Reqs = slices.Clone(iv.Reqs)
		if i == candIdx {
			proj[i].Reqs = append(proj[i].Reqs, newReq)
		}
	}
	return v.Check(now, busyUntil, proj, tpotSLO)
}

func TestValidateAcceptsLightlyLoadedInstance(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	r := mkReq(1, 1024, 100, 10)
	v := newValidatorForTest()
	got := v.Validate(10, 10, []InstView{viewOf(inst)}, 0, ViewRequest(r), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("empty GPU instance should accept, got %v", got)
	}
}

func TestValidateCase1LongPrefillOnCPU(t *testing.T) {
	// A 34B prefill on CPU cannot meet TTFT: case 1.
	inst := mkInst(1, model.CodeLlama34B, hwsim.XeonGen4)
	r := mkReq(1, 2048, 100, 5)
	v := newValidatorForTest()
	got := v.Validate(5, 5, []InstView{viewOf(inst)}, 0, ViewRequest(r), slo.DefaultTPOT)
	if got != NewTTFT {
		t.Fatalf("want NewTTFT, got %v", got)
	}
}

// Earliest-deadline scheduling with banked headroom absorbs most prefill
// insertions: an existing request that decodes faster than its TPOT SLO
// accumulates slack, so inserting even a 4K CPU prefill is safe. The
// validator must recognize that and accept.
func TestValidateBankedHeadroomAbsorbsPrefill(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	old := mkReq(1, 1024, 400, 0)
	inst.Admit(old)
	inst.CompletePrefill(old, 1.9)
	newReq := mkReq(2, 4096, 100, 2.0)
	v := newValidatorForTest()
	got := v.Validate(2.0, 2.0, []InstView{viewOf(inst)}, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("banked headroom should absorb the prefill, got %v", got)
	}
}

func TestValidateCase2ExistingDelayed(t *testing.T) {
	// An instance whose KV resize blocks it until just before an existing
	// request's deadline: the projected decode lands late. The new request
	// itself has a loose TTFT, so the violation is on the existing request
	// (case 2).
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	old := mkReq(1, 1024, 400, 0)
	inst.Admit(old)
	inst.CompletePrefill(old, 1.9) // next deadline 2.25
	view := viewOf(inst)
	view.BlockedUntil = 2.22           // decode (~80ms) cannot finish by 2.25
	newReq := mkReq(2, 4096, 100, 2.0) // TTFT 8s: plenty of room
	v := newValidatorForTest()
	got := v.Validate(2.0, 2.0, []InstView{view}, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != ExistingDelayed {
		t.Fatalf("want ExistingDelayed, got %v", got)
	}
}

func TestValidateCase3AggregateDecode(t *testing.T) {
	// Many colocated CPU instances each under TPOT individually, but the
	// aggregate decode round exceeds 250 ms: case 3.
	var views []InstView
	for i := 0; i < 8; i++ {
		inst := mkInst(i, model.Llama2_7B, hwsim.XeonGen4)
		r := mkReq(int64(i), 512, 400, 0)
		inst.Admit(r)
		inst.CompletePrefill(r, 0.4)
		views = append(views, viewOf(inst))
	}
	newReq := mkReq(99, 512, 100, 0.5)
	v := newValidatorForTest()
	got := v.Validate(0.5, 0.5, views, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != AggregateDecode {
		t.Fatalf("want AggregateDecode, got %v", got)
	}
	// Two colocated 7B instances are fine (2 x ~70ms < 250ms).
	got = v.Validate(0.5, 0.5, views[:2], 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("2 instances should pass, got %v", got)
	}
}

func TestValidateBatchGrowthOnGPU(t *testing.T) {
	// A large GPU batch still accepts: decode stays fast.
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	for i := 0; i < 32; i++ {
		r := mkReq(int64(i), 1024, 200, 0)
		inst.Admit(r)
		inst.CompletePrefill(r, 1.0)
	}
	newReq := mkReq(99, 1024, 100, 1.5)
	v := newValidatorForTest()
	got := v.Validate(1.5, 1.5, []InstView{viewOf(inst)}, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("GPU 33-batch should accept, got %v", got)
	}
}

func TestValidateRespectsBusyExecutor(t *testing.T) {
	// The executor busy until far in the future pushes the new prefill
	// past its TTFT.
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	r := mkReq(1, 512, 100, 0)
	v := newValidatorForTest()
	// TTFT for 512 tokens is 1s; busy until t=2 makes it impossible.
	got := v.Validate(0, 2.0, []InstView{viewOf(inst)}, 0, ViewRequest(r), slo.DefaultTPOT)
	if got != NewTTFT {
		t.Fatalf("want NewTTFT from busy executor, got %v", got)
	}
}

func TestValidateBlockedInstanceDelaysPrefill(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	r := mkReq(1, 512, 100, 0)
	view := viewOf(inst)
	view.BlockedUntil = 2.0 // resize in flight until t=2 > 1s TTFT
	v := newValidatorForTest()
	if got := v.Validate(0, 0, []InstView{view}, 0, ViewRequest(r), slo.DefaultTPOT); got != NewTTFT {
		t.Fatalf("want NewTTFT from blocked instance, got %v", got)
	}
}

func TestValidateDoesNotMutateLiveState(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	old := mkReq(1, 512, 100, 0)
	inst.Admit(old)
	inst.CompletePrefill(old, 0.5)
	gen := old.Generated
	deadline := old.NextDeadline()
	v := newValidatorForTest()
	views := []InstView{viewOf(inst)}
	v.Validate(0.6, 0.6, views, 0, ViewRequest(mkReq(2, 512, 10, 0.6)), slo.DefaultTPOT)
	if old.Generated != gen || old.NextDeadline() != deadline {
		t.Fatal("validation mutated live request state")
	}
	if len(inst.Running) != 1 || len(views[0].Reqs) != 1 {
		t.Fatal("validation mutated views or batch")
	}
}

func TestValidatorCounters(t *testing.T) {
	v := newValidatorForTest()
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	v.Validate(0, 0, []InstView{viewOf(inst)}, 0, ViewRequest(mkReq(1, 512, 5, 0)), slo.DefaultTPOT)
	v.Validate(0, 5, []InstView{viewOf(inst)}, 0, ViewRequest(mkReq(2, 512, 5, 0)), slo.DefaultTPOT)
	if v.Validations != 2 || v.Rejections != 1 {
		t.Fatalf("validations=%d rejections=%d, want 2/1", v.Validations, v.Rejections)
	}
}

// The overestimation margin is load-bearing: with a tight margin a request
// that barely fits is accepted; the 10% margin rejects it.
func TestOverestimationMargin(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	// Craft a request whose prefill estimate is within ~5% of its TTFT.
	// gen4 7B prefill(4096) ~ 2.75s; TTFT(4096) = 8s — too loose. Use the
	// busy executor to eat the slack instead: busy until TTFT - est*1.05.
	r := mkReq(1, 4096, 50, 0)
	est := inst.Profile.EstimatePrefill(4096)
	busyUntil := sim.Time(0).Add(r.Obj.TTFT - est - est*sim.Duration(0.05))
	loose := &Validator{Overestimate: 1.0, DecodeRounds: 2, MaxSteps: 600}
	tight := &Validator{Overestimate: 1.10, DecodeRounds: 2, MaxSteps: 600}
	if got := loose.Validate(0, busyUntil, []InstView{viewOf(inst)}, 0, ViewRequest(r), slo.DefaultTPOT); got != OK {
		t.Fatalf("loose validator should accept, got %v", got)
	}
	if got := tight.Validate(0, busyUntil, []InstView{viewOf(inst)}, 0, ViewRequest(r), slo.DefaultTPOT); got == OK {
		t.Fatal("10%% margin should reject the borderline request")
	}
}

// Project plus Check must answer exactly what the deep-copy Validate
// answers over viewOf views with the skipped instance removed, for every
// (skip, cand) pair over a few instance mixes: each live cand through
// ValidateWithout, including one that is skipped or absent (NewTTFT), and
// a nil cand as a fresh instance. The counters must move as Validate's do,
// and ValidateWithout must not allocate once warm.
func TestValidateWithoutMatchesValidate(t *testing.T) {
	gpuMix := func() []*engine.Instance {
		big := mkInst(1, model.Llama2_7B, hwsim.A100)
		for i := 0; i < 24; i++ {
			r := mkReq(int64(i), 1024, 200, 0)
			big.Admit(r)
			big.CompletePrefill(r, 1.0)
		}
		small := mkInst(2, model.Llama2_13B, hwsim.A100)
		small.Admit(mkReq(50, 2048, 100, 1.2)) // still waiting for prefill
		idle := mkInst(3, model.Llama2_7B, hwsim.A100)
		return []*engine.Instance{big, small, idle}
	}
	cpuMix := func() []*engine.Instance {
		var insts []*engine.Instance
		for i := 0; i < 6; i++ {
			inst := mkInst(i, model.Llama2_7B, hwsim.XeonGen4)
			r := mkReq(int64(i), 512, 400, 0)
			inst.Admit(r)
			inst.CompletePrefill(r, 0.4)
			if i%2 == 0 {
				inst.Admit(mkReq(int64(10+i), 768, 50, 0.45))
			}
			insts = append(insts, inst)
		}
		return insts
	}
	cases := []struct {
		name      string
		insts     []*engine.Instance
		now, busy sim.Time
		newReq    *engine.Request
	}{
		{"gpu", gpuMix(), 1.5, 1.5, mkReq(99, 1024, 100, 1.5)},
		{"gpu-busy", gpuMix(), 1.5, 4.0, mkReq(99, 1024, 100, 1.5)},
		{"cpu", cpuMix(), 0.5, 0.5, mkReq(99, 512, 100, 0.5)},
		{"cpu-long-prompt", cpuMix(), 0.5, 0.6, mkReq(99, 4096, 100, 0.5)},
	}
	outsider := mkInst(100, model.Llama2_7B, hwsim.A100)
	fresh := reg.Get(hwsim.A100, model.Llama2_13B, 1)
	seen := map[Reason]bool{}
	for _, tc := range cases {
		skips := append([]*engine.Instance{nil}, tc.insts...)
		cands := append(append([]*engine.Instance{nil}, tc.insts...), outsider)
		for _, skip := range skips {
			for _, cand := range cands {
				var views []InstView
				candIdx := -1
				for _, inst := range tc.insts {
					if inst == skip {
						continue
					}
					if inst == cand {
						candIdx = len(views)
					}
					views = append(views, viewOf(inst))
				}
				if cand == nil {
					candIdx = len(views)
					views = append(views, InstView{Profile: fresh})
				}
				rv := ViewRequest(tc.newReq)
				want := newValidatorForTest().Validate(tc.now, tc.busy, views, candIdx, rv, slo.DefaultTPOT)
				v := newValidatorForTest()
				var got Reason
				if cand == nil {
					got = v.Check(tc.now, tc.busy, v.Project(tc.insts, skip, nil, fresh, rv), slo.DefaultTPOT)
				} else {
					got = v.ValidateWithout(tc.now, tc.busy, tc.insts, skip, cand, rv, slo.DefaultTPOT)
				}
				if got != want {
					t.Errorf("%s skip=%v fresh=%v: projection=%v, Validate=%v",
						tc.name, skip != nil, cand == nil, got, want)
				}
				wantRej := int64(0)
				if got != OK {
					wantRej = 1
				}
				if v.Validations != 1 || v.Rejections != wantRej {
					t.Errorf("%s: validations=%d rejections=%d for %v, want 1/%d",
						tc.name, v.Validations, v.Rejections, got, wantRej)
				}
				seen[got] = true
			}
		}
	}
	for _, r := range []Reason{OK, NewTTFT, ExistingDelayed, AggregateDecode} {
		if !seen[r] {
			t.Errorf("no case exercised %v; the mixes no longer cover it", r)
		}
	}

	insts := gpuMix()
	v := newValidatorForTest()
	rv := ViewRequest(mkReq(99, 1024, 100, 1.5))
	allocs := testing.AllocsPerRun(20, func() {
		v.ValidateWithout(1.5, 1.5, insts, insts[2], insts[0], rv, slo.DefaultTPOT)
	})
	if allocs != 0 {
		t.Errorf("ValidateWithout allocates %.0f times per call once warm", allocs)
	}
}

// The Validator keeps the 112-byte allocation size class: one more word,
// even unused padding, moved it to the 128-byte class and slowed
// BenchmarkSub_FleetEpochWide/64shard by about a fifth. A new field has
// to make room (as the instState scratch did, behind a pointer) or be
// measured there.
func TestValidatorFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Validator{}); size > 112 {
		t.Fatalf("Validator is %d bytes; want at most 112", size)
	}
}
