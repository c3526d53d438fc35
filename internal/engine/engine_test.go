package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/workload"
)

func newTestInstance(m model.Model, class hwsim.DeviceClass) *Instance {
	inst := &Instance{
		ID: 1, Model: m, Class: class, Share: 1,
		NodeIdxs: []int{0},
		Profile:  perfmodel.NewProfile(class, m, 1, 256),
		Cache:    kvcache.NewCache(m, 1),
		State:    Active,
	}
	inst.Cache.SetCapacity(64 * model.GiB)
	return inst
}

func newReq(id int64, in, out int, arrival sim.Time) *Request {
	return NewRequest(workload.Request{
		ID: id, ModelName: "m", Arrival: arrival, InputLen: in, OutputLen: out,
	})
}

func TestPrefillToDecodeLifecycle(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	r := newReq(1, 1024, 3, 0)
	inst.Admit(r)
	if r.State != WaitingPrefill || len(inst.WaitingPrefill) != 1 {
		t.Fatal("admit failed")
	}
	w, _, ok := inst.NextWork(0)
	if !ok || w.Kind != PrefillWork || w.Req != r {
		t.Fatalf("NextWork = %+v, want prefill of r", w)
	}
	if !inst.CompletePrefill(r, 0.2) {
		t.Fatal("prefill should fit")
	}
	if r.State != Decoding || r.Generated != 1 || inst.BatchSize() != 1 {
		t.Fatalf("state=%v gen=%d bs=%d", r.State, r.Generated, inst.BatchSize())
	}
	if got := inst.Cache.UsedTokens(); got != 1025 {
		t.Fatalf("cache tokens = %d, want 1025", got)
	}
	// Two decode iterations finish the request (out=3).
	fin, under := inst.CompleteDecode(0.3)
	if under || len(fin) != 0 {
		t.Fatalf("unexpected finish: %v %v", fin, under)
	}
	fin, _ = inst.CompleteDecode(0.4)
	if len(fin) != 1 || fin[0] != r || r.State != Done {
		t.Fatalf("request should finish: %v, state %v", fin, r.State)
	}
	if inst.Cache.UsedTokens() != 0 {
		t.Fatalf("cache should be empty, got %d", inst.Cache.UsedTokens())
	}
	if !inst.Idle() {
		t.Fatal("instance should be idle")
	}
	if !r.Met() {
		t.Fatal("SLO should be met")
	}
}

func TestSingleTokenOutputCompletesAtPrefill(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	r := newReq(1, 128, 1, 0)
	inst.Admit(r)
	if !inst.CompletePrefill(r, 0.1) {
		t.Fatal("prefill failed")
	}
	if r.State != Done || inst.BatchSize() != 0 || inst.Cache.UsedTokens() != 0 {
		t.Fatalf("state=%v bs=%d tokens=%d", r.State, inst.BatchSize(), inst.Cache.UsedTokens())
	}
}

func TestNextWorkPicksMostUrgent(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.XeonGen4)
	// An old decoding request with little headroom vs a fresh prefill.
	old := newReq(1, 512, 100, 0)
	inst.Admit(old)
	inst.CompletePrefill(old, 0.9) // TTFT budget 1s, close deadline chain
	fresh := newReq(2, 512, 100, 1.0)
	inst.Admit(fresh)
	// At t=1.05: old's next deadline = 1 + 0.25 = 1.25 (headroom 0.2);
	// fresh's deadline = 1 + 1 = 2 (headroom 0.95). Decode should win.
	w, h, _ := inst.NextWork(1.05)
	if w.Kind != DecodeWork {
		t.Fatalf("want decode, got %v (headroom %v)", w.Kind, h)
	}
	// At a time where fresh is late and old has banked headroom, prefill
	// should win: advance old's token record far ahead.
	for k := 0; k < 19; k++ {
		old.RecordToken(1.0) // deadline now 1 + 20*0.25 = 6
	}
	w, _, _ = inst.NextWork(1.6)
	if w.Kind != PrefillWork || w.Req != fresh {
		t.Fatalf("want prefill of fresh, got %v", w)
	}
}

func TestUnderestimationBlocksDecode(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	r := newReq(1, 100, 50, 0)
	inst.Admit(r)
	inst.CompletePrefill(r, 0.1)
	// Shrink capacity to exactly current usage: next decode token cannot fit.
	inst.Cache.SetCapacity(inst.Cache.UsedBytes())
	fin, under := inst.CompleteDecode(0.2)
	if !under || fin != nil {
		t.Fatalf("want underestimation, got fin=%v under=%v", fin, under)
	}
	if r.Generated != 1 {
		t.Fatal("no tokens must be produced on underestimation")
	}
}

func TestPrefillUnderestimation(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	inst.Cache.SetCapacity(50 * 524288) // 50 tokens
	r := newReq(1, 100, 10, 0)
	inst.Admit(r)
	if inst.CompletePrefill(r, 0.1) {
		t.Fatal("prefill of 100 tokens must not fit 50-token cache")
	}
	if r.State != WaitingPrefill || len(inst.WaitingPrefill) != 1 {
		t.Fatal("request must stay queued on failed prefill")
	}
}

func TestPDRolePrefillOnly(t *testing.T) {
	p := newTestInstance(model.Llama2_7B, hwsim.A100)
	p.Role = PrefillOnly
	r := newReq(1, 512, 100, 0)
	p.Admit(r)
	if !p.CompletePrefill(r, 0.1) {
		t.Fatal("prefill failed")
	}
	if r.State != Transferring || p.BatchSize() != 0 || p.Cache.UsedTokens() != 0 {
		t.Fatalf("state=%v bs=%d", r.State, p.BatchSize())
	}
	// Decode instance receives the transferred request.
	d := newTestInstance(model.Llama2_7B, hwsim.A100)
	d.Role = DecodeOnly
	if !d.JoinDecode(r) {
		t.Fatal("join failed")
	}
	if r.State != Decoding || d.BatchSize() != 1 {
		t.Fatal("join state wrong")
	}
	if d.Cache.UsedTokens() != int64(r.ContextTokens()) {
		t.Fatalf("cache tokens = %d, want %d", d.Cache.UsedTokens(), r.ContextTokens())
	}
}

func TestOnlyActiveInstancesHaveWork(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	r := newReq(1, 100, 5, 0)
	inst.Admit(r)
	inst.CompletePrefill(r, 0.1)
	if !inst.HasWork() {
		t.Fatal("active instance must run its work")
	}
	inst.State = Loading
	if inst.HasWork() {
		t.Fatal("loading instance has no runnable work")
	}
	inst.State = Unloading
	if inst.HasWork() {
		t.Fatal("unloading instance has no runnable work")
	}
}

func TestResizeBlocksWork(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	r := newReq(1, 100, 5, 0)
	inst.Admit(r)
	inst.ResizeInFlight = true
	if inst.HasWork() {
		t.Fatal("resize must block iterations")
	}
	if _, _, ok := inst.NextWork(0); ok {
		t.Fatal("NextWork during resize must report no work")
	}
}

func TestGroundTruthDurationMatchesSubstrate(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.XeonGen4)
	r := newReq(1, 1024, 10, 0)
	inst.Admit(r)
	w := &Work{Inst: inst, Kind: PrefillWork, Req: r}
	want := hwsim.XeonGen4.PrefillTime(model.Llama2_7B, 1024, 1)
	if got := inst.GroundTruthDuration(w); got != want {
		t.Fatalf("prefill dur = %v, want %v", got, want)
	}
	inst.CompletePrefill(r, 0.1)
	wd := &Work{Inst: inst, Kind: DecodeWork}
	base := inst.GroundTruthDuration(wd)
	inst.DecodePenalty = 0.5
	if got := inst.GroundTruthDuration(wd); got <= base {
		t.Fatal("decode penalty must slow decode")
	}
}

func TestKVReqStatesCoversWaitingAndRunning(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	a := newReq(1, 100, 10, 0)
	b := newReq(2, 200, 10, 0)
	inst.Admit(a)
	inst.Admit(b)
	inst.CompletePrefill(a, 0.1)
	states := inst.AppendKVReqStates(nil)
	if len(states) != 2 {
		t.Fatalf("len = %d, want 2", len(states))
	}
	if states[0].Generated != 1 || states[0].InputLen != 100 {
		t.Fatalf("running state wrong: %+v", states[0])
	}
	if states[1].Generated != 0 || states[1].InputLen != 200 {
		t.Fatalf("waiting state wrong: %+v", states[1])
	}
}

func TestRemoveHelpers(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	a := newReq(1, 100, 10, 0)
	b := newReq(2, 100, 10, 0)
	inst.Admit(a)
	inst.Admit(b)
	if !inst.RemoveWaiting(a) || inst.RemoveWaiting(a) {
		t.Fatal("RemoveWaiting semantics wrong")
	}
	inst.CompletePrefill(b, 0.1)
	tokens := inst.Cache.UsedTokens()
	if tokens == 0 {
		t.Fatal("setup")
	}
	if !inst.RemoveRunning(b) || inst.RemoveRunning(b) {
		t.Fatal("RemoveRunning semantics wrong")
	}
	if inst.Cache.UsedTokens() != 0 {
		t.Fatal("RemoveRunning must release KV")
	}
}

func TestTotalLoadAndAverages(t *testing.T) {
	inst := newTestInstance(model.Llama2_7B, hwsim.A100)
	for i := 0; i < 3; i++ {
		r := newReq(int64(i), 300, 10, 0)
		inst.Admit(r)
		inst.CompletePrefill(r, 0.1)
	}
	inst.Admit(newReq(9, 500, 10, 0))
	if inst.TotalLoad() != 4 || inst.BatchSize() != 3 {
		t.Fatalf("load=%d bs=%d", inst.TotalLoad(), inst.BatchSize())
	}
}

// freshMinDeadline is MinDeadline's definition, scanned from scratch.
func freshMinDeadline(i *Instance) sim.Time {
	d := sim.Time(math.Inf(1))
	for _, r := range i.WaitingPrefill {
		d = min(d, r.NextDeadline())
	}
	for _, r := range i.Running {
		d = min(d, r.NextDeadline())
	}
	return d
}

// TestCompleteDecodeLeavesMinDeadlineCurrent is the oracle for the earliest
// deadline CompleteDecode folds into its loop: over random admissions,
// prefills, removals and decodes, some finishing requests and some failing
// on a full cache, the deadline cached after every CompleteDecode is the
// one a fresh scan of WaitingPrefill and Running finds.
func TestCompleteDecodeLeavesMinDeadlineCurrent(t *testing.T) {
	var decodes, finishing, under int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := newTestInstance(model.Llama2_7B, hwsim.A100)
		now := sim.Time(0)
		id := int64(0)
		for step := 0; step < 400; step++ {
			now = now.Add(sim.Duration(rng.Intn(40)) * sim.Millisecond)
			switch op := rng.Intn(10); {
			case op < 3:
				id++
				inst.Admit(newReq(id, 16+rng.Intn(2000), 1+rng.Intn(12), now))
			case op < 5 && len(inst.WaitingPrefill) > 0:
				inst.CompletePrefill(inst.WaitingPrefill[rng.Intn(len(inst.WaitingPrefill))], now)
			case op == 5 && len(inst.WaitingPrefill) > 0:
				inst.RemoveWaiting(inst.WaitingPrefill[rng.Intn(len(inst.WaitingPrefill))])
			case op == 6 && len(inst.Running) > 0:
				inst.RemoveRunning(inst.Running[rng.Intn(len(inst.Running))])
			default:
				full := rng.Intn(8) == 0
				if full {
					inst.Cache.SetCapacity(inst.Cache.UsedBytes())
				}
				fin, uf := inst.CompleteDecode(now)
				if full {
					inst.Cache.SetCapacity(64 * model.GiB)
				}
				decodes++
				finishing += len(fin)
				if uf {
					under++
				}
				if len(inst.Running) > 0 && !uf && !inst.minDOK {
					t.Fatalf("seed %d step %d: CompleteDecode left the deadline cache stale", seed, step)
				}
				if got, want := inst.MinDeadline(), freshMinDeadline(inst); got != want {
					t.Fatalf("seed %d step %d: cached MinDeadline %v, fresh scan %v", seed, step, got, want)
				}
			}
		}
	}
	if decodes == 0 || finishing == 0 || under == 0 {
		t.Fatalf("oracle saw %d decodes, %d finished requests, %d underestimations; want each > 0",
			decodes, finishing, under)
	}
}

// An Instance is exactly 352 bytes, an allocation size class of its own:
// one more word moves every instance to the 384-byte class. The deadline
// and decode-estimate caches and the per-node op counters sit in existing
// padding for this reason. A new field has to make room or be measured.
func TestInstanceFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Instance{}); size != 352 {
		t.Fatalf("Instance is %d bytes; want 352", size)
	}
}

// A Request is exactly 160 bytes, an allocation size class of its own: one
// more word moves every request to the 176-byte class. The request is its
// own SLO tracker, storing its arrival, objective and token count once
// each, and its two SLO flags share one word. A new field has to make room
// or be measured.
func TestRequestFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size != 160 {
		t.Fatalf("Request is %d bytes; want 160", size)
	}
}

// Reset unbinds a recycled request: a binding names a record of the run
// that bound it, so a request reset for a new run must start unbound.
func TestRequestResetUnbinds(t *testing.T) {
	w := workload.Request{ID: 1, ModelName: "m", InputLen: 8, OutputLen: 2}
	r := NewRequest(w)
	r.Rec = 3
	r.Reset(w, slo.Default(w.InputLen))
	if r.Rec != 0 {
		t.Fatalf("Reset kept binding %d", r.Rec)
	}
}

// sloReq is a request arriving at arrival under obj with room for 100
// output tokens.
func sloReq(obj slo.Objective, arrival sim.Time) *Request {
	return NewRequestWith(workload.Request{ID: 1, ModelName: "m", Arrival: arrival, InputLen: 64, OutputLen: 100}, obj)
}

func approx(d sim.Duration, want float64) bool {
	diff := d.Seconds() - want
	return diff < 1e-9 && diff > -1e-9
}

func TestRequestAttainment(t *testing.T) {
	r := sloReq(slo.Objective{TTFT: 1, TPOT: 0.25}, 0)
	if !r.RecordToken(0.9) { // first token within 1s
		t.Fatal("first token at 0.9 should meet 1s TTFT")
	}
	if !r.RecordToken(1.2) { // deadline 1.25
		t.Fatal("second token at 1.2 should meet 1.25 deadline")
	}
	if !r.Met() {
		t.Fatal("request should report met")
	}
	if r.RecordToken(2.0) { // deadline 1.5
		t.Fatal("third token at 2.0 should violate")
	}
	if r.Met() {
		t.Fatal("violation must stick")
	}
	if r.Generated != 3 {
		t.Fatalf("Generated = %d, want 3", r.Generated)
	}
	ttft, ok := r.TTFT()
	if !ok || !approx(ttft, 0.9) {
		t.Fatalf("TTFT = %v, %v", ttft, ok)
	}
}

func TestRequestBanking(t *testing.T) {
	// Eq.-1 deadlines are cumulative: an early first token banks budget
	// for later tokens.
	r := sloReq(slo.Objective{TTFT: 2, TPOT: 0.25}, 0)
	r.RecordToken(0.1) // 1.9s of banked headroom
	// Token 2 deadline is 2.25 even though the gap is huge.
	if !r.RecordToken(2.2) {
		t.Fatal("banked headroom should allow a 2.1s gap")
	}
	if !r.Met() {
		t.Fatal("should still be met")
	}
}

func TestRequestColdStartGrace(t *testing.T) {
	r := sloReq(slo.Objective{TTFT: 0.5, TPOT: 0.25}, 0)
	r.AddGrace(1.0) // 1s cold start
	if !r.RecordToken(1.4) {
		t.Fatal("grace window should extend TTFT deadline to 1.5")
	}
	// Grace after first token is ignored.
	r.AddGrace(10)
	if r.NextDeadline() != sim.Time(1.5).Add(0.25) {
		t.Fatalf("NextDeadline = %v, want 1.75", r.NextDeadline())
	}
	// ExtendGrace shifts later deadlines regardless of progress.
	r.ExtendGrace(2)
	if r.NextDeadline() != sim.Time(3.5).Add(0.25) {
		t.Fatalf("NextDeadline after ExtendGrace = %v, want 3.75", r.NextDeadline())
	}
	// TTFT is measured from arrival, not from the graced start.
	if ttft, ok := r.TTFT(); !ok || !approx(ttft, 1.4) {
		t.Fatalf("TTFT = %v, %v; want 1.4", ttft, ok)
	}
}

func TestRequestMarkDropped(t *testing.T) {
	r := sloReq(slo.Default(1024), 5)
	r.MarkDropped()
	if r.Met() {
		t.Fatal("dropped request cannot meet SLO")
	}
	if _, ok := r.TTFT(); ok {
		t.Fatal("a dropped request emitted no first token")
	}
}

// Property: Met is false iff some token exceeded its deadline, and each
// token's deadline is Objective.Deadline at the count before it.
func TestRequestMetMatchesDeadlines(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) > 40 {
			gaps = gaps[:40]
		}
		obj := slo.Objective{TTFT: 0.5, TPOT: 0.1}
		r := sloReq(obj, 0)
		now := sim.Time(0)
		anyLate := false
		for i, g := range gaps {
			now = now.Add(sim.Duration(g) / 100) // up to 2.55s gaps
			deadline := obj.Deadline(0, i)
			if r.NextDeadline() != deadline {
				return false
			}
			late := now > deadline
			if ok := r.RecordToken(now); ok == late {
				return false
			}
			anyLate = anyLate || late
		}
		return r.Met() == !anyLate && r.Generated == len(gaps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
