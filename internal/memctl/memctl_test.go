package memctl

import (
	"testing"
	"testing/quick"

	"slinfer/internal/sim"
)

func TestScaleUpImmediateWhenSafe(t *testing.T) {
	s := sim.New()
	nm := New(s, "n", 100)
	done := false
	ok := nm.Demand(Op{Kind: ResizeKV, Owner: "a/kv", From: 0, To: 40,
		Duration: 1, OnComplete: func() { done = true }})
	if !ok {
		t.Fatal("demand rejected")
	}
	if nm.OptimisticUsed() != 40 || nm.PessimisticUsed() != 40 {
		t.Fatalf("opt=%d pess=%d, want 40/40", nm.OptimisticUsed(), nm.PessimisticUsed())
	}
	s.Run()
	if !done {
		t.Fatal("OnComplete not called")
	}
	if err := nm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimisticRejection(t *testing.T) {
	s := sim.New()
	nm := New(s, "n", 100)
	nm.Demand(Op{Owner: "a", From: 0, To: 80, Duration: 1})
	if nm.Demand(Op{Owner: "b", From: 0, To: 30, Duration: 1}) {
		t.Fatal("over-budget scale-up must be rejected")
	}
	started, _, _, rejected := nm.Stats()
	if started != 1 || rejected != 1 {
		t.Fatalf("started=%d rejected=%d", started, rejected)
	}
	// A fitting demand is still admitted.
	if !nm.Demand(Op{Owner: "c", From: 0, To: 20, Duration: 1}) {
		t.Fatal("fitting scale-up rejected")
	}
}

// countingObserver tallies ledger transitions without retaining ops.
type countingObserver struct{ admitted, started, completed, rejected int }

func (o *countingObserver) OpAdmitted(*NodeMemory, *Op)  { o.admitted++ }
func (o *countingObserver) OpStarted(*NodeMemory, *Op)   { o.started++ }
func (o *countingObserver) OpCompleted(*NodeMemory, *Op) { o.completed++ }
func (o *countingObserver) OpRejected(*NodeMemory, *Op)  { o.rejected++ }

// Once the slot free-list and the simulator's event pool are warm, a Demand
// allocates nothing on any path, with an Observer attached: an admitted
// scale-up, a scale-up parked in the reservation station, a scale-down, and
// a rejected scale-up. A rejection takes a slot and hands it straight back.
func TestDemandDoesNotAllocate(t *testing.T) {
	s := sim.New()
	nm := New(s, "n", 100)
	obs := &countingObserver{}
	nm.Observer = obs
	demand := func(owner string, from, to int64, dur sim.Duration) bool {
		return nm.Demand(Op{Kind: ResizeKV, Owner: owner, From: from, To: to, Duration: dur})
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"admitted scale-up", func() {
			if !demand("a", 0, 40, 1) || nm.StationDepth() != 0 {
				t.Fatal("scale-up with room should start at once")
			}
			s.Run()
			demand("a", 40, 0, 0)
		}},
		{"stationed scale-up", func() {
			demand("h", 0, 90, 0)
			demand("h", 90, 30, 1) // frees 60 only when it completes
			if !demand("b", 0, 50, 1) || nm.StationDepth() != 1 {
				t.Fatal("scale-up over the pessimistic bound should park")
			}
			s.Run()
			demand("b", 50, 0, 0)
			demand("h", 30, 0, 0)
		}},
		{"scale-down", func() {
			demand("a", 0, 40, 0)
			if !demand("a", 40, 0, 1) {
				t.Fatal("scale-down rejected")
			}
			s.Run()
		}},
		{"rejected scale-up", func() {
			demand("h", 0, 90, 0)
			free := len(nm.free)
			if demand("b", 0, 50, 1) {
				t.Fatal("over-budget scale-up admitted")
			}
			if len(nm.free) != free {
				t.Fatalf("rejection moved the free-list from %d to %d slots", free, len(nm.free))
			}
			demand("h", 90, 0, 0)
		}},
	} {
		if allocs := testing.AllocsPerRun(20, tc.fn); allocs != 0 {
			t.Errorf("%s: Demand allocates %.1f times once warm", tc.name, allocs)
		}
		if nm.OptimisticUsed() != 0 || nm.PessimisticUsed() != 0 {
			t.Fatalf("%s: ledger not back to empty: opt=%d pess=%d", tc.name, nm.OptimisticUsed(), nm.PessimisticUsed())
		}
	}
	if obs.rejected != 21 || obs.admitted != obs.started || obs.started != obs.completed {
		t.Fatalf("observer saw admitted=%d started=%d completed=%d rejected=%d",
			obs.admitted, obs.started, obs.completed, obs.rejected)
	}
}

// The Figure 18 hazard: a scale-up issued right after a scale-down must not
// execute until the scale-down's bytes are actually free.
func TestScaleUpWaitsForScaleDown(t *testing.T) {
	s := sim.New()
	nm := New(s, "n", 100)
	// Allocation a holds 90 bytes.
	nm.Demand(Op{Owner: "a", From: 0, To: 90, Duration: 0})
	if nm.PessimisticUsed() != 90 {
		t.Fatalf("pess=%d", nm.PessimisticUsed())
	}
	// a shrinks to 30 over 2s; budget frees immediately.
	var downDone sim.Time
	nm.Demand(Op{Owner: "a", From: 90, To: 30, Duration: 2,
		OnComplete: func() { downDone = s.Now() }})
	if nm.OptimisticUsed() != 30 {
		t.Fatalf("optimistic=%d, want 30", nm.OptimisticUsed())
	}
	// b wants 50: optimistically fine (30+50<=100) but pessimistically the
	// old 90 bytes are still resident, so it must park in the station.
	var upStart, upDone sim.Time
	upStarted := false
	ok := nm.Demand(Op{Owner: "b", From: 0, To: 50, Duration: 1,
		OnComplete: func() { upDone = s.Now(); upStarted = true }})
	if !ok {
		t.Fatal("optimistically-safe demand rejected")
	}
	if nm.StationDepth() != 1 {
		t.Fatalf("StationDepth = %d, want 1 (parked)", nm.StationDepth())
	}
	if err := nm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !upStarted {
		t.Fatal("parked op never ran")
	}
	if upDone.Sub(downDone) < 1 {
		t.Fatalf("scale-up finished %v after down at %v: must start only after release (start=%v)",
			upDone, downDone, upStart)
	}
	if nm.PessimisticUsed() != 80 || nm.OptimisticUsed() != 80 {
		t.Fatalf("final opt=%d pess=%d, want 80/80", nm.OptimisticUsed(), nm.PessimisticUsed())
	}
}

func TestOutOfOrderStationDrain(t *testing.T) {
	s := sim.New()
	nm := New(s, "n", 100)
	nm.Demand(Op{Owner: "a", From: 0, To: 95, Duration: 0})
	nm.Demand(Op{Owner: "a", From: 95, To: 10, Duration: 5}) // frees 85 at t=5
	// Two parked scale-ups: big (60) then small (20). After the down
	// completes pessimistic = 10; both fit (10+60+20=90): both should run,
	// demonstrating parallel drain.
	ranBig, ranSmall := false, false
	nm.Demand(Op{Owner: "b", From: 0, To: 60, Duration: 1, OnComplete: func() { ranBig = true }})
	nm.Demand(Op{Owner: "c", From: 0, To: 20, Duration: 1, OnComplete: func() { ranSmall = true }})
	if nm.StationDepth() != 2 {
		t.Fatalf("StationDepth = %d, want 2", nm.StationDepth())
	}
	s.Run()
	if !ranBig || !ranSmall {
		t.Fatalf("ranBig=%v ranSmall=%v", ranBig, ranSmall)
	}
	if err := nm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderSkipsBlockedHead(t *testing.T) {
	s := sim.New()
	nm := New(s, "n", 100)
	nm.Demand(Op{Owner: "a", From: 0, To: 90, Duration: 0})
	nm.Demand(Op{Owner: "a", From: 90, To: 60, Duration: 1}) // frees 30 at t=1
	// Park a big op (50, cannot fit after the down: 60+50>100) and a small
	// one (30, fits: 60+30<=100... wait optimistic: 60+50 admitted first).
	// Optimistic: 60 + 50 = 110 > 100 -> big is REJECTED optimistically.
	if nm.Demand(Op{Owner: "b", From: 0, To: 50, Duration: 1}) {
		t.Fatal("big op should be rejected optimistically")
	}
	small := false
	if !nm.Demand(Op{Owner: "c", From: 0, To: 30, Duration: 1, OnComplete: func() { small = true }}) {
		t.Fatal("small op should be admitted")
	}
	s.Run()
	if !small {
		t.Fatal("small op never executed")
	}
}

// Property: under arbitrary interleavings of scale-ups and scale-downs
// across several allocations, the pessimistic bound never exceeds capacity
// (no OOM) and all invariants hold at every event boundary.
func TestNoOOMProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := sim.New()
		const capacity = 1000
		nm := New(s, "n", capacity)
		sizes := map[int]int64{} // allocation id -> target size
		oomFree := true
		check := func() {
			if err := nm.CheckInvariants(); err != nil {
				oomFree = false
			}
		}
		for _, raw := range ops {
			id := int(raw % 8)
			target := int64((raw / 8) % 400)
			dur := sim.Duration(raw%7) * 0.1
			cur := sizes[id]
			op := Op{Owner: "x", From: cur, To: target, Duration: dur, OnComplete: check}
			if nm.Demand(op) {
				sizes[id] = target
			}
			check()
			// Let time advance a little, interleaving completions.
			s.RunUntil(s.Now().Add(0.05))
			check()
		}
		s.Run()
		check()
		return oomFree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the optimistic ledger ends exactly at the sum of final
// allocation sizes once all operations complete.
func TestLedgerConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := sim.New()
		nm := New(s, "n", 2000)
		sizes := map[int]int64{}
		for _, raw := range ops {
			id := int(raw % 4)
			target := int64((raw / 4) % 500)
			op := Op{Owner: "x", From: sizes[id], To: target, Duration: sim.Duration(raw%5) * 0.1}
			if nm.Demand(op) {
				sizes[id] = target
			}
			s.RunUntil(s.Now().Add(0.07))
		}
		s.Run()
		var want int64
		for _, v := range sizes {
			want += v
		}
		return nm.OptimisticUsed() == want && nm.PessimisticUsed() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
