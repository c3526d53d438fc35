package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPoolRecyclesSlots proves the free-list works: a long self-renewing
// timer chain must reuse its own slot instead of allocating per event.
func TestPoolRecyclesSlots(t *testing.T) {
	s := New()
	fired := 0
	var tick func(any)
	tick = func(any) {
		fired++
		if fired < 10000 {
			s.AfterFunc(Millisecond, tick, nil)
		}
	}
	s.AfterFunc(Millisecond, tick, nil)
	allocs := testing.AllocsPerRun(1, func() { s.Run() })
	if fired != 10000 {
		t.Fatalf("fired = %d, want 10000", fired)
	}
	// 10k events through one slot: the whole drain must be O(1) allocations,
	// not O(events).
	if allocs > 16 {
		t.Fatalf("allocs = %v for a 10k-event chain; pooling is not recycling", allocs)
	}
}

// TestStaleHandleCannotCancelSuccessor is the stale-handle safety contract:
// once an event fires and its slot is recycled for a new event, the old
// handle's Cancel/Canceled must be inert no-ops — they cannot observe or
// affect the successor.
func TestStaleHandleCannotCancelSuccessor(t *testing.T) {
	s := New()
	stale := s.AtFunc(1, func(any) {}, nil)
	s.Run() // fires; the slot returns to the pool

	succFired := false
	succ := s.AtFunc(2, func(any) { succFired = true }, nil)
	if succ.slot != stale.slot {
		t.Fatalf("pool did not recycle the fired slot (test premise broken)")
	}
	if stale.Cancel() {
		t.Fatal("stale handle cancelled its successor")
	}
	if stale.Canceled() {
		t.Fatal("stale handle reports Canceled for its successor")
	}
	s.Run()
	if !succFired {
		t.Fatal("successor event did not fire after stale Cancel attempt")
	}
}

// TestStaleHandleAfterCancelledSlotReuse covers the cancel-then-recycle
// path: a cancelled event's handle reports Canceled until the slot is
// reused, then degrades to inert.
func TestStaleHandleAfterCancelledSlotReuse(t *testing.T) {
	s := New()
	old := s.AtFunc(5, func(any) { t.Fatal("cancelled event fired") }, nil)
	if !old.Cancel() {
		t.Fatal("Cancel failed for pending event")
	}
	if !old.Canceled() {
		t.Fatal("Canceled false right after Cancel")
	}

	succFired := false
	succ := s.AtFunc(6, func(any) { succFired = true }, nil)
	if succ.slot != old.slot {
		t.Fatalf("pool did not recycle the cancelled slot (test premise broken)")
	}
	if old.Canceled() {
		t.Fatal("stale handle still reports Canceled after slot reuse")
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled the recycled successor")
	}
	if succ.Canceled() {
		t.Fatal("successor reports Canceled")
	}
	s.Run()
	if !succFired {
		t.Fatal("successor did not fire")
	}
}

// TestPooledOrderMatchesReference churns the pooled heap with a random
// schedule/cancel workload and checks the firing order against a naive
// reference: all non-cancelled events sorted by (time, scheduling order).
// This is the determinism guarantee pooling and the 4-ary heap must not
// break.
func TestPooledOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		type ref struct {
			at  Time
			id  int
			cut bool
		}
		var want []ref
		var got []int
		var handles []Event
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(40)) // coarse times force heavy ties
			id := i
			want = append(want, ref{at: at, id: id})
			handles = append(handles, s.AtFunc(at, func(any) { got = append(got, id) }, nil))
		}
		for i := range handles {
			if rng.Intn(4) == 0 {
				handles[i].Cancel()
				want[i].cut = true
			}
		}
		s.Run()
		var exp []int
		keep := want[:0:0]
		for _, r := range want {
			if !r.cut {
				keep = append(keep, r)
			}
		}
		sort.SliceStable(keep, func(i, j int) bool { return keep[i].at < keep[j].at })
		for _, r := range keep {
			exp = append(exp, r.id)
		}
		if len(got) != len(exp) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("trial %d: order diverged at %d: got %v want %v", trial, i, got, exp)
			}
		}
	}
}

// TestAtFuncDeliversArgument checks the pre-bound callbacks carry their
// argument and fire in time order.
func TestAtFuncDeliversArgument(t *testing.T) {
	s := New()
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	s.AtFunc(2, push, 2)
	s.AtFunc(1, push, 1)
	s.AfterFunc(3, push, 3)
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
}

// TestAtFuncPointerArgDoesNotAllocate pins the contract hot callers rely
// on: scheduling with a pre-bound callback and a pointer argument performs
// no per-event allocation once the pool is warm.
func TestAtFuncPointerArgDoesNotAllocate(t *testing.T) {
	s := New()
	type payload struct{ n int }
	p := &payload{}
	fn := func(a any) { a.(*payload).n++ }
	// Warm the pool with one slot.
	s.AfterFunc(1, fn, p)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.AfterFunc(1, fn, p)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("allocs = %v per warm AfterFunc+fire, want 0", allocs)
	}
}
