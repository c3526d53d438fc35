package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.AtFunc(3, func(any) { got = append(got, 3) }, nil)
	s.AtFunc(1, func(any) { got = append(got, 1) }, nil)
	s.AtFunc(2, func(any) { got = append(got, 2) }, nil)
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AtFunc(5, func(any) { got = append(got, i) }, nil)
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.AtFunc(1, func(any) { fired = true }, nil)
	if !e.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", s.Fired())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.AfterFunc(1, func(any) {
		times = append(times, s.Now())
		s.AfterFunc(2, func(any) { times = append(times, s.Now()) }, nil)
	}, nil)
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v, want [1 3]", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.AtFunc(Time(i), func(any) { count++ }, nil)
	}
	s.RunUntil(5)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.AtFunc(5, func(any) {}, nil)
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.AtFunc(1, func(any) {}, nil)
}

func TestNonFiniteTimePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling at NaN")
		}
	}()
	s.AtFunc(Time(math.NaN()), func(any) {}, nil)
}

// Property: for any set of timestamps, events fire in sorted order.
func TestEventsFireSortedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []Time
		for _, r := range raw {
			tm := Time(r)
			s.AtFunc(tm, func(any) { fired = append(fired, tm) }, nil)
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(1, 2)
	b := NewRNG(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	a := NewRNG(7, 7).Derive("workload")
	b := NewRNG(7, 7).Derive("placement")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams look identical (%d/64 equal)", same)
	}
}

// Derive must depend only on the parent's seed pair and the name: consuming
// the parent stream, or adding/reordering sibling derivations, must not
// perturb any derived stream (the package contract).
func TestRNGDerivePure(t *testing.T) {
	a := NewRNG(7, 7)
	a.Uint64() // consume parent state
	a.Derive("unrelated-sibling")
	got := a.Derive("workload")

	want := NewRNG(7, 7).Derive("workload")
	for i := 0; i < 64; i++ {
		if got.Uint64() != want.Uint64() {
			t.Fatalf("Derive depends on parent stream position (diverged at draw %d)", i)
		}
	}
}

func TestParetoTail(t *testing.T) {
	g := NewRNG(3, 9)
	n := 20000
	over := 0
	for i := 0; i < n; i++ {
		v := g.Pareto(1, 1.5)
		if v < 1 {
			t.Fatalf("Pareto below xm: %v", v)
		}
		if v > 4 {
			over++
		}
	}
	// P(X > 4) = 4^-1.5 = 0.125 for Pareto(1, 1.5).
	frac := float64(over) / float64(n)
	if frac < 0.10 || frac > 0.15 {
		t.Fatalf("Pareto tail fraction = %.3f, want ~0.125", frac)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(11, 13)
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += g.Exp(2.5)
	}
	mean := sum / float64(n)
	if mean < 2.4 || mean > 2.6 {
		t.Fatalf("Exp mean = %.3f, want ~2.5", mean)
	}
}

func TestCancelRemovesFromHeapEagerly(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, s.AfterFunc(Duration(i+1), func(any) {}, nil))
	}
	fired := 0
	s.AfterFunc(2000, func(any) { fired++ }, nil)
	for _, e := range evs {
		if !e.Cancel() {
			t.Fatal("Cancel returned false for a pending event")
		}
	}
	// Cancelled timers must leave the queue immediately, not linger as
	// dead entries until their timestamp is reached.
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	s.Run()
	if fired != 1 || s.Fired() != 1 {
		t.Fatalf("fired=%d Fired=%d, want 1/1", fired, s.Fired())
	}
}

func TestCancelHeadPreservesOrder(t *testing.T) {
	s := New()
	var order []int
	a := s.AfterFunc(1, func(any) { order = append(order, 1) }, nil)
	s.AfterFunc(2, func(any) { order = append(order, 2) }, nil)
	s.AfterFunc(3, func(any) { order = append(order, 3) }, nil)
	a.Cancel()
	s.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("order = %v, want [2 3]", order)
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	var b Event
	ran := false
	s.AfterFunc(1, func(any) { b.Cancel() }, nil)
	b = s.AfterFunc(2, func(any) { ran = true }, nil)
	s.Run()
	if ran {
		t.Fatal("cancelled-from-an-event callback still ran")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", s.Pending())
	}
}
