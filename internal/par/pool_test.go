package par

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// poolWorkerCounts covers the serial pool, the smallest parallel one, one
// worker per cell, more workers than cells, and more workers than Ps.
func poolWorkerCounts(n int) []int {
	return []int{1, 2, n, n + 3, runtime.GOMAXPROCS(0) + 2}
}

// settleGoroutines waits until the goroutine count falls back to base:
// exited helpers may take a moment to leave the scheduler's count.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewPool", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolRunsEveryCellOncePerRound drives many short back-to-back
// rounds, where helpers catch each round while spinning, and checks each
// round ran every cell exactly once.
func TestPoolRunsEveryCellOncePerRound(t *testing.T) {
	const n, rounds = 7, 2000
	for _, w := range poolWorkerCounts(n) {
		counts := make([]atomic.Int32, n)
		p := NewPool(w, n, func(i int) { counts[i].Add(1) })
		for r := 1; r <= rounds; r++ {
			p.Run()
			for i := range counts {
				if got := counts[i].Load(); got != int32(r) {
					p.Close()
					t.Fatalf("workers=%d round %d: cell %d ran %d times, want %d", w, r, i, got, r)
				}
			}
		}
		p.Close()
	}
}

// waitFor polls cond for up to 10 s.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// onCaller reports whether the running goroutine is the test's own, not
// a pool helper.
func onCaller() bool {
	buf := make([]byte, 4096)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("testing.tRunner"))
}

// TestPoolWakesParkedWaiters covers both halves of the park/wake
// handshake. Helpers that have spun out and parked must all wake for the
// next round: its cells wait until every worker holds one, so a lost
// helper wake-up shows as a short peak. And a caller that has spun out
// waiting for a helper's last cell must wake when it finishes, or Run
// never returns.
func TestPoolWakesParkedWaiters(t *testing.T) {
	const n = 4
	for _, w := range []int{2, n, n + 3} {
		want := int32(min(w, n))
		var cur, peak atomic.Int32
		var slowCaller atomic.Bool // the round makes the caller park
		var helperCells, callerParked atomic.Int32
		var p *Pool
		p = NewPool(w, n, func(int) {
			if slowCaller.Load() {
				// The caller's cells yield until a helper holds one; that
				// helper's cell then holds until the caller has parked.
				if onCaller() {
					waitFor(func() bool { return helperCells.Load() > 0 })
				} else if helperCells.Add(1); waitFor(p.caller.parked.Load) {
					callerParked.Add(1)
				}
				return
			}
			c := cur.Add(1)
			defer cur.Add(-1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			waitFor(func() bool { return peak.Load() >= want })
		})
		for rep := 0; rep < 3; rep++ {
			if !waitFor(func() bool {
				for i := range p.helpers {
					if !p.helpers[i].parked.Load() {
						return false
					}
				}
				return true
			}) {
				p.Close()
				t.Fatalf("workers=%d: helpers never parked", w)
			}
			peak.Store(0)
			p.Run()
			if got := peak.Load(); got != want {
				p.Close()
				t.Fatalf("workers=%d: %d of %d workers woke from park", w, got, want)
			}
		}

		slowCaller.Store(true)
		watchdog := time.AfterFunc(time.Minute, func() {
			panic(fmt.Sprintf("workers=%d: a parked caller was never woken", w))
		})
		p.Run()
		watchdog.Stop()
		p.Close()
		if callerParked.Load() == 0 {
			t.Fatalf("workers=%d: the caller never parked waiting for a helper", w)
		}
	}
}

// TestPoolBoundsConcurrency: at most min(workers, n) cells are in flight,
// and with blocking cells exactly that many run at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	const n = 6
	for _, w := range poolWorkerCounts(n) {
		want := min(w, n)
		var cur, peak atomic.Int32
		p := NewPool(w, n, func(int) {
			c := cur.Add(1)
			defer cur.Add(-1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			// Hold the cell until all expected workers coexist (bounded,
			// so an undersized pool fails the check below, not the test
			// binary's timeout).
			deadline := time.Now().Add(2 * time.Second)
			for peak.Load() < int32(want) && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		})
		p.Run()
		p.Close()
		if got := peak.Load(); got != int32(want) {
			t.Fatalf("workers=%d: peak concurrent cells %d, want min(workers, n) = %d", w, got, want)
		}
	}
}

// TestPoolSerialStartsNoGoroutine: one worker, or one cell, is a plain
// loop on the caller.
func TestPoolSerialStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, c := range []struct{ w, n int }{{1, 8}, {0, 8}, {8, 1}} {
		var seen []int
		p := NewPool(c.w, c.n, func(i int) {
			if g := runtime.NumGoroutine(); g > base {
				t.Errorf("workers=%d n=%d: %d goroutines inside a serial pool, want at most %d", c.w, c.n, g, base)
			}
			seen = append(seen, i)
		})
		p.Run()
		p.Close()
		for i, v := range seen {
			if v != i {
				t.Fatalf("workers=%d n=%d: serial order %v", c.w, c.n, seen)
			}
		}
		if len(seen) != c.n {
			t.Fatalf("workers=%d n=%d: ran %d cells", c.w, c.n, len(seen))
		}
	}
}

// TestPoolPanicPropagates pins Do's panic contract on the pool: a
// panicking cell, on a helper or on the caller, re-panics on the caller
// as a *CellPanic naming the cell after the in-flight cells finish, the
// pool stays usable, and no helper outlives Close.
func TestPoolPanicPropagates(t *testing.T) {
	const n = 8
	for _, w := range []int{2, 4, n + 3} {
		for bad := 0; bad < n; bad += 3 {
			base := runtime.NumGoroutine()
			var inFlight, finished atomic.Int32
			armed := true
			p := NewPool(w, n, func(i int) {
				if armed && i == bad {
					panic("boom")
				}
				inFlight.Add(1)
				time.Sleep(50 * time.Microsecond)
				inFlight.Add(-1)
				finished.Add(1)
			})
			rec := func() (rec any) {
				defer func() { rec = recover() }()
				p.Run()
				return nil
			}()
			cp, ok := rec.(*CellPanic)
			if !ok {
				p.Close()
				t.Fatalf("workers=%d bad=%d: recovered %T (%v), want *CellPanic", w, bad, rec, rec)
			}
			if cp.Cell != bad || cp.Value != "boom" || len(cp.Stack) == 0 {
				p.Close()
				t.Fatalf("workers=%d: CellPanic{Cell:%d Value:%v}, want {%d boom} with a stack", w, cp.Cell, cp.Value, bad)
			}
			if c := inFlight.Load(); c != 0 {
				p.Close()
				t.Fatalf("workers=%d bad=%d: Run re-panicked with %d cells still running", w, bad, c)
			}
			// The next round runs every cell again.
			armed = false
			finished.Store(0)
			p.Run()
			if got := finished.Load(); got != n {
				p.Close()
				t.Fatalf("workers=%d bad=%d: round after a panic finished %d of %d cells", w, bad, got, n)
			}
			p.Close()
			settleGoroutines(t, base)
		}
	}
}

// TestPoolCloseJoinsHelpers: Close returns only after every helper has
// exited, whether they were spinning, parked, or never ran a round.
func TestPoolCloseJoinsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, w := range poolWorkerCounts(5) {
		idle := NewPool(w, 5, func(int) {})
		idle.Close()
		idle.Close() // idempotent

		spinning := NewPool(w, 5, func(int) {})
		spinning.Run()
		spinning.Close()

		parked := NewPool(w, 5, func(int) {})
		parked.Run()
		time.Sleep(5 * time.Millisecond)
		parked.Close()
	}
	settleGoroutines(t, base)
}
