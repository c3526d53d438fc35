// Package par provides bounded fan-out primitives. Do is the one-shot
// sweep shared by the experiment runner and the profile CLI: evaluate n
// independent cells, gate concurrency on a semaphore, return results in
// input order. Pool runs the same cells round after round on long-lived
// workers, for the fleet's epoch barriers.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Sem is a counting semaphore bounding concurrent cells. A nil Sem means
// serial execution.
type Sem chan struct{}

// NewSem returns a semaphore admitting up to n concurrent cells, or nil
// (serial) for n <= 1.
func NewSem(n int) Sem {
	if n <= 1 {
		return nil
	}
	return make(Sem, n)
}

// CellPanic is what Do re-panics with when a cell's eval panicked: the cell
// index, the original panic value, and the stack captured at the point of
// panic. Without this wrapper a panicking cell would kill the process from
// its worker goroutine before the caller could observe anything.
type CellPanic struct {
	// Cell is the index of the panicking cell.
	Cell int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (p *CellPanic) String() string {
	return fmt.Sprintf("par: cell %d panicked: %v\n%s", p.Cell, p.Value, p.Stack)
}

// Do evaluates cells 0..n-1 and returns their results in index order.
// With a nil semaphore it degenerates to a plain loop; otherwise every
// cell — including a lone one, so single-cell sweeps still respect a
// shared bound — runs holding a semaphore slot for its duration. At most
// min(n, cap(sem)) worker goroutines are spawned, pulling cell indices
// from a shared counter: a million-cell sweep over a k-slot semaphore
// costs k goroutines, not a million parked ones. Cells must not call Do
// on the same semaphore: a cell holding a slot while waiting for inner
// ones can deadlock a saturated pool — flatten nested fan-outs instead.
//
// A panic inside a cell does not crash the process from a worker
// goroutine: the first panic is captured, the remaining workers finish
// their in-flight cells and stop picking new ones (their semaphore slots
// are released either way, so concurrent Do calls sharing the pool never
// deadlock), and Do re-panics on the caller's goroutine with a *CellPanic
// carrying the cell index, original value, and stack.
func Do[T any](sem Sem, n int, eval func(int) T) []T {
	out := make([]T, n)
	if sem == nil {
		for i := range out {
			out[i] = eval(i)
		}
		return out
	}
	workers := cap(sem)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var panicked atomic.Pointer[CellPanic]
	var wg sync.WaitGroup
	runCell := func(i int) {
		// The slot is acquired per cell, not per worker, so concurrent Do
		// calls sharing one semaphore interleave their cells fairly instead
		// of monopolizing the pool.
		sem <- struct{}{}
		defer func() {
			<-sem
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &CellPanic{Cell: i, Value: r, Stack: debug.Stack()})
			}
		}()
		out[i] = eval(i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for panicked.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runCell(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return out
}
