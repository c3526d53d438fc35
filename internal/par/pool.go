package par

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// spinRounds bounds how many runtime.Gosched rounds a waiting goroutine
// spends polling before it parks: a pool whose rounds follow each other
// after a short serial section catches the next round while still
// spinning, without a futex wake-up. A round costs about 0.1 µs on an
// otherwise idle P (2-vCPU Xeon), so a waiter parks after about 3 ms. In
// four interleaved 6 s runs of the benchmark's chat-prefix-fleet workload
// on that machine, 2048 and 8192 rounds, which park sooner, replayed 6%
// and 4% fewer requests per second than this count.
const spinRounds = 1 << 15

// Pool evaluates the same n cells once per Run, over and over, on helper
// goroutines that live from NewPool to Close. It is Do for a loop of
// rounds: the fleet's epoch barriers run one round each, thousands of
// times per run, where Do's goroutine spawn and park per call would cost
// more than the imbalance it removes.
//
// The calling goroutine works too: a pool of w workers starts
// min(w, n) - 1 helpers, and every worker pulls cell indices from one
// atomic cursor. Between rounds a helper spins for a bounded number of
// runtime.Gosched rounds and then parks on its channel; the caller waits
// for the round's last cell the same way. A pool with no helpers (w <= 1
// or n <= 1) is a plain serial loop and starts no goroutine.
//
// Panics follow Do's contract: a panicking cell stops the round's
// remaining cells from starting, in-flight cells finish, and Run
// re-panics on the caller with a *CellPanic carrying the cell index. A
// serial pool lets the panic through unwrapped, as Do's serial path does.
// The pool stays usable after a panic.
//
// Run and Close must be called from one goroutine at a time. Close must
// run on every path, a panic included, or the helpers outlive the caller.
type Pool struct {
	n    int
	eval func(int)
	// cursor packs the round number (high 32 bits) with the round's next
	// unclaimed cell (low 32 bits). A cell is claimed by a compare-and-swap
	// on both, so a helper still finishing round k can never claim a cell
	// of round k+1 by mistake.
	cursor   atomic.Uint64
	done     atomic.Int64 // cells of the current round finished
	panicked atomic.Pointer[CellPanic]
	closed   atomic.Bool
	caller   parker
	helpers  []parker
	wg       sync.WaitGroup
}

// parker is one goroutine's park/wake handshake. A waiter sets parked,
// re-checks its condition and only then blocks on wake; a waker sends a
// token only if it flips parked back itself. Exactly one of the two wins
// that flip, and a waiter that loses it takes the token it is owed, so
// no wake-up is ever lost and at most one token is ever in flight.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

func (k *parker) unpark() {
	if k.parked.CompareAndSwap(true, false) {
		k.wake <- struct{}{}
	}
}

// await returns once ready holds: it polls for spinRounds Gosched rounds,
// then parks until an unpark, and re-checks after every wake-up, since a
// waker from an earlier round may wake it early.
func (k *parker) await(ready func() bool) {
	for spin := 0; !ready(); spin++ {
		if spin < spinRounds {
			runtime.Gosched()
			continue
		}
		k.parked.Store(true)
		if ready() && k.parked.CompareAndSwap(true, false) {
			return
		}
		<-k.wake
		spin = 0
	}
}

// NewPool returns a pool running cells 0..n-1 of eval on up to workers
// goroutines, the caller included, and starts its helpers.
func NewPool(workers, n int, eval func(int)) *Pool {
	p := &Pool{n: n, eval: eval}
	helpers := min(workers, n) - 1
	if helpers <= 0 {
		return p
	}
	p.caller.wake = make(chan struct{}, 1)
	p.helpers = make([]parker, helpers)
	p.wg.Add(helpers)
	for i := range p.helpers {
		k := &p.helpers[i]
		k.wake = make(chan struct{}, 1)
		go p.help(k)
	}
	return p
}

// round extracts the round number from a cursor value.
func round(c uint64) uint32 { return uint32(c >> 32) }

// help is a helper goroutine's life: wait for a round it has not seen
// (or for Close), work it, repeat.
func (p *Pool) help(k *parker) {
	defer p.wg.Done()
	var seen uint32
	next := func() bool { return p.closed.Load() || round(p.cursor.Load()) != seen }
	for {
		k.await(next)
		if p.closed.Load() {
			return
		}
		seen = round(p.cursor.Load())
		p.work(seen)
	}
}

// Run evaluates every cell once and returns when all have finished.
func (p *Pool) Run() {
	if p.helpers == nil {
		for i := 0; i < p.n; i++ {
			p.eval(i)
		}
		return
	}
	p.done.Store(0)
	r := round(p.cursor.Load()) + 1
	p.cursor.Store(uint64(r) << 32)
	for i := range p.helpers {
		p.helpers[i].unpark()
	}
	p.work(r)
	p.caller.await(p.finished)
	if cp := p.panicked.Swap(nil); cp != nil {
		panic(cp)
	}
}

func (p *Pool) finished() bool { return p.done.Load() == int64(p.n) }

// work claims and runs round r's cells until none is left. After a panic
// the remaining cells are claimed and counted but not run, so the round
// still completes.
func (p *Pool) work(r uint32) {
	for {
		c := p.cursor.Load()
		i := int(uint32(c))
		if round(c) != r || i >= p.n {
			return
		}
		if !p.cursor.CompareAndSwap(c, c+1) {
			continue
		}
		if p.panicked.Load() == nil {
			p.runCell(i)
		}
		if p.done.Add(1) == int64(p.n) {
			p.caller.unpark()
		}
	}
}

func (p *Pool) runCell(i int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked.CompareAndSwap(nil, &CellPanic{Cell: i, Value: r, Stack: debug.Stack()})
		}
	}()
	p.eval(i)
}

// Close stops the helpers and waits for them to exit. It is idempotent;
// Run must not be called after it.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for i := range p.helpers {
		p.helpers[i].unpark()
	}
	p.wg.Wait()
}
