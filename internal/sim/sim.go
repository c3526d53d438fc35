// Package sim provides a deterministic discrete-event simulation engine.
//
// All SLINFER experiments run in virtual time: the cluster, instances, and
// memory operations schedule events on a shared Simulator, and the engine
// executes them in nondecreasing time order. Ties are broken by scheduling
// order, which makes every run fully deterministic for a given seed.
//
// The engine is the hottest path in the repository: every iteration, timer,
// and memory operation passes through it. Two design choices keep it cheap:
//
//   - Fired and cancelled events are recycled through a per-Simulator
//     free-list instead of being garbage-collected; a steady-state run
//     schedules millions of events with a handful of allocations. Callers
//     hold generation-checked Event handles, so a stale handle to a recycled
//     slot degrades to a no-op instead of corrupting its successor.
//   - The pending queue is a hand-specialized 4-ary index heap over the
//     concrete event type (see heap.go) — no interface boxing per push/pop,
//     and half the depth of a binary heap on large queues.
//   - Iteration completions bypass the heap. An owner that has at most one
//     event pending at a time, and never cancels it, schedules through the
//     lane (lane.go): a short sorted array beside the heap. Lane events take
//     their seq from the same counter, and Step fires the lesser (at, seq)
//     of the two heads, so the firing order is exactly an all-heap run's.
//
// Events are scheduled with AtFunc/AfterFunc: a callback plus the argument
// it is passed, so a hot caller binds the callback once and schedules
// without a closure allocation per event (the closure-allocation rules in
// DESIGN.md).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the simulation epoch.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration float64

// Common durations.
const (
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Milliseconds returns the duration as a float64 number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) * 1e3 }

func (t Time) String() string     { return fmt.Sprintf("%.6fs", float64(t)) }
func (d Duration) String() string { return fmt.Sprintf("%.6fs", float64(d)) }

// event is the arena-resident representation of a scheduled callback. Events
// live by value in the Simulator's slots arena and are addressed by slot
// index; once an event fires or is cancelled its slot returns to the
// free-list, and gen is bumped when the slot is next reused so stale handles
// cannot touch the successor event.
type event struct {
	at  Time
	seq uint64
	// fn is a pre-bound callback and arg its argument, so hot callers avoid
	// a closure allocation per event.
	fn       func(any)
	arg      any
	gen      uint64
	index    int32 // heap index, -1 when not queued
	canceled bool
}

// Event is a handle to a scheduled callback. The zero value is inert: Cancel
// and Canceled return false.
//
// A handle is valid from scheduling until its event fires or is cancelled.
// Afterwards the underlying slot may be recycled for a later event; the
// handle detects this through a generation check and degrades gracefully —
// Cancel returns false and cannot affect the slot's new occupant. Canceled
// keeps reporting true for a cancelled event only until its slot is reused.
type Event struct {
	s    *Simulator
	gen  uint64
	slot int32
}

// ev resolves the handle to its live arena slot, or nil if the handle is
// zero or stale (the slot was recycled for a later event).
func (h Event) ev() *event {
	if h.s == nil {
		return nil
	}
	e := &h.s.slots[h.slot]
	if e.gen != h.gen {
		return nil
	}
	return e
}

// At returns the virtual time the event was scheduled for, or 0 if the
// handle is stale (its slot has been recycled).
func (h Event) At() Time {
	if e := h.ev(); e != nil {
		return e.at
	}
	return 0
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled, or stale handle is a no-op. Returns true if the event
// was pending.
//
// The event is removed from the queue eagerly: long runs that cancel many
// drop/keep-alive timers do not accumulate dead entries in the heap, and
// Pending stays an O(1) read.
//
//slinfer:hotpath
func (h Event) Cancel() bool {
	e := h.ev()
	if e == nil || e.canceled || e.index < 0 {
		return false
	}
	e.canceled = true
	h.s.remove(int(e.index))
	e.fn, e.arg = nil, nil
	h.s.pool = append(h.s.pool, h.slot)
	return true
}

// Canceled reports whether Cancel was called before the event fired. Once
// the slot is recycled for a later event the handle is stale and Canceled
// returns false.
func (h Event) Canceled() bool {
	e := h.ev()
	return e != nil && e.canceled
}

// Simulator owns the virtual clock, the pending-event queue, and the event
// arena. The zero value is not usable; construct with New.
type Simulator struct {
	now   Time
	seq   uint64
	queue []heapEntry // 4-ary index min-heap with inline keys (heap.go)
	slots []event     // arena: all events, addressed by slot index
	pool  []int32     // free-list of recycled arena slots
	fired uint64

	// lane holds the uncancellable events' keys, sorted ascending (lane.go);
	// lane[laneHead] is the earliest, and lane[:laneHead] has fired.
	lane     []heapEntry
	laneHead int

	// OnEvent, if set, observes every fired event just before its callback
	// runs (after the clock has advanced to the event's timestamp). The
	// invariant suite hooks the event clock here; observers must not mutate
	// the simulator. Nil costs a single branch per event.
	OnEvent func(at Time)
}

// New returns a simulator with the clock at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled, on the heap and on
// the lane. Cancelled events leave the queue immediately, so this is a
// plain length read.
func (s *Simulator) Pending() int { return len(s.queue) + len(s.lane) - s.laneHead }

// alloc takes an arena slot from the free-list (bumping its generation so
// stale handles die) or extends the arena.
//
//slinfer:hotpath
func (s *Simulator) alloc() int32 {
	if n := len(s.pool); n > 0 {
		sl := s.pool[n-1]
		s.pool = s.pool[:n-1]
		e := &s.slots[sl]
		e.gen++
		e.canceled = false
		return sl
	}
	s.slots = append(s.slots, event{})
	return int32(len(s.slots) - 1)
}

// AtFunc schedules fn(arg) to run at absolute time t. Scheduling in the past
// panics: it would silently reorder causality and every caller bug we have
// seen manifests this way. The callback is passed its argument explicitly,
// so hot callers bind fn once (at construction) and schedule without
// allocating a closure per event: the argument rides inside the pooled
// event. Passing a pointer (or any pointer-shaped value) as arg does not
// allocate.
//
//slinfer:hotpath
func (s *Simulator) AtFunc(t Time, fn func(arg any), arg any) Event {
	sl := s.schedule(t, fn, arg)
	s.push(sl)
	return Event{s: s, gen: s.slots[sl].gen, slot: sl}
}

// schedule checks t, takes an arena slot and fills it with the event and the
// next seq; the caller queues the slot on the heap or on the lane.
//
//slinfer:hotpath
func (s *Simulator) schedule(t Time, fn func(arg any), arg any) int32 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", float64(t)))
	}
	sl := s.alloc()
	e := &s.slots[sl]
	e.at, e.seq, e.fn, e.arg = t, s.seq, fn, arg
	s.seq++
	return sl
}

// AfterFunc schedules fn(arg) to run d after the current time; see AtFunc.
// Negative d panics.
//
//slinfer:hotpath
func (s *Simulator) AfterFunc(d Duration, fn func(arg any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtFunc(s.now.Add(d), fn, arg)
}

// Reset returns the simulator to the state of a fresh New() — clock at
// zero, empty queue, no observer — while keeping the event arena, the
// free-list, and the heap's backing storage for reuse. A long-lived worker
// resets one simulator between runs instead of allocating a new arena per
// run; after the first run, steady-state scheduling allocates nothing.
//
// Every pending event is discarded (callbacks never fire) and its slot
// recycled with a bumped generation, so handles issued before Reset turn
// stale and degrade to no-ops exactly like handles to fired events.
func (s *Simulator) Reset() {
	s.discard(s.queue)
	s.discard(s.lane[s.laneHead:])
	s.queue, s.lane, s.laneHead = s.queue[:0], s.lane[:0], 0
	s.now, s.seq, s.fired = 0, 0, 0
	s.OnEvent = nil
}

// discard returns the slots of unfired events to the free-list with a bumped
// generation (Reset).
func (s *Simulator) discard(q []heapEntry) {
	for _, he := range q {
		e := &s.slots[he.slot]
		e.gen++ // invalidate outstanding handles immediately
		e.index = -1
		e.canceled = false
		e.fn, e.arg = nil, nil
		s.pool = append(s.pool, he.slot)
	}
}

// next returns the arena slot of the earliest pending event — the lesser
// of the lane head and the heap top — and whether it is on the lane. The
// slot is -1 when nothing is pending.
//
//slinfer:hotpath
func (s *Simulator) next() (slot int32, onLane bool) {
	if h := s.laneHead; h < len(s.lane) {
		if len(s.queue) == 0 || entryLess(s.lane[h], s.queue[0]) {
			return s.lane[h].slot, true
		}
		return s.queue[0].slot, false
	}
	if len(s.queue) > 0 {
		return s.queue[0].slot, false
	}
	return -1, false
}

// Step executes the single earliest pending event — the lesser of the heap
// top and the lane head — advancing the clock to its timestamp. It returns
// false when no events remain. Cancelled events were already removed by
// Cancel, so whatever is popped is live.
//
//slinfer:hotpath
func (s *Simulator) Step() bool {
	sl, onLane := s.next()
	if sl < 0 {
		return false
	}
	s.fire(sl, onLane)
	return true
}

// fire dequeues the event in arena slot sl, the head of its queue, and
// runs it.
//
//slinfer:hotpath
func (s *Simulator) fire(sl int32, onLane bool) {
	if onLane {
		s.popLane()
	} else {
		s.pop()
	}
	e := &s.slots[sl]
	at, fn, arg := e.at, e.fn, e.arg
	// Recycle before running the callback (and drop the arena pointer — the
	// callback may grow the arena): a self-renewing timer chain reuses its
	// own slot, so steady-state scheduling never allocates.
	e.fn, e.arg = nil, nil
	s.pool = append(s.pool, sl)
	s.now = at
	s.fired++
	if s.OnEvent != nil {
		s.OnEvent(at)
	}
	fn(arg)
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain pending.
func (s *Simulator) RunUntil(deadline Time) {
	for {
		sl, onLane := s.next()
		if sl < 0 || s.slots[sl].at > deadline {
			break
		}
		s.fire(sl, onLane)
	}
	if s.now < deadline {
		s.now = deadline
	}
}
