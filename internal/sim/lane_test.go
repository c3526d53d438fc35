package sim

import (
	"math"
	"math/rand"
	"testing"
)

// laneFire is one fired event as the oracle sees it: its time, the seq it
// was scheduled with, and its payload.
type laneFire struct {
	at  Time
	seq uint64
	id  int
}

// laneScript drives one simulator through a random schedule that mixes
// heap events (AtFunc and AfterFunc, some cancelled) with owners that keep
// at most one uncancellable event pending. With useLane the owners schedule
// on the lane; without, the same owners schedule on the heap. Every choice
// comes from rng in firing order, so two runs consume the same choices
// exactly as long as they fire the same sequence.
type laneScript struct {
	t       *testing.T
	s       *Simulator
	rng     *rand.Rand
	useLane bool

	fired   []laneFire
	nextID  int
	handles []Event // heap events that may still be pending
	live    int     // pending heap events, by the script's own count
	armed   []bool  // owners with an event pending
	budget  int     // events the script may still schedule
	// ownerIDs holds the payload ids scheduled for owners.
	ownerIDs map[int]bool

	ownerFn, heapFn func(any)
}

type lanePayload struct {
	id, owner int // owner is -1 for heap events
	seq       uint64
}

func newLaneScript(t *testing.T, seed int64, owners int, useLane bool) *laneScript {
	ls := &laneScript{
		t: t, s: New(), rng: rand.New(rand.NewSource(seed)), useLane: useLane,
		armed: make([]bool, owners), budget: 2000, ownerIDs: map[int]bool{},
	}
	ls.ownerFn = ls.onOwner
	ls.heapFn = ls.onHeap
	return ls
}

// delay draws from a coarse grid, zero included, so lane and heap events
// often share a time.
func (ls *laneScript) delay() Duration {
	return Duration(ls.rng.Intn(8)) * 0.25
}

func (ls *laneScript) payload(owner int) *lanePayload {
	p := &lanePayload{id: ls.nextID, owner: owner, seq: ls.s.seq}
	if owner >= 0 {
		ls.ownerIDs[p.id] = true
	}
	ls.nextID++
	ls.budget--
	return p
}

// arm schedules owner's next event; the owner must be idle.
func (ls *laneScript) arm(owner int) {
	if ls.armed[owner] || ls.budget <= 0 {
		return
	}
	ls.armed[owner] = true
	p := ls.payload(owner)
	d := ls.delay()
	after := ls.rng.Intn(2) == 0 // drawn in both modes, so they stay in step
	switch {
	case ls.useLane:
		ls.s.LaneAtFunc(ls.s.Now().Add(d), ls.ownerFn, p)
	case after:
		ls.s.AfterFunc(d, ls.ownerFn, p)
	default:
		ls.s.AtFunc(ls.s.Now().Add(d), ls.ownerFn, p)
	}
}

// heap schedules one cancellable heap event.
func (ls *laneScript) heap() {
	if ls.budget <= 0 {
		return
	}
	p := ls.payload(-1)
	var h Event
	if ls.rng.Intn(2) == 0 {
		h = ls.s.AfterFunc(ls.delay(), ls.heapFn, p)
	} else {
		h = ls.s.AtFunc(ls.s.Now().Add(ls.delay()), ls.heapFn, p)
	}
	ls.handles = append(ls.handles, h)
	ls.live++
}

// act is what every fired event does: a few random schedules, arms and
// cancels.
func (ls *laneScript) act() {
	for k := ls.rng.Intn(3); k > 0; k-- {
		switch ls.rng.Intn(4) {
		case 0, 1:
			ls.heap()
		case 2:
			ls.arm(ls.rng.Intn(len(ls.armed)))
		case 3:
			if n := len(ls.handles); n > 0 {
				j := ls.rng.Intn(n)
				if ls.handles[j].Cancel() {
					ls.live--
				}
				ls.handles[j] = ls.handles[n-1]
				ls.handles = ls.handles[:n-1]
			}
		}
	}
}

func (ls *laneScript) record(p *lanePayload) {
	ls.fired = append(ls.fired, laneFire{at: ls.s.Now(), seq: p.seq, id: p.id})
	if got, want := ls.s.Pending(), ls.pending(); got != want {
		ls.t.Fatalf("event %d: Pending() = %d, want %d", p.id, got, want)
	}
}

// pending is the script's own count of scheduled, unfired events.
func (ls *laneScript) pending() int {
	n := ls.live
	for _, a := range ls.armed {
		if a {
			n++
		}
	}
	return n
}

func (ls *laneScript) onOwner(a any) {
	p := a.(*lanePayload)
	ls.armed[p.owner] = false
	ls.record(p)
	// An owner usually re-arms from its own completion, as an executor
	// starts its next iteration.
	if ls.rng.Intn(4) != 0 {
		ls.arm(p.owner)
	}
	ls.act()
}

func (ls *laneScript) onHeap(a any) {
	p := a.(*lanePayload)
	ls.live--
	ls.record(p)
	ls.act()
}

func (ls *laneScript) start() {
	for o := range ls.armed {
		ls.arm(o)
	}
	for k := 0; k < 4; k++ {
		ls.heap()
	}
}

// laneDeadlineFires counts the lane events that fired exactly at a deadline
// of RunUntil.
func laneDeadlineFires(fired []laneFire, deadlines []Time, laneIDs map[int]bool) int {
	n := 0
	for _, f := range fired {
		if !laneIDs[f.id] {
			continue
		}
		for _, d := range deadlines {
			if f.at == d {
				n++
			}
		}
	}
	return n
}

// TestLaneMatchesAllHeapOrder is the lane's ordering oracle: random mixes
// of cancellable heap events and lane owners fire the same (time, seq,
// payload) sequence as the same schedule run with every event on the heap,
// whether driven by Run or by a sequence of RunUntil deadlines that lane
// events land on exactly.
func TestLaneMatchesAllHeapOrder(t *testing.T) {
	deadlines := []Time{1, 2, 2.5, 4, 7}
	var ties, atDeadline int
	for seed := int64(1); seed <= 60; seed++ {
		for _, useUntil := range []bool{false, true} {
			run := func(useLane bool) *laneScript {
				ls := newLaneScript(t, seed, 1+int(seed%9), useLane)
				ls.start()
				if useUntil {
					for _, d := range deadlines {
						ls.s.RunUntil(d)
						if ls.s.Now() != d {
							t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, d, ls.s.Now())
						}
						for _, f := range ls.fired {
							if f.at > d {
								t.Fatalf("seed %d: event %d at %v fired by RunUntil(%v)", seed, f.id, f.at, d)
							}
						}
						if sl, _ := ls.s.next(); sl >= 0 && ls.s.slots[sl].at <= d {
							t.Fatalf("seed %d: RunUntil(%v) left an event at %v pending", seed, d, ls.s.slots[sl].at)
						}
					}
				}
				ls.s.Run()
				if ls.s.Pending() != 0 || ls.pending() != 0 {
					t.Fatalf("seed %d: %d events left after Run", seed, ls.s.Pending())
				}
				return ls
			}
			lane, heap := run(true), run(false)
			if len(lane.fired) != len(heap.fired) {
				t.Fatalf("seed %d until=%v: lane run fired %d events, all-heap run %d",
					seed, useUntil, len(lane.fired), len(heap.fired))
			}
			for i := range heap.fired {
				if lane.fired[i] != heap.fired[i] {
					t.Fatalf("seed %d until=%v: event %d: lane run fired %+v, all-heap run %+v",
						seed, useUntil, i, lane.fired[i], heap.fired[i])
				}
			}
			if lane.s.Fired() != heap.s.Fired() || lane.s.Fired() != uint64(len(lane.fired)) {
				t.Fatalf("seed %d: Fired() = %d and %d for %d events", seed, lane.s.Fired(), heap.s.Fired(), len(lane.fired))
			}
			laneIDs, heapAt := lane.ownerIDs, map[Time]bool{}
			for _, f := range lane.fired {
				if !laneIDs[f.id] {
					heapAt[f.at] = true
				}
			}
			for _, f := range lane.fired {
				if laneIDs[f.id] && heapAt[f.at] {
					ties++
				}
			}
			if useUntil {
				atDeadline += laneDeadlineFires(lane.fired, deadlines, laneIDs)
			}
		}
	}
	// The schedule must exercise what it claims to.
	if ties == 0 {
		t.Fatal("no lane event shared its time with a heap event")
	}
	if atDeadline == 0 {
		t.Fatal("no lane event fired exactly at a RunUntil deadline")
	}
}

// TestLaneResetRecyclesArmedSlots resets a simulator with armed lane events
// and heap events pending: none of them fires, every slot returns to the
// free-list with a bumped generation, and the simulator runs a new schedule
// from the clock at zero.
func TestLaneResetRecyclesArmedSlots(t *testing.T) {
	s := New()
	fired := 0
	count := func(any) { fired++ }
	for k := 0; k < 5; k++ {
		s.LaneAtFunc(Time(k+1), count, nil)
		s.AtFunc(Time(k+1), count, nil)
	}
	h := s.AtFunc(3, count, nil)
	s.RunUntil(2)
	if fired != 4 {
		t.Fatalf("fired %d events up to t=2, want 4", fired)
	}
	if got := s.Pending(); got != 7 {
		t.Fatalf("Pending() = %d, want 7 (3 lane + 4 heap)", got)
	}
	gens := map[int32]uint64{}
	for _, he := range s.lane[s.laneHead:] {
		gens[he.slot] = s.slots[he.slot].gen
	}
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Fired() != 0 {
		t.Fatalf("after Reset: Pending %d, Now %v, Fired %d", s.Pending(), s.Now(), s.Fired())
	}
	if len(s.pool) != len(s.slots) {
		t.Fatalf("%d of %d slots back in the pool after Reset", len(s.pool), len(s.slots))
	}
	for sl, g := range gens {
		e := &s.slots[sl]
		if e.gen != g+1 || e.fn != nil || e.arg != nil {
			t.Fatalf("lane slot %d after Reset: gen %d (was %d), fn set %v", sl, e.gen, g, e.fn != nil)
		}
	}
	if h.Cancel() {
		t.Fatal("a handle from before Reset cancelled something")
	}
	s.Run()
	if fired != 4 {
		t.Fatalf("%d discarded events fired after Reset", fired-4)
	}
	s.LaneAtFunc(1, count, nil)
	s.AfterFunc(1, count, nil)
	s.Run()
	if fired != 6 || s.Now() != 1 {
		t.Fatalf("after Reset the new schedule fired %d events by %v, want 2 by 1", fired-4, s.Now())
	}
}

// TestLaneRejectsPastAndNonFinite keeps the heap's scheduling checks on the
// lane.
func TestLaneRejectsPastAndNonFinite(t *testing.T) {
	for name, f := range map[string]func(s *Simulator){
		"past": func(s *Simulator) { s.LaneAtFunc(0.5, func(any) {}, nil) },
		"nan":  func(s *Simulator) { s.LaneAtFunc(Time(math.NaN()), func(any) {}, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			s := New()
			s.RunUntil(1)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f(s)
		})
	}
}

// TestLaneSteadyStateDoesNotAllocate runs self-rearming lane owners beside
// a heap timer: once the arena and the lane have grown, firing and
// re-arming allocate nothing.
func TestLaneSteadyStateDoesNotAllocate(t *testing.T) {
	s := New()
	left := 0
	var step func(any)
	step = func(a any) {
		if left > 0 {
			left--
			s.LaneAtFunc(s.Now().Add(Duration(1+a.(*int32Box).v%3)*Millisecond), step, a)
		}
	}
	boxes := make([]int32Box, 8)
	round := func() {
		left = 4000
		for i := range boxes {
			boxes[i].v = int32(i)
			s.LaneAtFunc(s.Now().Add(Duration(i)*Millisecond), step, &boxes[i])
		}
		s.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Fatalf("%v allocs per 4000 lane events", allocs)
	}
}

type int32Box struct{ v int32 }
