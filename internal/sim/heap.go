package sim

import (
	"math"
	"math/bits"
)

// 4-ary index min-heap over (time, seq) keys with inline key storage.
//
// The standard library's container/heap costs an interface dispatch per
// Less/Swap and boxes every Push/Pop operand through `any`; on a queue that
// turns over millions of events per run that indirection dominates. This
// heap is specialized four ways:
//
//   - Entries are pointer-free: each carries its sort key inline plus the
//     int32 slot of its event in the Simulator's arena. Comparisons read
//     contiguous heap memory, and sift moves are plain integer stores — no
//     GC write barrier per level (the barriers showed up in profiles when
//     the queue held *event pointers).
//   - The time key is stored as its IEEE-754 bit pattern: event times are
//     always >= 0 (AtFunc rejects the past and the clock starts at zero), and
//     for non-negative floats the bit patterns order identically to the
//     values — so the hot comparison is two integer compares instead of a
//     float compare with a tie branch (ties on `at` are common: every batch
//     of same-timestamp events hits the seq tiebreak).
//   - Each event's position is kept in its slot's index field, so Cancel can
//     remove in O(log n) without a scan.
//   - Fanout is 4: half the levels of a binary heap, and one level's four
//     24-byte entries span just two cache lines. pop sifts the root hole to
//     the bottom and then sifts the displaced last leaf up (it nearly always
//     stays low), saving the per-level early-exit compare of the classic
//     sift-down.
//
// Ordering is the strict total order (at, seq) — seq is unique per event —
// so any correct heap pops events in exactly the same sequence; the heap's
// internal layout can never change simulation results.

// heapEntry is one queue slot: the event's sort key, stored inline so
// comparisons never touch the arena, plus the event's arena slot.
type heapEntry struct {
	atBits uint64
	seq    uint64
	slot   int32
}

// timeBits maps a non-negative Time to an order-preserving uint64 key.
// Adding +0 first normalizes -0.0 (which AtFunc admits: -0.0 < 0 is false) to
// +0.0, whose bit pattern would otherwise sort above every positive time.
func timeBits(t Time) uint64 {
	return math.Float64bits(float64(t) + 0)
}

// entryLess orders entries by (time, scheduling order), evaluated as one
// branchless 128-bit unsigned comparison (subtract-with-borrow): ties on
// `at` are common enough that the obvious two-branch compare mispredicts.
func entryLess(a, b heapEntry) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.atBits, b.atBits, borrow)
	return borrow != 0
}

// push enqueues the event in arena slot sl and restores the heap property.
//
//slinfer:hotpath
func (s *Simulator) push(sl int32) {
	e := &s.slots[sl]
	e.index = int32(len(s.queue))
	s.queue = append(s.queue, heapEntry{atBits: timeBits(e.at), seq: e.seq, slot: sl})
	s.siftUp(len(s.queue) - 1)
}

// pop removes and returns the arena slot of the minimum event, marking it
// unqueued. The root hole is sifted to the bottom (promoting the min child
// per level — no early-exit compare), then the displaced last leaf drops
// into the hole and sifts up; leaves nearly always stay at the bottom, so
// the up pass is usually a single compare.
//
//slinfer:hotpath
func (s *Simulator) pop() int32 {
	q := s.queue
	slots := s.slots
	top := q[0].slot
	n := len(q) - 1
	slots[top].index = -1
	last := q[n]
	s.queue = q[:n]
	if n > 0 {
		q = s.queue
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			kids := q[c:end] // one bounds check for the whole child scan
			m, mk := 0, kids[0]
			for j := 1; j < len(kids); j++ {
				if entryLess(kids[j], mk) {
					m, mk = j, kids[j]
				}
			}
			m += c
			q[i] = mk
			slots[mk.slot].index = int32(i)
			i = m
		}
		q[i] = last
		slots[last.slot].index = int32(i)
		s.siftUp(i)
	}
	return top
}

// remove deletes the event at heap position i (Cancel's eager removal).
//
//slinfer:hotpath
func (s *Simulator) remove(i int) {
	q := s.queue
	n := len(q) - 1
	s.slots[q[i].slot].index = -1
	last := q[n]
	s.queue = q[:n]
	if i < n {
		s.queue[i] = last
		s.slots[last.slot].index = int32(i)
		s.siftDown(i)
		if int(s.slots[last.slot].index) == i {
			s.siftUp(i)
		}
	}
}

//slinfer:hotpath
func (s *Simulator) siftUp(i int) {
	q := s.queue
	slots := s.slots
	e := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(e, q[p]) {
			break
		}
		q[i] = q[p]
		slots[q[i].slot].index = int32(i)
		i = p
	}
	q[i] = e
	slots[e.slot].index = int32(i)
}

// siftDown restores the heap downward from i with the classic early-exit
// walk; remove uses it for arbitrary positions (pop has its own hole-sift).
//
//slinfer:hotpath
func (s *Simulator) siftDown(i int) {
	q := s.queue
	slots := s.slots
	n := len(q)
	e := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, mk := c, q[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(q[j], mk) {
				m, mk = j, q[j]
			}
		}
		if !entryLess(mk, e) {
			break
		}
		q[i] = mk
		slots[mk.slot].index = int32(i)
		i = m
	}
	q[i] = e
	slots[e.slot].index = int32(i)
}
