package sim

// The iteration lane: a second pending queue for events that the heap's
// generality is wasted on.
//
// An iteration executor has at most one completion pending at a time and
// never cancels it, and a run has a bounded number of executors (at most 16
// on the paper-scale static presets). Such events need no handle, no
// removal and no heap: their (at, seq) keys sit in one short array kept
// sorted ascending, beside the heap. Each owner appends its next completion
// after the previous one fired, so the new key is usually the latest and an
// insert from the back moves few entries. The earliest is at the front,
// lane[laneHead]: a fire advances laneHead and moves nothing. An insert
// that finds the array full slides the live entries back to the front when
// at least half of it has fired, and grows it otherwise, so each entry is
// moved O(1) times on average.
//
// Lane events take their arena slot and their seq exactly as heap events do,
// and Step fires the lesser (at, seq) of the lane head and the heap top.
// (at, seq) is a strict total order, so the firing sequence is the one an
// all-heap run produces: which queue holds an event never changes when it
// fires.

// LaneAtFunc schedules fn(arg) at absolute time t on the lane. It returns
// no handle: a lane event cannot be cancelled. Use it only for an owner that
// has at most one lane event pending at a time, among a bounded number of
// owners — the lane is a sorted array, so its length bounds the cost of an
// insert. Past and non-finite times panic, as in AtFunc.
//
//slinfer:hotpath
func (s *Simulator) LaneAtFunc(t Time, fn func(arg any), arg any) {
	sl := s.schedule(t, fn, arg)
	e := &s.slots[sl]
	e.index = -1 // never on the heap
	key := heapEntry{atBits: timeBits(e.at), seq: e.seq, slot: sl}
	q, head := s.lane, s.laneHead
	if len(q) == cap(q) && head > 0 && 2*head >= len(q) {
		q = q[:copy(q, q[head:])]
		head, s.laneHead = 0, 0
	}
	// The new seq exceeds every pending one, so the key goes after every
	// entry whose time is not later than its own.
	q = append(q, key)
	i := len(q) - 1
	for i > head && q[i-1].atBits > key.atBits {
		q[i] = q[i-1]
		i--
	}
	q[i] = key
	s.lane = q
}

// popLane removes the lane head.
//
//slinfer:hotpath
func (s *Simulator) popLane() {
	s.laneHead++
	if s.laneHead == len(s.lane) {
		s.lane, s.laneHead = s.lane[:0], 0
	}
}
