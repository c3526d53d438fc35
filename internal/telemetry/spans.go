package telemetry

import "slinfer/internal/sim"

// spanChunk is the number of records per storage chunk. A stream fills one
// chunk and then starts the next, so a buffered span is never copied.
const spanChunk = 1024

// iterRec is a decode iteration with no request, 24 bytes: Kind is
// KindDecodeIter and Req is -1, both implied. Record stores an iteration
// whose batch size does not fit A, or that names a request, as an
// eventRec instead.
type iterRec struct {
	T    sim.Time
	B    int64
	Inst int32
	A    int32
}

// event expands the record back into the Event it was recorded from.
func (it iterRec) event() Event {
	return Event{T: it.T, Kind: KindDecodeIter, Inst: it.Inst, Req: -1, A: int64(it.A), B: it.B}
}

// eventRec is any other span event, with the number of iterRecs the
// recorder held when it was recorded: the events merge back into recording
// order by placing each after that many iterations.
type eventRec struct {
	ev    Event
	iters int
}

// chunked is an append-only stream stored in fixed-size chunks. cur is the
// chunk being filled, chunks[used-1]'s backing; chunks[:used-1] are full,
// and chunks[used:] are empty spares a reset kept.
type chunked[T any] struct {
	cur []T
	//slinfer:resetsafe spare chunks: reset keeps every one, used bounds what is read
	chunks [][]T
	used   int
}

// push appends v to the stream.
//
//slinfer:hotpath
func (s *chunked[T]) push(v T) {
	if len(s.cur) == cap(s.cur) {
		s.grow()
	}
	s.cur = append(s.cur, v)
}

// grow makes the next chunk current: a spare kept by reset, or a new one.
func (s *chunked[T]) grow() {
	if s.used > 0 {
		s.chunks[s.used-1] = s.cur
	}
	if s.used == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, 0, spanChunk))
	}
	s.cur = s.chunks[s.used][:0]
	s.used++
}

// count returns the number of records in the stream.
func (s *chunked[T]) count() int {
	if s.used == 0 {
		return 0
	}
	return (s.used-1)*spanChunk + len(s.cur)
}

// chunk returns the i-th chunk's records, i < used.
func (s *chunked[T]) chunk(i int) []T {
	if i == s.used-1 {
		return s.cur
	}
	return s.chunks[i]
}

// at returns the i-th record, i < count().
func (s *chunked[T]) at(i int) T { return s.chunk(i / spanChunk)[i%spanChunk] }

// reset empties the stream, keeping every chunk for reuse.
func (s *chunked[T]) reset() { s.cur, s.used = nil, 0 }

// cursor walks one recorder's span events in recording order, merging the
// decode-iteration stream back in between the other events:
//
//	c := cursor{r: r}
//	for ev, ok := c.next(); ok; ev, ok = c.next() { ... }
type cursor struct {
	r *Recorder
	// it and ev index the next iterRec and the next eventRec.
	it, ev int
}

// next returns the next event, or false once every event was returned.
func (c *cursor) next() (Event, bool) {
	r := c.r
	if c.ev < r.others.count() {
		e := r.others.at(c.ev)
		if c.it < e.iters {
			c.it++
			return r.iters.at(c.it - 1).event(), true
		}
		c.ev++
		return e.ev, true
	}
	if c.it < r.iters.count() {
		c.it++
		return r.iters.at(c.it - 1).event(), true
	}
	return Event{}, false
}
