package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"slinfer/internal/sim"
)

// TestRecorderLayout pins the span storage sizes. Event is 40 bytes and a
// decode iteration 24. Recorder must stay a multiple of 64 bytes: fleet
// workers write their shards' recorders concurrently and Trace.Recorder
// allocates them back to back, so a Recorder whose size is not a multiple
// of a cache line shares lines with its neighbours. An unpadded 176-byte
// Recorder did, and lost 19% of chaos-fleet-verified replay req/s on a
// 2-vCPU Xeon.
func TestRecorderLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 40 {
		t.Fatalf("Event is %d bytes; want 40", size)
	}
	if size := unsafe.Sizeof(iterRec{}); size != 24 {
		t.Fatalf("iterRec is %d bytes; want 24", size)
	}
	if size := unsafe.Sizeof(Recorder{}); size%64 != 0 {
		t.Fatalf("Recorder is %d bytes; want a multiple of 64 (pad it): "+
			"concurrently written recorders then share cache lines", size)
	}
}

// flatTrace returns a trace whose recorders hold evs[i] for shard rows
// shards[i] as one flat list of eventRecs, with no decode-iteration
// stream to merge: the reference the two-stream storage must export
// identically to.
func flatTrace(shards []int32, evs [][]Event) *Trace {
	tr := New(Options{Spans: true})
	for i, shard := range shards {
		r := tr.Fleet()
		if shard >= 0 {
			r = tr.Recorder(int(shard))
		}
		for _, ev := range evs[i] {
			r.others.push(eventRec{ev: ev})
		}
	}
	return tr
}

// checkAgainstFlat checks a trace's Events, EventCount, ExportJSONL and
// ExportChrome against flat reference events for the given recorders.
func checkAgainstFlat(t *testing.T, tr *Trace, shards []int32, want [][]Event) {
	t.Helper()
	total := 0
	var refJSONL string
	for i, shard := range shards {
		r := tr.Fleet()
		if shard >= 0 {
			r = tr.Recorder(int(shard))
		}
		if got := r.Events(); !slices.Equal(got, want[i]) {
			t.Fatalf("shard %d: Events() differs from the flat reference (%d vs %d events)", shard, len(got), len(want[i]))
		}
		total += len(want[i])
		refJSONL += referenceJSONL(shard, want[i])
	}
	if got := tr.EventCount(); got != total {
		t.Fatalf("EventCount = %d, want %d", got, total)
	}
	var jsonl, chrome, refChrome bytes.Buffer
	if err := tr.ExportJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if jsonl.String() != refJSONL {
		t.Fatal("ExportJSONL differs from the flat reference")
	}
	if err := tr.ExportChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := flatTrace(shards, want).ExportChrome(&refChrome); err != nil {
		t.Fatal(err)
	}
	if chrome.String() != refChrome.String() {
		t.Fatal("ExportChrome differs from the flat reference")
	}
}

// randomEvent draws one event. A decode iteration with no request takes
// share percent of draws; an eighth of those instead take a fallback that
// must go to the other stream: a batch beyond int32, or a request ID.
// Batches at exactly the int32 limits stay in the decode stream.
func randomEvent(rng *rand.Rand, t sim.Time, share int) Event {
	ev := Event{T: t, Inst: rng.Int32N(4) - 1, Req: -1, B: rng.Int64N(1 << 40)}
	if rng.IntN(100) >= share {
		ev.Kind = Kind(rng.IntN(int(kindCount)))
		if ev.Kind != KindDecodeIter || rng.IntN(2) == 0 {
			ev.Req = rng.Int64N(64)
		}
		ev.A = rng.Int64N(1<<20) - 1<<19
		return ev
	}
	ev.Kind = KindDecodeIter
	ev.A = rng.Int64N(256)
	switch rng.IntN(16) {
	case 0:
		ev.A = math.MaxInt32 + 1 + rng.Int64N(1<<40)
	case 1:
		ev.A = math.MinInt32 - 1 - rng.Int64N(1<<40)
	case 2:
		ev.Req = rng.Int64N(64)
	case 3:
		ev.A = math.MaxInt32
	case 4:
		ev.A = math.MinInt32
	}
	return ev
}

// TestSpanStreamsInterleaved records random interleavings of decode
// iterations and other kinds across chunk boundaries, on a shard recorder
// and the front door, and checks every read path against a flat
// reference — before and after a Reset, whose re-record of the same events
// allocates nothing.
func TestSpanStreamsInterleaved(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shards := []int32{1, -1}
	for _, n := range []int{0, 1, spanChunk - 1, spanChunk, spanChunk + 1, 3*spanChunk + 5} {
		for _, share := range []int{0, 50, 95, 100} {
			tr := New(Options{Spans: true})
			tr.Recorder(1)
			draw := func() [][]Event {
				want := make([][]Event, len(shards))
				for i := 0; i < n; i++ {
					s := rng.IntN(len(shards))
					if rng.IntN(8) != 0 {
						s = 0 // most events land on the shard recorder
					}
					want[s] = append(want[s], randomEvent(rng, sim.Time(i)/1000, share))
				}
				return want
			}
			record := func(want [][]Event) {
				for i, shard := range shards {
					r := tr.Fleet()
					if shard >= 0 {
						r = tr.Recorder(int(shard))
					}
					for _, ev := range want[i] {
						r.Record(ev.T, ev.Kind, ev.Inst, ev.Req, ev.A, ev.B)
					}
				}
			}

			want := draw()
			record(want)
			checkAgainstFlat(t, tr, shards, want)

			tr.Reset()
			if got := tr.EventCount(); got != 0 {
				t.Fatalf("n=%d share=%d: EventCount after Reset = %d", n, share, got)
			}
			allocs := testing.AllocsPerRun(3, func() {
				tr.Reset()
				record(want)
			})
			if allocs != 0 {
				t.Fatalf("n=%d share=%d: Reset re-record allocated %v times", n, share, allocs)
			}
			checkAgainstFlat(t, tr, shards, want)

			tr.Reset()
			want = draw()
			record(want)
			checkAgainstFlat(t, tr, shards, want)
		}
	}
}

// FuzzRecorderStream decodes bytes into Record calls on one recorder and
// checks Events, EventCount and both exports against the flat reference.
// Each call takes a control byte and three payload bytes:
//
//	ctl&0x80  decode iteration (else Kind ctl%kindCount)
//	ctl&0x40  request ID p0 (else -1)
//	ctl&0x20  A is the next 8 bytes, any int64 (else p1)
//	ctl&0x10  record the call 300 times, to cross chunk boundaries
//	ctl==0xff Reset
//
// Inst is int8(p2), B is p1<<8|p2, and time advances by p0/8 per call.
func FuzzRecorderStream(f *testing.F) {
	f.Add([]byte{0x80, 0, 2, 1, 0x05, 3, 0, 0})
	f.Add([]byte{0x90, 1, 2, 3, 0x00, 7, 0, 1, 0x90, 1, 2, 3})
	f.Add([]byte{0xa0, 1, 2, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0xc0, 4, 5, 6, 0xff, 0, 0, 0, 0x80, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New(Options{Spans: true})
		r := tr.Recorder(0)
		var want []Event
		now := sim.Time(0)
		for len(data) >= 4 {
			ctl, p0, p1, p2 := data[0], data[1], data[2], data[3]
			data = data[4:]
			if ctl == 0xff {
				tr.Reset()
				want = want[:0]
				continue
			}
			now += sim.Time(p0) / 8
			ev := Event{T: now, Kind: Kind(ctl % uint8(kindCount)), Inst: int32(int8(p2)), Req: -1, A: int64(p1), B: int64(p1)<<8 | int64(p2)}
			if ctl&0x80 != 0 {
				ev.Kind = KindDecodeIter
			}
			if ctl&0x40 != 0 {
				ev.Req = int64(p0)
			}
			if ctl&0x20 != 0 && len(data) >= 8 {
				ev.A = int64(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			reps := 1
			if ctl&0x10 != 0 {
				reps = 300
			}
			for i := 0; i < reps; i++ {
				r.Record(ev.T, ev.Kind, ev.Inst, ev.Req, ev.A, ev.B)
				want = append(want, ev)
			}
		}
		checkAgainstFlat(t, tr, []int32{0}, [][]Event{want})
	})
}
