package telemetry

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"slinfer/internal/sim"
)

// TestRecorderPillarsIndependent checks the three pillars gate
// independently: spans buffer only when Spans is on, samples only when
// Series is on, and the flight ring fills whenever it is armed — even with
// both other pillars off.
func TestRecorderPillarsIndependent(t *testing.T) {
	r := New(Options{FlightRing: 4}).Recorder(0)
	r.Record(1, KindAdmit, -1, 42, 0, 0)
	r.Sample(Sample{T: 1})
	if len(r.Events()) != 0 {
		t.Fatalf("spans buffered with Spans off: %d", len(r.Events()))
	}
	if r.SpansEnabled() || r.SeriesEnabled() {
		t.Fatal("pillars report enabled while off")
	}
	if !strings.Contains(r.DumpTail(), "admit") {
		t.Fatalf("flight ring missed the event:\n%s", r.DumpTail())
	}

	r = New(Options{Spans: true, Series: true}).Recorder(0)
	r.Record(1, KindAdmit, -1, 42, 0, 0)
	r.Sample(Sample{T: 1})
	if len(r.Events()) != 1 {
		t.Fatalf("span not buffered: %d", len(r.Events()))
	}
	if r.DumpTail() != "" {
		t.Fatalf("unarmed ring dumped: %q", r.DumpTail())
	}
}

// TestFlightRingWraparound fills a small ring past capacity and checks the
// dump holds exactly the last N events in chronological order.
func TestFlightRingWraparound(t *testing.T) {
	r := New(Options{FlightRing: 3}).Recorder(0)
	for i := 0; i < 10; i++ {
		r.Record(1, KindDecodeIter, int32(i), -1, 0, 0)
	}
	dump := r.DumpTail()
	if !strings.Contains(dump, "last 3 telemetry events") {
		t.Fatalf("dump header wrong:\n%s", dump)
	}
	// Only instances 7, 8, 9 survive, in that order.
	i7 := strings.Index(dump, "inst=7")
	i8 := strings.Index(dump, "inst=8")
	i9 := strings.Index(dump, "inst=9")
	if i7 < 0 || i8 < 0 || i9 < 0 || !(i7 < i8 && i8 < i9) {
		t.Fatalf("ring tail wrong (want inst 7,8,9 in order):\n%s", dump)
	}
	if strings.Contains(dump, "inst=6") {
		t.Fatalf("overwritten event survived the ring:\n%s", dump)
	}
}

// TestRecorderReset checks Reset empties every buffer, including the ring.
func TestRecorderReset(t *testing.T) {
	tr := New(Options{Spans: true, Series: true, FlightRing: 4})
	r := tr.Recorder(0)
	r.Record(1, KindAdmit, -1, 1, 0, 0)
	r.Sample(Sample{T: 1})
	tr.Reset()
	if tr.EventCount() != 0 || tr.SampleCount() != 0 || r.DumpTail() != "" {
		t.Fatalf("reset left state: events=%d samples=%d dump=%q",
			tr.EventCount(), tr.SampleCount(), r.DumpTail())
	}
}

// recordLifecycle drives one request's full span through a recorder.
func recordLifecycle(r *Recorder, req int64) {
	r.Record(1, KindAdmit, -1, req, 100, 0)
	r.Record(2, KindPlace, 0, req, 0, 0)
	r.Record(3, KindFirstToken, 0, req, 0, 0)
	r.Record(4, KindDecodeIter, 0, -1, 2, 50_000_000)
	r.Record(5, KindComplete, 0, req, 64, 0)
}

// TestExportChromeShape checks the Chrome export derives the three
// request-phase spans, validates against the schema checker, and is
// byte-stable across repeated exports.
func TestExportChromeShape(t *testing.T) {
	tr := New(Options{Spans: true})
	recordLifecycle(tr.Recorder(0), 7)
	tr.Fleet().Record(6, KindRedrive, -1, 7, 0, 1)

	var a, b bytes.Buffer
	if err := tr.ExportChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.ExportChrome(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repeated exports differ")
	}
	for _, want := range []string{
		`"name":"queue"`, `"name":"prefill"`, `"name":"decode"`, `"name":"iter"`,
		`"name":"redrive"`, `"name":"fleet front door"`, `"displayTimeUnit":"ms"`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("export missing %s:\n%s", want, a.String())
		}
	}
	if err := ValidateChrome(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("own export fails schema validation: %v", err)
	}
}

// TestExportSeriesShape pins the CSV schema header and row rendering.
func TestExportSeriesShape(t *testing.T) {
	tr := New(Options{Series: true})
	tr.Recorder(0).Sample(Sample{
		T: 5, Kind: SampleEpoch, Queue: 2, Active: 3, KVGPU: 1024,
		Outstanding: 5, Goodput: 7, RetryBacklog: 1,
	})
	var buf bytes.Buffer
	if err := tr.SeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := seriesHeader + "\n5,epoch,0,2,3,1024,0,5,7,1,0,0\n"
	if buf.String() != want {
		t.Fatalf("series CSV:\ngot  %q\nwant %q", buf.String(), want)
	}
}

// TestValidateChromeRejects feeds the schema checker malformed documents.
func TestValidateChromeRejects(t *testing.T) {
	bad := []string{
		``,                             // empty
		`{"foo": 1}`,                   // no traceEvents
		`{"traceEvents": 3}`,           // not an array
		`{"traceEvents":[{"ph":"X"}]}`, // no name
		`{"traceEvents":[{"name":"a","ph":"Z","pid":0,"tid":0,"ts":1}]}`,  // unknown phase
		`{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":0,"ts":-1}]}`, // negative ts
	}
	for _, doc := range bad {
		if err := ValidateChrome(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted malformed document %q", doc)
		}
	}
	ok := `{"traceEvents":[{"name":"a","ph":"i","s":"t","pid":1,"tid":0,"ts":0.5}],"displayTimeUnit":"ms"}`
	if err := ValidateChrome(strings.NewReader(ok)); err != nil {
		t.Errorf("rejected valid document: %v", err)
	}
}

// TestSummaryGating mirrors metrics.Canonical's conditional lines: an
// empty trace renders nothing, and each pillar's line appears only once it
// recorded something.
func TestSummaryGating(t *testing.T) {
	tr := New(Options{Spans: true, Series: true})
	if s := tr.Summary(); s != "" {
		t.Fatalf("empty trace rendered %q", s)
	}
	recordLifecycle(tr.Recorder(0), 1)
	if s := tr.Summary(); !strings.Contains(s, "telemetry spans") || strings.Contains(s, "telemetry series") {
		t.Fatalf("span-only summary wrong:\n%s", s)
	}
	tr.Recorder(0).Sample(Sample{T: 5})
	s := tr.Summary()
	if !strings.Contains(s, "telemetry spans") || !strings.Contains(s, "telemetry series") {
		t.Fatalf("full summary wrong:\n%s", s)
	}
	// Hashes change when content changes.
	before := s
	recordLifecycle(tr.Recorder(0), 2)
	if after := tr.Summary(); after == before {
		t.Fatal("summary hash blind to new events")
	}
}

// TestTraceRecorderIdentity checks Recorder(i) is stable and shard rows
// are stamped onto events and samples.
func TestTraceRecorderIdentity(t *testing.T) {
	tr := New(Options{Spans: true, Series: true})
	if tr.Recorder(2) != tr.Recorder(2) || tr.Shards() != 3 {
		t.Fatalf("recorder identity broken: shards=%d", tr.Shards())
	}
	tr.Recorder(2).Record(1, KindAdmit, -1, 9, 0, 0)
	tr.Recorder(2).Sample(Sample{T: 1, Shard: 99}) // caller's shard is overwritten
	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"shard":2`) {
		t.Fatalf("event shard not stamped: %s", buf.String())
	}
	buf.Reset()
	if err := tr.SeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n1,tick,2,") {
		t.Fatalf("sample shard not stamped: %s", buf.String())
	}
}

// TestSpanChunkBoundaries records event counts around the chunk size and
// checks the chunked storage against a flat reference: Events and both
// exports agree before and after Events flattens the chunks, EventCount
// is exact, recording after Events keeps the order, and a Reset re-record
// of the same count allocates nothing.
func TestSpanChunkBoundaries(t *testing.T) {
	const c = spanChunk
	for _, n := range []int{0, 1, c - 1, c, c + 1, 3*c + 5} {
		tr := New(Options{Spans: true})
		r := tr.Recorder(0)
		var want []Event
		record := func(i int) {
			ev := Event{T: sim.Time(i), Kind: Kind(i % int(kindCount)), Inst: int32(i%3 - 1), Req: int64(i), A: int64(2 * i), B: int64(i % 7)}
			r.Record(ev.T, ev.Kind, ev.Inst, ev.Req, ev.A, ev.B)
			want = append(want, ev)
		}
		for i := 0; i < n; i++ {
			record(i)
		}

		jsonl := func() string {
			var buf bytes.Buffer
			if err := tr.ExportJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		chrome := func() string {
			var buf bytes.Buffer
			if err := tr.ExportChrome(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		if got := tr.EventCount(); got != n {
			t.Fatalf("n=%d: EventCount = %d", n, got)
		}
		chunkedJSONL, chunkedChrome := jsonl(), chrome()
		if ref := referenceJSONL(want); chunkedJSONL != ref {
			t.Fatalf("n=%d: chunked JSONL differs from the flat reference", n)
		}
		if got := r.Events(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: Events() differs from the flat reference", n)
		}
		if jsonl() != chunkedJSONL || chrome() != chunkedChrome {
			t.Fatalf("n=%d: exports changed after Events() flattened the chunks", n)
		}
		if got := tr.EventCount(); got != n {
			t.Fatalf("n=%d: EventCount after Events() = %d", n, got)
		}

		for i := n; i < n+c+2; i++ {
			record(i)
		}
		if got := r.Events(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: recording after Events() broke the order", n)
		}
		if jsonl() != referenceJSONL(want) {
			t.Fatalf("n=%d: JSONL after re-recording differs from the flat reference", n)
		}

		// Re-recording the same count after a Reset reuses the chunks, on a
		// recorder whose spans were flattened and on one never flattened.
		for _, rec := range []*Recorder{r, New(Options{Spans: true}).Recorder(0)} {
			allocs := testing.AllocsPerRun(5, func() {
				rec.Reset()
				for i := 0; i < n; i++ {
					rec.Record(sim.Time(i), KindDecodeIter, 0, -1, 1, 1)
				}
			})
			if allocs != 0 {
				t.Fatalf("n=%d: Reset re-record allocated %v times", n, allocs)
			}
			if got := rec.eventCount(); got != n {
				t.Fatalf("n=%d: re-recorded count = %d", n, got)
			}
		}
	}
}

// referenceJSONL renders events the way ExportJSONL does, from one flat
// slice.
func referenceJSONL(evs []Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "{\"t\":%s,\"kind\":%q,\"shard\":%d,\"inst\":%d,\"req\":%d,\"a\":%d,\"b\":%d}\n",
			strconv.FormatFloat(float64(ev.T), 'g', 9, 64), ev.Kind.String(), ev.Shard, ev.Inst, ev.Req, ev.A, ev.B)
	}
	return b.String()
}
