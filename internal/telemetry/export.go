package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"slinfer/internal/sim"
)

// Export formatting is deliberately hand-rolled: field order is fixed,
// floats render through one deterministic path, and nothing ranges a map
// without sorting — the same run must export byte-identical output no
// matter how many workers advanced it.

// formatTime renders a virtual time the same way metrics hashes floats:
// %.9g is stable, compact, and round-trips every time the sim produces.
func formatTime(t sim.Time) string {
	return strconv.FormatFloat(float64(t), 'g', 9, 64)
}

// chromeTS renders a virtual time as Chrome trace microseconds (fixed
// 3-decimal so ordering ties render identically everywhere).
func chromeTS(t sim.Time) string {
	return strconv.FormatFloat(float64(t)*1e6, 'f', 3, 64)
}

// chromePid maps a recorder's shard row to a Chrome process ID: the fleet
// front door is process 0, shard s is process s+1.
func chromePid(shard int32) int { return int(shard) + 1 }

// reqPhase tracks one request's open span phases during a Chrome export
// pass.
type reqPhase struct {
	admit, place, first sim.Time
	inst                int32
	placed, prefilled   bool
}

// ExportChrome writes the span trace as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable in Perfetto or chrome://tracing.
// Shards render as process rows (the fleet front door is process 0),
// instances as thread rows (thread 0 is the shard's scheduler/queue row).
// Request lifecycles become three complete ("X") spans — queue on the
// scheduler row, prefill and decode on the serving instance's row — with
// decode iterations as fine-grained spans underneath and everything else
// as instant events.
func (t *Trace) ExportChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}

	recs := t.recorders()
	// Metadata rows first: process names, then each process's thread names
	// (collected from the event stream, sorted for determinism).
	for _, r := range recs {
		pid := chromePid(r.shard)
		name := fmt.Sprintf("shard %d", r.shard)
		if r.shard < 0 {
			name = "fleet front door"
		}
		emit(fmt.Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%q}}", pid, name))
		tids := map[int32]bool{}
		c := cursor{r: r}
		for ev, ok := c.next(); ok; ev, ok = c.next() {
			if ev.Inst >= 0 {
				tids[ev.Inst] = true
			}
		}
		//slinfer:maporder collected into a slice and sorted before emission
		var order []int
		for inst := range tids {
			order = append(order, int(inst))
		}
		sort.Ints(order)
		emit(fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"scheduler\"}}", pid))
		for _, inst := range order {
			emit(fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"instance %d\"}}", pid, inst+1, inst))
		}
	}

	for _, r := range recs {
		pid := chromePid(r.shard)
		open := map[int64]*reqPhase{}
		span := func(name string, tid int, start, end sim.Time, req int64) {
			d := float64(end-start) * 1e6
			if d < 0 {
				d = 0
			}
			emit(fmt.Sprintf("{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"req\":%d}}",
				name, pid, tid, chromeTS(start), strconv.FormatFloat(d, 'f', 3, 64), req))
		}
		instant := func(ev Event, tid int) {
			emit(fmt.Sprintf("{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"args\":{\"req\":%d,\"a\":%d,\"b\":%d}}",
				ev.Kind.String(), pid, tid, chromeTS(ev.T), ev.Req, ev.A, ev.B))
		}
		c := cursor{r: r}
		for ev, ok := c.next(); ok; ev, ok = c.next() {
			switch ev.Kind {
			case KindAdmit:
				open[ev.Req] = &reqPhase{admit: ev.T, inst: -1}
			case KindEnqueue:
				// Queue occupancy is the admit→place span; nothing to emit.
			case KindPlace:
				if p := open[ev.Req]; p != nil {
					span("queue", 0, p.admit, ev.T, ev.Req)
					p.place, p.inst, p.placed = ev.T, ev.Inst, true
				}
			case KindFirstToken:
				if p := open[ev.Req]; p != nil && p.placed {
					span("prefill", int(p.inst)+1, p.place, ev.T, ev.Req)
					p.first, p.prefilled = ev.T, true
				}
			case KindComplete:
				if p := open[ev.Req]; p != nil {
					if p.prefilled {
						span("decode", int(p.inst)+1, p.first, ev.T, ev.Req)
					}
					delete(open, ev.Req)
				}
			case KindDrop:
				if p := open[ev.Req]; p != nil {
					span("queue", 0, p.admit, ev.T, ev.Req)
					delete(open, ev.Req)
				}
				instant(ev, 0)
			case KindDecodeIter:
				start := ev.T.Add(-sim.Duration(float64(ev.B) / 1e9))
				d := float64(ev.B) / 1e3 // ns → µs
				emit(fmt.Sprintf("{\"name\":\"iter\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"batch\":%d}}",
					pid, int(ev.Inst)+1, chromeTS(start), strconv.FormatFloat(d, 'f', 3, 64), ev.A))
			default:
				tid := 0
				if ev.Inst >= 0 {
					tid = int(ev.Inst) + 1
				}
				instant(ev, tid)
			}
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// ExportJSONL streams every span event as one JSON object per line, in
// canonical order (shards ascending, then the front door; within a
// recorder, simulation order).
func (t *Trace) ExportJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.recorders() {
		c := cursor{r: r}
		for ev, ok := c.next(); ok; ev, ok = c.next() {
			fmt.Fprintf(bw, "{\"t\":%s,\"kind\":%q,\"shard\":%d,\"inst\":%d,\"req\":%d,\"a\":%d,\"b\":%d}\n",
				formatTime(ev.T), ev.Kind.String(), r.shard, ev.Inst, ev.Req, ev.A, ev.B)
		}
	}
	return bw.Flush()
}

// seriesHeader is the CSV schema; append-only so committed goldens stay
// diffable.
const seriesHeader = "t,kind,shard,queue,active,kv_gpu_bytes,kv_cpu_bytes,outstanding,goodput,retry_backlog,schedule_ns,validation_ns"

func sampleKindName(k SampleKind) string {
	if k == SampleEpoch {
		return "epoch"
	}
	return "tick"
}

// SeriesCSV writes the metric streams as CSV, one row per sample, in
// canonical order.
func (t *Trace) SeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(seriesHeader)
	bw.WriteByte('\n')
	for _, r := range t.recorders() {
		for _, s := range r.samples {
			fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				formatTime(s.T), sampleKindName(s.Kind), s.Shard, s.Queue, s.Active,
				s.KVGPU, s.KVCPU, s.Outstanding, s.Goodput, s.RetryBacklog,
				s.ScheduleNs, s.ValidationNs)
		}
	}
	return bw.Flush()
}

// fnvWriter hashes everything written through it (fnv-1a, matching the
// metrics package's canonical float hashing discipline).
type fnvWriter struct{ h uint64 }

func (f *fnvWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		f.h ^= uint64(b)
		f.h *= 0x100000001b3
	}
	return len(p), nil
}

// Summary renders a metrics.Canonical-style digest of the run's telemetry:
// counts plus content hashes of the canonical exports, so two runs'
// telemetry can be compared without diffing megabytes. Lines are gated on
// their pillar having recorded anything, mirroring the canonical report's
// conditional prefix/faults lines.
func (t *Trace) Summary() string {
	out := ""
	if n := t.EventCount(); n > 0 {
		fw := &fnvWriter{h: 0xcbf29ce484222325}
		t.ExportJSONL(fw)
		out += fmt.Sprintf("telemetry spans events=%d shards=%d hash=%016x\n", n, t.Shards(), fw.h)
	}
	if n := t.SampleCount(); n > 0 {
		fw := &fnvWriter{h: 0xcbf29ce484222325}
		t.SeriesCSV(fw)
		out += fmt.Sprintf("telemetry series samples=%d shards=%d hash=%016x\n", n, t.Shards(), fw.h)
	}
	return out
}
