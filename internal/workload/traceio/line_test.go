package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// sameRecord compares records field by field, floats by bits, so -0 and 0
// count as different values.
func sameRecord(a, b record) bool {
	return a.ID == b.ID && a.Model == b.Model && math.Float64bits(a.At) == math.Float64bits(b.At) &&
		a.In == b.In && a.Out == b.Out && a.Prefix == b.Prefix
}

// FuzzDecodeRecord is the decoder's differential oracle: for any line,
// decodeRecord must return what json.Unmarshal returns — the same value,
// or an error with the same text. Seed corpus: testdata/fuzz/FuzzDecodeRecord
// (number, string and key-layout edge cases).
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(`{"id":0,"model":"m-000","at":1.5,"in":128,"out":16}`))
	f.Add([]byte(`{"id":3,"model":"m-001","at":7.25,"in":640,"out":80,"prefix":"tpl3@512/sess17"}`))
	declared := map[string]string{"m-000": "m-000", "m-001": "m-001"}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := decodeRecord(line, declared)
		var want record
		wantErr := json.Unmarshal(line, &want)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("line %q: error %v, encoding/json %v", line, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("line %q: error %q, encoding/json %q", line, gotErr, wantErr)
			}
		case !sameRecord(got, want):
			t.Fatalf("line %q: decoded %+v, encoding/json %+v", line, got, want)
		}
	})
}

// FuzzEncodeRecord is the encoder's differential oracle: for any record,
// appendRecord must write json.Marshal's bytes, or fail where it fails.
// Seed corpus: testdata/fuzz/FuzzEncodeRecord (float format boundaries,
// NaN and Inf, strings json.Marshal escapes).
func FuzzEncodeRecord(f *testing.F) {
	f.Add(int64(0), "m-000", 1.5, 128, 16, "")
	f.Add(int64(3), "m-001", 7.25, 640, 80, "tpl3@512/sess17")
	f.Fuzz(func(t *testing.T, id int64, model string, at float64, in, out int, prefix string) {
		rec := record{ID: id, Model: model, At: at, In: in, Out: out, Prefix: prefix}
		got, gotErr := appendRecord([]byte("x"), rec)
		want, wantErr := json.Marshal(rec)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%+v: error %v, encoding/json %v", rec, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%+v: error %q, encoding/json %q", rec, gotErr, wantErr)
			}
		case !bytes.Equal(got, append([]byte("x"), want...)):
			t.Fatalf("%+v: wrote %s, encoding/json %s", rec, got[1:], want)
		}
	})
}

// referenceSave writes a trace the way encoding/json alone would: one
// json.Marshal per line.
func referenceSave(t *testing.T, tr workload.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	put(header{Version: Version, DurationS: tr.Duration.Seconds(), Requests: len(tr.Requests), RPM: tr.RPM})
	for _, r := range tr.Requests {
		put(record{ID: r.ID, Model: r.ModelName, At: float64(r.Arrival), In: r.InputLen, Out: r.OutputLen, Prefix: r.PrefixKey})
	}
	return buf.Bytes()
}

// referenceRequests decodes every request line with json.Unmarshal.
func referenceRequests(t *testing.T, raw []byte) []workload.Request {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, maxLine)
	sc.Scan() // header
	var out []workload.Request
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, workload.Request{ID: rec.ID, ModelName: rec.Model, Arrival: sim.Time(rec.At),
			InputLen: rec.In, OutputLen: rec.Out, PrefixKey: rec.Prefix})
	}
	return out
}

// TestSaveMatchesReferenceCodec pins the hand-written codec to
// encoding/json on every generator's output: Save writes the reference
// bytes, Load returns the reference requests, and every request line takes
// the fast path in both directions (a line that fell back would still be
// correct, only slow, so nothing else would notice).
func TestSaveMatchesReferenceCodec(t *testing.T) {
	models := names(12)
	traces := map[string]workload.Trace{
		"azure": workload.Generate(workload.TraceConfig{ModelNames: models, Duration: 10 * sim.Minute, Seed: 5,
			Dataset: workload.AzureConv}),
		"burstgpt": workload.GenerateBurstGPT(workload.BurstGPTConfig{ModelNames: models, Duration: 10 * sim.Minute,
			RPS: 2, Seed: 5}),
		"chat": workload.GenerateChat(workload.ChatConfig{ModelNames: models, Duration: 10 * sim.Minute, Seed: 5}),
	}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) {
			if len(tr.Requests) == 0 {
				t.Fatal("empty trace")
			}
			if name == "chat" && tr.Requests[0].PrefixKey == "" {
				t.Fatal("chat trace carries no prefix keys")
			}
			var buf bytes.Buffer
			if err := Save(&buf, tr, Meta{}); err != nil {
				t.Fatal(err)
			}
			want := referenceSave(t, tr)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatal("Save differs from the json.Marshal reference")
			}
			got, _, err := Load(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Requests, referenceRequests(t, want)) {
				t.Fatal("Load differs from the json.Unmarshal reference")
			}
			lines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))[1:]
			for i, r := range tr.Requests {
				rec := record{ID: r.ID, Model: r.ModelName, At: float64(r.Arrival), In: r.InputLen, Out: r.OutputLen, Prefix: r.PrefixKey}
				if !plainASCII(rec.Model) || !plainASCII(rec.Prefix) {
					t.Fatalf("request %d: encode falls back to encoding/json", i)
				}
				if _, ok := parseRecord(lines[i], nil); !ok {
					t.Fatalf("request %d: decode falls back to encoding/json on %s", i, lines[i])
				}
			}
		})
	}
}

// TestLoadInternsModelNames pins that a decoded request for a model the
// header declares shares the header's string rather than allocating one.
func TestLoadInternsModelNames(t *testing.T) {
	tr := genTrace(4, 3)
	var buf bytes.Buffer
	if err := Save(&buf, tr, Meta{}); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	req, ok, err := rd.Next()
	if !ok || err != nil {
		t.Fatalf("first request: ok %v, err %v", ok, err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocated %v times for a declared model", allocs)
	}
	if _, declared := rd.RPM()[req.ModelName]; !declared {
		t.Fatalf("model %q not in the header", req.ModelName)
	}
}
