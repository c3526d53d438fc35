// Package traceio persists workload traces as versioned JSONL and streams
// them back, making every trace-driven evaluation replayable from disk: a
// recorded request sequence (synthetic today, ingested Azure/BurstGPT CSVs
// later) becomes a first-class simulator input instead of an in-memory
// object that dies with the process.
//
// Format (one JSON document per line):
//
//	line 1:  header — version tag, duration, request count, and provenance
//	         (dataset, seed, generator, base model) plus the per-model mean
//	         RPM map
//	line 2+: one request per line:
//	         {"id":..,"model":..,"at":..,"in":..,"out":..[,"prefix":..]}
//
// The encoding is canonical — struct-driven field order, Go's shortest
// round-tripping float representation, sorted map keys — so Save∘Load is
// the identity on bytes: saving a loaded trace reproduces the input file
// exactly. Decoding is streaming (line-at-a-time through a bounded buffer);
// Reader.Next never materializes more than one request, so multi-hour,
// million-request traces can be scanned, filtered, or replayed without
// holding the whole file in memory.
//
// The bytes are encoding/json's, but request lines do not go through its
// reflection when they need not (line.go). Reader.Next parses the exact
// layout Save writes by hand — JSON integers in range of their Go type,
// JSON numbers parsed by strconv.ParseFloat as encoding/json parses them,
// strings without escapes or control bytes that are valid UTF-8 — and
// hands any other line to json.Unmarshal, which returns the same value or
// error text as ever. Model names declared in the header's rpm keys are
// interned, so such a request allocates no string. Save renders each
// request into one reused buffer by encoding/json's number and string
// rules and falls back to json.Marshal for a record whose strings it would
// escape or whose arrival is NaN or infinite. The header line is
// encoding/json both ways. FuzzDecodeRecord and FuzzEncodeRecord hold the
// hand-written path to encoding/json's results on arbitrary input.
package traceio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// Version is the current trace format version.
const Version = 1

// Meta carries trace provenance: where a request sequence came from, so a
// replayed report can name its inputs. All fields are optional.
type Meta struct {
	// Dataset is the token-length distribution used (e.g. "AzureConv").
	Dataset string
	// Seed is the generator seed.
	Seed uint64
	// Generator names the producing process (e.g. "azure", "burstgpt",
	// "scale-rate(4.0x)").
	Generator string
	// BaseModel is the catalog model trace model names were derived from;
	// replay binds every trace model identity to it.
	BaseModel string
}

// header is line 1 of a trace file.
type header struct {
	Version   int                `json:"slinfer_trace"`
	DurationS float64            `json:"duration_s"`
	Requests  int                `json:"requests"`
	Dataset   string             `json:"dataset,omitempty"`
	Seed      uint64             `json:"seed,omitempty"`
	Generator string             `json:"generator,omitempty"`
	BaseModel string             `json:"base_model,omitempty"`
	RPM       map[string]float64 `json:"rpm,omitempty"`
}

// record is one request line. Prefix is omitted when empty so traces
// without prefix sharing keep their byte-identical legacy encoding.
type record struct {
	ID     int64   `json:"id"`
	Model  string  `json:"model"`
	At     float64 `json:"at"`
	In     int     `json:"in"`
	Out    int     `json:"out"`
	Prefix string  `json:"prefix,omitempty"`
}

// maxLine bounds a single request line (the header, which grows with the
// model population, is read uncapped); a model name is the only variable
// part of a request, so 1 MiB is generous.
const maxLine = 1 << 20

// Save writes the trace as versioned JSONL. Requests are streamed through a
// buffered writer one line at a time.
func Save(w io.Writer, tr workload.Trace, meta Meta) error {
	bw := bufio.NewWriter(w)
	hdr := header{
		Version:   Version,
		DurationS: tr.Duration.Seconds(),
		Requests:  len(tr.Requests),
		Dataset:   meta.Dataset,
		Seed:      meta.Seed,
		Generator: meta.Generator,
		BaseModel: meta.BaseModel,
		RPM:       tr.RPM,
	}
	// The header goes through encoding/json; each request line is rendered
	// by appendRecord into one reused buffer.
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if _, err := bw.Write(append(line, '\n')); err != nil {
		return err
	}
	for i := range tr.Requests {
		r := &tr.Requests[i]
		line, err = appendRecord(line[:0], record{ID: r.ID, Model: r.ModelName, At: float64(r.Arrival), In: r.InputLen, Out: r.OutputLen, Prefix: r.PrefixKey})
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile writes the trace to path, creating or truncating it.
func SaveFile(path string, tr workload.Trace, meta Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, tr, meta); err != nil {
		f.Close()
		return fmt.Errorf("traceio: save %s: %w", path, err)
	}
	return f.Close()
}

// Reader streams one trace without materializing it: the header is decoded
// eagerly, requests on demand via Next.
type Reader struct {
	sc   *bufio.Scanner
	hdr  header
	read int
	// names interns model names: every key of the header's RPM map, mapped
	// to itself.
	names map[string]string
}

// NewReader parses the header line and prepares streaming decode.
func NewReader(r io.Reader) (*Reader, error) {
	// The header line grows with the model population (one RPM entry per
	// model), so it is read without the per-request line cap.
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil && (err != io.EOF || len(line) == 0) {
		if err == io.EOF {
			return nil, fmt.Errorf("traceio: empty input, want header line")
		}
		return nil, fmt.Errorf("traceio: reading header: %w", err)
	}
	var hdr header
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("traceio: malformed header: %w", err)
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("traceio: unsupported trace version %d (supported: %d)", hdr.Version, Version)
	}
	if hdr.DurationS <= 0 {
		return nil, fmt.Errorf("traceio: non-positive duration %v", hdr.DurationS)
	}
	if hdr.Requests < 0 {
		return nil, fmt.Errorf("traceio: negative request count %d", hdr.Requests)
	}
	names := make(map[string]string, len(hdr.RPM))
	for name := range hdr.RPM {
		names[name] = name
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	return &Reader{sc: sc, hdr: hdr, names: names}, nil
}

// Meta returns the provenance recorded in the header.
func (r *Reader) Meta() Meta {
	return Meta{Dataset: r.hdr.Dataset, Seed: r.hdr.Seed, Generator: r.hdr.Generator, BaseModel: r.hdr.BaseModel}
}

// Duration returns the trace length from the header.
func (r *Reader) Duration() sim.Duration { return sim.Duration(r.hdr.DurationS) }

// Len returns the request count declared in the header.
func (r *Reader) Len() int { return r.hdr.Requests }

// RPM returns the per-model mean requests-per-minute map from the header.
// The map is shared, not copied; treat it as read-only.
func (r *Reader) RPM() map[string]float64 { return r.hdr.RPM }

// Next decodes the next request. ok is false at a clean end of trace; a
// truncated or malformed file returns an error.
func (r *Reader) Next() (req workload.Request, ok bool, err error) {
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			return workload.Request{}, false, fmt.Errorf("traceio: request %d: %w", r.read, err)
		}
		if r.read != r.hdr.Requests {
			return workload.Request{}, false, fmt.Errorf("traceio: truncated trace: header declares %d requests, found %d", r.hdr.Requests, r.read)
		}
		return workload.Request{}, false, nil
	}
	rec, err := decodeRecord(r.sc.Bytes(), r.names)
	if err != nil {
		return workload.Request{}, false, fmt.Errorf("traceio: request %d: %w", r.read, err)
	}
	r.read++
	if r.read > r.hdr.Requests {
		return workload.Request{}, false, fmt.Errorf("traceio: trailing data: header declares %d requests", r.hdr.Requests)
	}
	return workload.Request{
		ID: rec.ID, ModelName: rec.Model, Arrival: sim.Time(rec.At),
		InputLen: rec.In, OutputLen: rec.Out, PrefixKey: rec.Prefix,
	}, true, nil
}

// Load materializes a full trace (and its provenance) from r. Use Reader
// directly when a streaming scan suffices.
func Load(r io.Reader) (workload.Trace, Meta, error) {
	rd, err := NewReader(r)
	if err != nil {
		return workload.Trace{}, Meta{}, err
	}
	tr := workload.Trace{Duration: rd.Duration(), RPM: rd.RPM()}
	if n := rd.Len(); n > 0 {
		// The header count is untrusted input: cap the preallocation so a
		// corrupt or hostile header cannot panic or balloon the process;
		// append grows past the cap if the requests really are there.
		if n > 1<<20 {
			n = 1 << 20
		}
		tr.Requests = make([]workload.Request, 0, n)
	}
	for {
		req, ok, err := rd.Next()
		if err != nil {
			return workload.Trace{}, Meta{}, err
		}
		if !ok {
			break
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, rd.Meta(), nil
}

// LoadFile materializes a trace from path.
func LoadFile(path string) (workload.Trace, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Trace{}, Meta{}, err
	}
	defer f.Close()
	tr, meta, err := Load(f)
	if err != nil {
		return workload.Trace{}, Meta{}, fmt.Errorf("traceio: load %s: %w", path, err)
	}
	return tr, meta, nil
}
