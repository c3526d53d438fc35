// Package metrics collects the observables the paper's evaluation reports:
// SLO-met request counts, TTFT CDFs, average nodes used (per device kind),
// decode throughput in tokens/(node·s), per-instance memory utilization,
// batch-size distributions, KV-scaling overhead, and real (wall-clock)
// scheduling overhead (§IX-B, Figures 22/25/31/33).
package metrics

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
)

// Collector accumulates raw observations during a run.
type Collector struct {
	// Request accounting.
	Total     int64
	Completed int64
	Met       int64
	Dropped   int64

	// TTFTs holds observed time-to-first-token values (seconds).
	TTFTs []float64

	// DecodeTokens counts generated decode tokens per device kind, indexed
	// by hwsim.Kind (CPU, GPU). An array, not a map: it is bumped on every
	// decode iteration and first-token emission.
	DecodeTokens [2]int64

	// Node activity integration.
	nodeKind   map[int]hwsim.Kind
	nodeSince  map[int]sim.Time // active since; absent = inactive
	nodeActive map[int]sim.Duration

	// MemUtil holds sampled per-instance memory utilization by kind.
	MemUtil map[hwsim.Kind][]float64
	// KVUtil holds sampled KV allocation utilization (used/allocated).
	KVUtil []float64

	// batchHist histograms decode batch sizes weighted by iterations,
	// indexed by batch size (MaxBatch-bounded, so the slice stays small).
	batchHist []int64

	// Lifecycle counters.
	ColdStarts  int64
	Reclaims    int64
	Preemptions int64
	Migrations  int64
	Evictions   int64
	KVResizes   int64

	// ScalingBusy accumulates instance time blocked on KV resizes;
	// InstanceLifetime accumulates total instance lifetime (§IX-I5).
	ScalingBusy      sim.Duration
	InstanceLifetime sim.Duration

	// Prefix-cache counters (tiered KV store; zero with sharing disabled).
	PrefixLookups   int64
	PrefixHits      int64
	PrefixHitBytes  int64
	PrefixMissBytes int64

	// Wall-clock scheduling overhead (Figure 33).
	ValidationNs    int64
	ValidationCount int64
	ScheduleNs      int64
	ScheduleCount   int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		nodeKind:   map[int]hwsim.Kind{},
		nodeSince:  map[int]sim.Time{},
		nodeActive: map[int]sim.Duration{},
		MemUtil:    map[hwsim.Kind][]float64{},
	}
}

// Reset returns the collector to the state of a fresh NewCollector so a
// long-lived worker can reuse it across runs.
//
// Buffers whose backing arrays escape into the previous run's Report are
// DISOWNED, not truncated: BuildReport aliases TTFTs and the MemUtil slices
// into Report.TTFTCDF / Report.MemUtilCDF, so reusing those arrays would
// mutate an already-returned report. Buffers that BuildReport only summarizes
// or copies (KVUtil feeds a mean; batchHist is copied into Report.BatchCDF)
// keep their storage. When adding a sample buffer to Collector, decide which
// side of this split it is on and update both BuildReport's doc and this
// method.
func (c *Collector) Reset() {
	c.Total, c.Completed, c.Met, c.Dropped = 0, 0, 0, 0
	c.TTFTs = nil // aliased by Report.TTFTCDF — disown
	c.DecodeTokens = [2]int64{}
	clear(c.nodeKind)
	clear(c.nodeSince)
	clear(c.nodeActive)
	clear(c.MemUtil) // slices aliased by Report.MemUtilCDF — disown, keep map
	c.KVUtil = c.KVUtil[:0]
	for i := range c.batchHist {
		c.batchHist[i] = 0
	}
	c.ColdStarts, c.Reclaims, c.Preemptions = 0, 0, 0
	c.Migrations, c.Evictions, c.KVResizes = 0, 0, 0
	c.ScalingBusy, c.InstanceLifetime = 0, 0
	c.PrefixLookups, c.PrefixHits = 0, 0
	c.PrefixHitBytes, c.PrefixMissBytes = 0, 0
	c.ValidationNs, c.ValidationCount = 0, 0
	c.ScheduleNs, c.ScheduleCount = 0, 0
}

// Reserve size-hints the collector's sample slices from the workload (one
// potential TTFT sample per request), so steady-state recording never grows
// a backing array.
func (c *Collector) Reserve(requests int) {
	if cap(c.TTFTs) < requests {
		ttfts := make([]float64, len(c.TTFTs), requests)
		copy(ttfts, c.TTFTs)
		c.TTFTs = ttfts
	}
}

// RecordArrival counts an incoming request.
func (c *Collector) RecordArrival() { c.Total++ }

// RecordCompletion records a finished request and whether it met its SLO,
// with its observed TTFT.
func (c *Collector) RecordCompletion(met bool, ttft sim.Duration, haveTTFT bool) {
	c.Completed++
	if met {
		c.Met++
	}
	if haveTTFT {
		c.TTFTs = append(c.TTFTs, ttft.Seconds())
	}
}

// RecordDrop records an abandoned request.
func (c *Collector) RecordDrop() { c.Dropped++ }

// RecordPrefixLookup records one tiered-prefix-cache lookup split into hit
// and miss bytes.
//
//slinfer:hotpath
func (c *Collector) RecordPrefixLookup(hitBytes, missBytes int64) {
	c.PrefixLookups++
	if hitBytes > 0 {
		c.PrefixHits++
	}
	c.PrefixHitBytes += hitBytes
	c.PrefixMissBytes += missBytes
}

// RecordDecode records one decode iteration of the given batch size on a
// device kind.
func (c *Collector) RecordDecode(kind hwsim.Kind, batch int) {
	c.DecodeTokens[kind] += int64(batch)
	if batch >= len(c.batchHist) {
		grown := make([]int64, max(batch+1, 2*len(c.batchHist)))
		copy(grown, c.batchHist)
		c.batchHist = grown
	}
	c.batchHist[batch]++
}

// NodeActive marks a node as hosting work from time at.
func (c *Collector) NodeActive(nodeIdx int, kind hwsim.Kind, at sim.Time) {
	if _, ok := c.nodeSince[nodeIdx]; ok {
		return
	}
	c.nodeKind[nodeIdx] = kind
	c.nodeSince[nodeIdx] = at
}

// NodeInactive marks a node as empty from time at.
func (c *Collector) NodeInactive(nodeIdx int, at sim.Time) {
	since, ok := c.nodeSince[nodeIdx]
	if !ok {
		return
	}
	delete(c.nodeSince, nodeIdx)
	c.nodeActive[nodeIdx] += at.Sub(since)
}

// SampleMemUtil records one instance-level memory utilization observation.
func (c *Collector) SampleMemUtil(kind hwsim.Kind, util float64) {
	c.MemUtil[kind] = append(c.MemUtil[kind], util)
}

// SampleKVUtil records one KV-allocation utilization observation.
func (c *Collector) SampleKVUtil(util float64) { c.KVUtil = append(c.KVUtil, util) }

// Finalize closes all open node-activity intervals at time end.
func (c *Collector) Finalize(end sim.Time) {
	for idx := range c.nodeSince {
		c.NodeInactive(idx, end)
	}
}

// Report is the derived summary used by the experiment harness.
type Report struct {
	System   string
	Duration sim.Duration

	Total     int64
	Completed int64
	Met       int64
	Dropped   int64

	// SLORate is Met/Total.
	SLORate float64

	// TTFT percentiles in seconds.
	TTFTP50, TTFTP95, TTFTP99 float64
	// TTFTCDF is the sorted TTFT sample set (seconds).
	TTFTCDF []float64

	// AvgNodesUsed is the time-averaged count of occupied nodes per kind.
	AvgNodesUsed map[hwsim.Kind]float64
	// DecodeSpeed is decode tokens per (node x second) per kind.
	DecodeSpeed map[hwsim.Kind]float64

	// AvgBatch is the iteration-weighted mean decode batch size.
	AvgBatch float64
	// BatchCDF is the exact decode batch-size histogram: BatchCDF[b] is
	// the number of decode iterations that ran at batch size b, trimmed
	// after the largest size seen. It keeps the name it had when it held
	// the expanded sorted samples, because callers clear it by name; read
	// quantiles through BatchQuantile. DecodeIters is the histogram's total
	// (the weight that merges AvgBatch).
	BatchCDF    []int64
	DecodeIters int64

	// MemUtilCDF per kind, sorted ascending.
	MemUtilCDF map[hwsim.Kind][]float64
	// MeanMemUtil per kind.
	MeanMemUtil map[hwsim.Kind]float64
	// MeanKVUtil is the mean KV allocation utilization (Figure 31);
	// KVSamples is its exact sample count (the weight that merges it).
	MeanKVUtil float64
	KVSamples  int64

	// ScalingOverhead is ScalingBusy / InstanceLifetime (Figure 31). The
	// two underlying totals ride along so merges recompute the ratio from
	// summed durations instead of approximating.
	ScalingOverhead  float64
	ScalingBusy      sim.Duration
	InstanceLifetime sim.Duration
	// MigrationRate is migrations per completed request (§IX-I5).
	MigrationRate float64

	ColdStarts, Reclaims, Preemptions, Migrations, Evictions, KVResizes int64

	// Prefix-cache hit-rate counters (tiered KV store). All zero when
	// prefix sharing is disabled; MergeReports sums the counters exactly
	// and recomputes PrefixHitRate = HitBytes / (HitBytes + MissBytes).
	PrefixLookups   int64
	PrefixHits      int64
	PrefixHitBytes  int64
	PrefixMissBytes int64
	PrefixHitRate   float64

	// Fault-injection and recovery accounting (internal/faults via the
	// fleet front door; all zero on fault-free runs, and the canonical
	// report only prints them when FaultEvents > 0). FaultEvents counts
	// applied fault actions; Redriven counts re-submissions of requests
	// pulled off crashed shards; RetryExhausted counts requests whose
	// retry budget ran out (they also appear in the rejection ledger).
	// GoodputDip is the deepest relative per-epoch completion shortfall
	// against the pre-fault baseline, and RecoverEpochs is how many epochs
	// after the dip goodput took to re-attain the baseline.
	FaultEvents    int64
	Redriven       int64
	RetryExhausted int64
	GoodputDip     float64
	RecoverEpochs  int64

	// Wall-clock overheads in milliseconds per operation (Figure 33).
	ValidationMS float64
	ScheduleUS   float64
}

// BuildReport derives the summary for a run of the given duration.
//
// BuildReport finalizes the collector: the report's TTFT and memory CDF
// slices alias the collector's sample buffers (sorted in place — zero
// copies) instead of duplicating them, and all percentiles come from that
// single in-place sort. Call it once, after recording is done; the collector's TTFTs and
// MemUtil slices are in sorted order afterwards.
func (c *Collector) BuildReport(system string, duration sim.Duration) Report {
	r := Report{
		System: system, Duration: duration,
		Total: c.Total, Completed: c.Completed, Met: c.Met, Dropped: c.Dropped,
		AvgNodesUsed: map[hwsim.Kind]float64{},
		DecodeSpeed:  map[hwsim.Kind]float64{},
		MemUtilCDF:   map[hwsim.Kind][]float64{},
		MeanMemUtil:  map[hwsim.Kind]float64{},
		ColdStarts:   c.ColdStarts, Reclaims: c.Reclaims,
		Preemptions: c.Preemptions, Migrations: c.Migrations,
		Evictions: c.Evictions, KVResizes: c.KVResizes,
	}
	if c.Total > 0 {
		r.SLORate = float64(c.Met) / float64(c.Total)
	}
	sort.Float64s(c.TTFTs)
	r.TTFTCDF = c.TTFTs
	r.TTFTP50 = percentile(r.TTFTCDF, 0.50)
	r.TTFTP95 = percentile(r.TTFTCDF, 0.95)
	r.TTFTP99 = percentile(r.TTFTCDF, 0.99)

	// Node usage and decode speed.
	activeByKind := map[hwsim.Kind]sim.Duration{}
	for idx, d := range c.nodeActive {
		activeByKind[c.nodeKind[idx]] += d
	}
	for kind, act := range activeByKind {
		if duration > 0 {
			r.AvgNodesUsed[kind] = act.Seconds() / duration.Seconds()
		}
		if act > 0 {
			r.DecodeSpeed[kind] = float64(c.DecodeTokens[kind]) / act.Seconds()
		}
	}

	var batchSum, batchN int64
	top := -1
	for b, n := range c.batchHist {
		batchSum += int64(b) * n
		batchN += n
		if n > 0 {
			top = b
		}
	}
	// A copy, not an alias: Reset zeroes batchHist in place.
	if top >= 0 {
		r.BatchCDF = append([]int64(nil), c.batchHist[:top+1]...)
	}
	if batchN > 0 {
		r.AvgBatch = float64(batchSum) / float64(batchN)
	}
	r.DecodeIters = batchN

	for kind, samples := range c.MemUtil {
		sort.Float64s(samples)
		r.MemUtilCDF[kind] = samples
		r.MeanMemUtil[kind] = mean(samples)
	}
	r.MeanKVUtil = mean(c.KVUtil)
	r.KVSamples = int64(len(c.KVUtil))

	r.ScalingBusy, r.InstanceLifetime = c.ScalingBusy, c.InstanceLifetime
	if c.InstanceLifetime > 0 {
		r.ScalingOverhead = c.ScalingBusy.Seconds() / c.InstanceLifetime.Seconds()
	}
	if c.Completed > 0 {
		r.MigrationRate = float64(c.Migrations) / float64(c.Completed)
	}
	r.PrefixLookups, r.PrefixHits = c.PrefixLookups, c.PrefixHits
	r.PrefixHitBytes, r.PrefixMissBytes = c.PrefixHitBytes, c.PrefixMissBytes
	if tot := c.PrefixHitBytes + c.PrefixMissBytes; tot > 0 {
		r.PrefixHitRate = float64(c.PrefixHitBytes) / float64(tot)
	}
	if c.ValidationCount > 0 {
		r.ValidationMS = float64(c.ValidationNs) / float64(c.ValidationCount) / 1e6
	}
	if c.ScheduleCount > 0 {
		r.ScheduleUS = float64(c.ScheduleNs) / float64(c.ScheduleCount) / 1e3
	}
	return r
}

// percentile returns the p-quantile (p in [0, 1]) of an ascending sample
// set with linear interpolation between closest ranks. Floor-truncating the
// rank instead would bias tail percentiles low: with 100 samples, p99 would
// return the 98th-smallest value.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p * float64(n-1)
	lo := int(rank)
	if lo < 0 {
		return sorted[0]
	}
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// BatchQuantile returns the q-quantile (q in [0, 1]) of the decode batch
// sizes by nearest lower rank: the element at index int(q*(n-1)) of the
// n sorted samples the histogram stands for, or 0 when it is empty.
func (r Report) BatchQuantile(q float64) int {
	var n int64
	for _, c := range r.BatchCDF {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n-1))
	for b, c := range r.BatchCDF {
		if rank < c {
			return b
		}
		rank -= c
	}
	return len(r.BatchCDF) - 1
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Canonical renders every deterministic Report field in a stable order:
// identical simulations produce byte-identical canonical reports, which is
// what the golden tests and the trace-replay determinism checks diff.
// Wall-clock overheads (ValidationMS, ScheduleUS) are excluded: they
// measure host time, not virtual time. Large CDFs are folded to a hash so
// any divergence still flips the output without bloating the text.
func (r Report) Canonical() string {
	var b strings.Builder
	var d digest
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p("system=%s duration=%v\n", r.System, r.Duration)
	p("total=%d completed=%d met=%d dropped=%d slo=%.9f\n",
		r.Total, r.Completed, r.Met, r.Dropped, r.SLORate)
	p("ttft p50=%.9f p95=%.9f p99=%.9f\n", r.TTFTP50, r.TTFTP95, r.TTFTP99)
	p("ttftcdf n=%d hash=%x\n", len(r.TTFTCDF), d.floats(r.TTFTCDF))
	for _, k := range sortedKinds(r.AvgNodesUsed) {
		p("nodes[%v]=%.9f\n", k, r.AvgNodesUsed[k])
	}
	for _, k := range sortedKinds(r.DecodeSpeed) {
		p("decode[%v]=%.9f\n", k, r.DecodeSpeed[k])
	}
	n, h := d.hist(r.BatchCDF)
	p("avgbatch=%.9f batchcdf n=%d hash=%x\n", r.AvgBatch, n, h)
	for _, k := range sortedKinds(r.MeanMemUtil) {
		p("memutil[%v]=%.9f cdf n=%d hash=%x\n", k, r.MeanMemUtil[k],
			len(r.MemUtilCDF[k]), d.floats(r.MemUtilCDF[k]))
	}
	p("kvutil=%.9f scaling=%.9f migrate=%.9f\n", r.MeanKVUtil, r.ScalingOverhead, r.MigrationRate)
	p("cold=%d reclaim=%d preempt=%d migr=%d evict=%d resize=%d\n",
		r.ColdStarts, r.Reclaims, r.Preemptions, r.Migrations, r.Evictions, r.KVResizes)
	// The prefix line only appears when the tiered cache saw traffic, so
	// runs with sharing disabled render exactly as before the feature.
	if r.PrefixLookups > 0 {
		p("prefix lookups=%d hits=%d hitrate=%.9f hitbytes=%d missbytes=%d\n",
			r.PrefixLookups, r.PrefixHits, r.PrefixHitRate, r.PrefixHitBytes, r.PrefixMissBytes)
	}
	// Same gating for the fault line: a run with an empty fault plan (or
	// no plan at all) renders exactly as before fault injection existed.
	if r.FaultEvents > 0 {
		p("faults events=%d redriven=%d exhausted=%d dip=%.9f recover_epochs=%d\n",
			r.FaultEvents, r.Redriven, r.RetryExhausted, r.GoodputDip, r.RecoverEpochs)
	}
	return b.String()
}

func sortedKinds[V any](m map[hwsim.Kind]V) []hwsim.Kind {
	ks := make([]hwsim.Kind, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// digest folds Canonical's sample sets to FNV-1a hashes of their text:
// each float rendered as fmt's "%.9g," and each batch sample as "%d,".
// Values render through strconv into one reused buffer rather than an fmt
// call per sample; TestCanonicalEncodingMatchesFmt pins the bytes.
type digest struct{ buf []byte }

func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', 9, 64)
}

func appendInt(buf []byte, v int64) []byte { return strconv.AppendInt(buf, v, 10) }

func (d *digest) floats(vs []float64) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		d.buf = append(appendFloat(d.buf[:0], v), ',')
		h.Write(d.buf)
	}
	return h.Sum64()
}

// hist returns the sample count of a batch histogram and the hash of its
// expanded sorted samples: each bucket's "b," is rendered once and hashed
// once per sample, so the text matches the old expanded slice byte for
// byte.
func (d *digest) hist(hist []int64) (int64, uint64) {
	var n int64
	h := fnv.New64a()
	for b, c := range hist {
		if c == 0 {
			continue
		}
		d.buf = append(appendInt(d.buf[:0], int64(b)), ',')
		for k := int64(0); k < c; k++ {
			h.Write(d.buf)
		}
		n += c
	}
	return n, h.Sum64()
}
