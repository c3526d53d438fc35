package metrics

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
)

// shardReport builds a small report from raw observations through the same
// collector path a real run uses.
func shardReport(t *testing.T, name string, ttfts []float64, mem map[hwsim.Kind][]float64, met int64) Report {
	t.Helper()
	c := NewCollector()
	for i, v := range ttfts {
		c.RecordArrival()
		c.RecordCompletion(int64(i) < met, sim.Duration(v), true)
	}
	for kind, samples := range mem {
		for _, v := range samples {
			c.SampleMemUtil(kind, v)
		}
	}
	return c.BuildReport(name, 10*sim.Second)
}

// TestMergeReportsPercentiles pins the exactness contract: the merged
// report's TTFT percentiles and memory means equal the percentiles of the
// concatenated sample sets — i.e. merging reports is equivalent to having
// collected every shard's samples into one collector.
func TestMergeReportsPercentiles(t *testing.T) {
	a := shardReport(t, "a",
		[]float64{0.9, 0.1, 0.5, 0.7, 0.3},
		map[hwsim.Kind][]float64{hwsim.GPU: {0.2, 0.8}}, 3)
	b := shardReport(t, "b",
		[]float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4},
		map[hwsim.Kind][]float64{hwsim.GPU: {0.5}, hwsim.CPU: {0.9, 0.1}}, 5)

	merged := MergeReports("fleet", 10*sim.Second, a, b)

	// Reference: one collector fed the concatenation of all samples.
	want := shardReport(t, "fleet",
		[]float64{0.9, 0.1, 0.5, 0.7, 0.3, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4},
		map[hwsim.Kind][]float64{hwsim.GPU: {0.2, 0.8, 0.5}, hwsim.CPU: {0.9, 0.1}}, 0)

	for _, tc := range []struct {
		field    string
		got, ref float64
	}{
		{"p50", merged.TTFTP50, want.TTFTP50},
		{"p95", merged.TTFTP95, want.TTFTP95},
		{"p99", merged.TTFTP99, want.TTFTP99},
		{"memutil-gpu", merged.MeanMemUtil[hwsim.GPU], want.MeanMemUtil[hwsim.GPU]},
		{"memutil-cpu", merged.MeanMemUtil[hwsim.CPU], want.MeanMemUtil[hwsim.CPU]},
	} {
		if math.Abs(tc.got-tc.ref) > 1e-12 {
			t.Errorf("%s: merged %v != concatenated %v", tc.field, tc.got, tc.ref)
		}
	}
	if len(merged.TTFTCDF) != len(a.TTFTCDF)+len(b.TTFTCDF) {
		t.Errorf("merged CDF has %d samples, want %d", len(merged.TTFTCDF), len(a.TTFTCDF)+len(b.TTFTCDF))
	}
	for i := 1; i < len(merged.TTFTCDF); i++ {
		if merged.TTFTCDF[i] < merged.TTFTCDF[i-1] {
			t.Fatalf("merged TTFTCDF not sorted at %d", i)
		}
	}

	if merged.Total != a.Total+b.Total || merged.Met != a.Met+b.Met {
		t.Errorf("counters did not sum: total=%d met=%d", merged.Total, merged.Met)
	}
	wantRate := float64(a.Met+b.Met) / float64(a.Total+b.Total)
	if math.Abs(merged.SLORate-wantRate) > 1e-12 {
		t.Errorf("SLORate %v, want %v", merged.SLORate, wantRate)
	}
}

// TestMergeReportsDoesNotMutateInputs guards the aliasing hazard:
// per-shard reports alias their collectors' sorted buffers, and a merge
// must never resort or grow them in place.
func TestMergeReportsDoesNotMutateInputs(t *testing.T) {
	a := shardReport(t, "a", []float64{0.9, 0.1, 0.5}, nil, 1)
	before := append([]float64(nil), a.TTFTCDF...)
	_ = MergeReports("fleet", 10*sim.Second, a, a)
	for i := range before {
		if a.TTFTCDF[i] != before[i] {
			t.Fatalf("input CDF mutated at %d", i)
		}
	}
}

// TestMergeReportsExactTotals pins the satellite contract: AvgBatch,
// MeanKVUtil, ScalingOverhead, and the prefix hit rate merge from the exact
// totals each report carries — equal (to float rounding) to one collector
// having seen everything, even past the 200000 samples at which the old
// expanded BatchCDF was truncated.
func TestMergeReportsExactTotals(t *testing.T) {
	build := func(name string, decodes []int, kv []float64, busy, life sim.Duration, prefix [][2]int64) Report {
		c := NewCollector()
		for _, b := range decodes {
			c.RecordDecode(hwsim.GPU, b)
		}
		for _, v := range kv {
			c.SampleKVUtil(v)
		}
		c.ScalingBusy, c.InstanceLifetime = busy, life
		for _, p := range prefix {
			c.RecordPrefixLookup(p[0], p[1])
		}
		return c.BuildReport(name, 10*sim.Second)
	}

	// Shard a runs past the old CDF cap: 200001 iterations of batch 2 plus
	// one of batch 8, all of which its histogram must keep.
	decodesA := make([]int, 0, 200002)
	for i := 0; i < 200001; i++ {
		decodesA = append(decodesA, 2)
	}
	decodesA = append(decodesA, 8)
	a := build("a", decodesA, []float64{0.5, 0.7}, 2*sim.Second, 10*sim.Second,
		[][2]int64{{100, 50}, {0, 30}})
	b := build("b", []int{4, 4, 4, 4}, []float64{0.1}, sim.Second, 30*sim.Second,
		[][2]int64{{200, 0}})

	if want := []int64{0, 0, 200001, 0, 0, 0, 0, 0, 1}; !slices.Equal(a.BatchCDF, want) {
		t.Fatalf("shard a BatchCDF = %v, want exact histogram %v", a.BatchCDF, want)
	}
	if a.DecodeIters != 200002 {
		t.Fatalf("shard a DecodeIters = %d, want 200002", a.DecodeIters)
	}

	merged := MergeReports("fleet", 10*sim.Second, a, b)

	// Reference: one collector fed everything.
	want := build("fleet", append(append([]int{}, decodesA...), 4, 4, 4, 4),
		[]float64{0.5, 0.7, 0.1}, 3*sim.Second, 40*sim.Second,
		[][2]int64{{100, 50}, {0, 30}, {200, 0}})

	for _, tc := range []struct {
		field    string
		got, ref float64
	}{
		{"avgbatch", merged.AvgBatch, want.AvgBatch},
		{"kvutil", merged.MeanKVUtil, want.MeanKVUtil},
		{"scaling", merged.ScalingOverhead, want.ScalingOverhead},
		{"prefixrate", merged.PrefixHitRate, want.PrefixHitRate},
	} {
		if math.Abs(tc.got-tc.ref) > 1e-12 {
			t.Errorf("%s: merged %v != pooled %v", tc.field, tc.got, tc.ref)
		}
	}
	if !slices.Equal(merged.BatchCDF, want.BatchCDF) {
		t.Errorf("merged BatchCDF = %v, want pooled %v", merged.BatchCDF, want.BatchCDF)
	}
	if merged.DecodeIters != want.DecodeIters || merged.KVSamples != want.KVSamples {
		t.Errorf("totals: iters=%d kv=%d, want %d, %d",
			merged.DecodeIters, merged.KVSamples, want.DecodeIters, want.KVSamples)
	}
	if merged.ScalingBusy != want.ScalingBusy || merged.InstanceLifetime != want.InstanceLifetime {
		t.Errorf("durations did not sum: %v/%v", merged.ScalingBusy, merged.InstanceLifetime)
	}
	if merged.PrefixLookups != 3 || merged.PrefixHits != 2 ||
		merged.PrefixHitBytes != 300 || merged.PrefixMissBytes != 80 {
		t.Errorf("prefix counters: %+v", merged)
	}
}

// TestMergeReportsEmpty keeps the degenerate cases total.
func TestMergeReportsEmpty(t *testing.T) {
	m := MergeReports("fleet", sim.Second)
	if m.Total != 0 || m.SLORate != 0 || len(m.TTFTCDF) != 0 {
		t.Fatalf("empty merge not zero: %+v", m)
	}
	if m.System != "fleet" || m.Duration != sim.Second {
		t.Fatalf("identity fields lost: %+v", m)
	}
}

// decodeReport builds a report from decode iterations at the given batch
// sizes, in order, through the collector path a real run uses.
func decodeReport(name string, batches []int) Report {
	c := NewCollector()
	for _, b := range batches {
		c.RecordDecode(hwsim.GPU, b)
	}
	return c.BuildReport(name, 10*sim.Second)
}

// batchLine returns the canonical "avgbatch=... batchcdf ..." line.
func batchLine(t *testing.T, r Report) string {
	t.Helper()
	for _, line := range strings.Split(r.Canonical(), "\n") {
		if strings.HasPrefix(line, "avgbatch=") {
			return line
		}
	}
	t.Fatalf("no batchcdf line in:\n%s", r.Canonical())
	return ""
}

// TestBatchHistogramPastOldCap records more decode iterations than the
// 200000 samples the expanded BatchCDF used to keep. Truncation cut off the
// top of the distribution: its P90 here was 1. The histogram keeps every
// sample, so the P90 is the true 8 and the canonical count is the total.
func TestBatchHistogramPastOldCap(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 190000; i++ {
		c.RecordDecode(hwsim.GPU, 1)
	}
	for i := 0; i < 60000; i++ {
		c.RecordDecode(hwsim.CPU, 8)
	}
	r := c.BuildReport("x", 10*sim.Second)
	if got := r.BatchQuantile(0.9); got != 8 {
		t.Errorf("BatchQuantile(0.9) = %d, want 8", got)
	}
	if line := batchLine(t, r); !strings.Contains(line, " batchcdf n=250000 ") {
		t.Errorf("canonical count wrong: %s", line)
	}
	if r.DecodeIters != 250000 {
		t.Errorf("DecodeIters = %d, want 250000", r.DecodeIters)
	}
}

// TestBatchHistogramProperties checks the histogram against the expanded
// sample slice it replaced, on random workloads: BatchQuantile equals the
// old sorted[int(q*(n-1))] index, a merge equals the histogram of the
// concatenated samples, the total equals DecodeIters, and the canonical
// line hashes the same text as fmt over the expanded sorted samples.
func TestBatchHistogramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 200; trial++ {
		var reps []Report
		var all []int
		for s := rng.Intn(4); s >= 0; s-- {
			batches := make([]int, rng.Intn(300))
			maxB := 1 + rng.Intn(64)
			for i := range batches {
				batches[i] = rng.Intn(maxB + 1)
			}
			reps = append(reps, decodeReport(fmt.Sprint("s", s), batches))
			all = append(all, batches...)
		}
		merged := MergeReports("m", 10*sim.Second, reps...)
		pooled := decodeReport("m", all)
		if !slices.Equal(merged.BatchCDF, pooled.BatchCDF) {
			t.Fatalf("trial %d: merged %v != pooled %v", trial, merged.BatchCDF, pooled.BatchCDF)
		}
		var total int64
		for _, n := range merged.BatchCDF {
			total += n
		}
		if total != merged.DecodeIters || total != int64(len(all)) {
			t.Fatalf("trial %d: histogram total %d, DecodeIters %d, samples %d",
				trial, total, merged.DecodeIters, len(all))
		}

		sorted := slices.Clone(all)
		sort.Ints(sorted)
		for _, q := range qs {
			want := 0
			if len(sorted) > 0 {
				want = sorted[int(q*float64(len(sorted)-1))]
			}
			if got := merged.BatchQuantile(q); got != want {
				t.Fatalf("trial %d: BatchQuantile(%v) = %d, want %d", trial, q, got, want)
			}
		}

		h := fnv.New64a()
		for _, v := range sorted {
			fmt.Fprintf(h, "%d,", v)
		}
		want := fmt.Sprintf("avgbatch=%.9f batchcdf n=%d hash=%x", pooled.AvgBatch, len(sorted), h.Sum64())
		if got := batchLine(t, pooled); got != want {
			t.Fatalf("trial %d: canonical\n got  %s\n want %s", trial, got, want)
		}
	}
}

// TestBuildReportCopiesBatchHistogram guards arena reuse: Reset zeroes the
// collector's histogram in place, which must not reach a returned report.
func TestBuildReportCopiesBatchHistogram(t *testing.T) {
	c := NewCollector()
	c.RecordDecode(hwsim.GPU, 3)
	r := c.BuildReport("x", sim.Second)
	c.Reset()
	c.RecordDecode(hwsim.GPU, 1)
	if want := []int64{0, 0, 0, 1}; !slices.Equal(r.BatchCDF, want) {
		t.Fatalf("report histogram changed under Reset: %v, want %v", r.BatchCDF, want)
	}
}
