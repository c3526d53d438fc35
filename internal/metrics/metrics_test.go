package metrics

import (
	"math"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
)

func TestRequestAccounting(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.RecordArrival()
	}
	for i := 0; i < 6; i++ {
		c.RecordCompletion(true, sim.Duration(0.5), true)
	}
	c.RecordCompletion(false, sim.Duration(3), true)
	c.RecordDrop()
	r := c.BuildReport("x", 60)
	if r.Total != 10 || r.Met != 6 || r.Completed != 7 || r.Dropped != 1 {
		t.Fatalf("counts wrong: %+v", r)
	}
	if r.SLORate != 0.6 {
		t.Fatalf("SLORate = %v, want 0.6", r.SLORate)
	}
	if r.TTFTP50 != 0.5 {
		t.Fatalf("P50 = %v", r.TTFTP50)
	}
	if len(r.TTFTCDF) != 7 {
		t.Fatalf("CDF samples = %d", len(r.TTFTCDF))
	}
}

func TestNodeActivityIntegration(t *testing.T) {
	c := NewCollector()
	// Node 0 (GPU) active [0, 30); node 1 (CPU) active [10, 60).
	c.NodeActive(0, hwsim.GPU, 0)
	c.NodeActive(1, hwsim.CPU, 10)
	c.NodeInactive(0, 30)
	c.Finalize(60)
	r := c.BuildReport("x", 60)
	if got := r.AvgNodesUsed[hwsim.GPU]; got != 0.5 {
		t.Fatalf("GPU nodes used = %v, want 0.5", got)
	}
	if got := r.AvgNodesUsed[hwsim.CPU]; got < 0.82 || got > 0.84 {
		t.Fatalf("CPU nodes used = %v, want ~0.833", got)
	}
}

func TestNodeActivityIdempotent(t *testing.T) {
	c := NewCollector()
	c.NodeActive(0, hwsim.GPU, 0)
	c.NodeActive(0, hwsim.GPU, 5) // duplicate must not reset
	c.NodeInactive(0, 10)
	c.NodeInactive(0, 20) // duplicate must not double-count
	c.Finalize(30)
	r := c.BuildReport("x", 30)
	want := 10.0 / 30.0
	if got := r.AvgNodesUsed[hwsim.GPU]; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Node usage sums every node's active time per kind in node-index order,
// so the float totals are bit-identical from report to report. The GPU
// durations below sum to different bits in different orders; a sum that
// followed an unordered walk would differ across the repeats.
func TestNodeUsageSumsInIndexOrder(t *testing.T) {
	gpu := []sim.Duration{0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 0.17, 2.9}
	var want sim.Duration
	for _, d := range gpu {
		want += d
	}
	var reversed sim.Duration
	for k := len(gpu) - 1; k >= 0; k-- {
		reversed += gpu[k]
	}
	if reversed == want {
		t.Fatal("precondition: the durations must sum to different bits in another order")
	}
	const span = 10
	for rep := 0; rep < 200; rep++ {
		c := NewCollector()
		for i, d := range gpu {
			// Interleave a CPU node between GPU nodes.
			c.NodeActive(2*i, hwsim.GPU, 0)
			c.NodeInactive(2*i, sim.Time(0).Add(d))
			c.NodeActive(2*i+1, hwsim.CPU, 1)
		}
		c.RecordDecode(hwsim.GPU, 3)
		c.Finalize(span)
		r := c.BuildReport("x", span)
		if got := r.AvgNodesUsed[hwsim.GPU]; math.Float64bits(got) != math.Float64bits(want.Seconds()/span) {
			t.Fatalf("repeat %d: GPU nodes used %v (%#x), want the index-order sum %v",
				rep, got, math.Float64bits(got), want.Seconds()/span)
		}
		if got := r.DecodeSpeed[hwsim.GPU]; math.Float64bits(got) != math.Float64bits(3/want.Seconds()) {
			t.Fatalf("repeat %d: GPU decode speed %v, want %v", rep, got, 3/want.Seconds())
		}
		if got := r.AvgNodesUsed[hwsim.CPU]; got != float64(len(gpu))*(span-1)/span {
			t.Fatalf("repeat %d: CPU nodes used %v", rep, got)
		}
	}
}

func TestDecodeSpeedPerKind(t *testing.T) {
	c := NewCollector()
	c.NodeActive(0, hwsim.GPU, 0)
	for i := 0; i < 100; i++ {
		c.RecordDecode(hwsim.GPU, 8)
	}
	c.Finalize(10)
	r := c.BuildReport("x", 10)
	if got := r.DecodeSpeed[hwsim.GPU]; got != 80 {
		t.Fatalf("DecodeSpeed = %v, want 80 tok/(node*s)", got)
	}
	if r.AvgBatch != 8 {
		t.Fatalf("AvgBatch = %v, want 8", r.AvgBatch)
	}
}

func TestMemUtilAndOverheads(t *testing.T) {
	c := NewCollector()
	c.SampleMemUtil(hwsim.GPU, 0.2)
	c.SampleMemUtil(hwsim.GPU, 0.4)
	c.SampleKVUtil(0.8)
	c.ScalingBusy = 5
	c.InstanceLifetime = 100
	c.Migrations = 2
	c.Completed = 100
	r := c.BuildReport("x", 60)
	if got := r.MeanMemUtil[hwsim.GPU]; got < 0.299 || got > 0.301 {
		t.Fatalf("MeanMemUtil = %v", got)
	}
	if r.MeanKVUtil != 0.8 {
		t.Fatalf("MeanKVUtil = %v", r.MeanKVUtil)
	}
	if r.ScalingOverhead != 0.05 {
		t.Fatalf("ScalingOverhead = %v, want 0.05", r.ScalingOverhead)
	}
	if r.MigrationRate != 0.02 {
		t.Fatalf("MigrationRate = %v, want 0.02", r.MigrationRate)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	seq := func(n int) []float64 { // 1, 2, ..., n
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.99, 0},
		{"one-sample", []float64{3}, 0.5, 3},
		{"one-sample-p99", []float64{3}, 0.99, 3},
		{"two-sample-p50", []float64{1, 2}, 0.5, 1.5},
		{"two-sample-p99", []float64{1, 2}, 0.99, 1.99},
		{"hundred-p50", seq(100), 0.50, 50.5},
		{"hundred-p95", seq(100), 0.95, 95.05},
		// Floor truncation would return 99 (the 98th-smallest) here.
		{"hundred-p99", seq(100), 0.99, 99.01},
		{"hundred-p0", seq(100), 0, 1},
		{"hundred-p100", seq(100), 1, 100},
		// 101 samples: exact ranks, no interpolation residue.
		{"oddhundred-p50", seq(101), 0.50, 51},
		{"oddhundred-p95", seq(101), 0.95, 96},
		{"oddhundred-p99", seq(101), 0.99, 100},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: percentile(p=%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestWallClockOverheads(t *testing.T) {
	c := NewCollector()
	c.ValidationNs = 4_000_000
	c.ValidationCount = 10
	c.ScheduleNs = 30_000
	c.ScheduleCount = 10
	r := c.BuildReport("x", 1)
	if r.ValidationUS != 400 {
		t.Fatalf("ValidationUS = %v", r.ValidationUS)
	}
	if r.ScheduleUS != 3 {
		t.Fatalf("ScheduleUS = %v", r.ScheduleUS)
	}
}
