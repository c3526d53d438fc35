package hwsim

import (
	"testing"
	"testing/quick"

	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
)

// within reports |got-want| <= tol*want.
func within(got, want sim.Duration, tol float64) bool {
	g, w := got.Seconds(), want.Seconds()
	d := g - w
	if d < 0 {
		d = -d
	}
	return d <= tol*w
}

// Table I calibration: Llama-2-7B on the 4th-gen Xeon.
func TestGen4MatchesTableI(t *testing.T) {
	m := model.Llama2_7B
	prefill := []struct {
		length int
		wantMS float64
	}{{256, 149}, {1024, 567}, {4096, 2748}}
	for _, c := range prefill {
		got := XeonGen4.PrefillTime(m, c.length, 1)
		if !within(got, sim.Duration(c.wantMS/1e3), 0.10) {
			t.Errorf("gen4 prefill(%d) = %.0f ms, want ~%.0f", c.length, got.Milliseconds(), c.wantMS)
		}
	}
	decode := []struct {
		batch, length int
		wantMS        float64
	}{{1, 1024, 71}, {32, 1024, 196}, {1, 4096, 80}, {32, 4096, 459}}
	for _, c := range decode {
		got := XeonGen4.DecodeTime(m, c.batch, c.batch*c.length, 1)
		if !within(got, sim.Duration(c.wantMS/1e3), 0.10) {
			t.Errorf("gen4 decode(bs=%d, len=%d) = %.0f ms, want ~%.0f",
				c.batch, c.length, got.Milliseconds(), c.wantMS)
		}
	}
}

// Table I: gen-3 Xeon speedup ratios (prefill 6.7-7.3x, decode 1.4-1.7x).
func TestGen3SpeedupRatios(t *testing.T) {
	m := model.Llama2_7B
	for _, length := range []int{256, 1024, 4096} {
		ratio := XeonGen3.PrefillTime(m, length, 1).Seconds() / XeonGen4.PrefillTime(m, length, 1).Seconds()
		if ratio < 6.0 || ratio > 8.0 {
			t.Errorf("prefill gen3/gen4 ratio at %d = %.1f, want 6.7-7.3", length, ratio)
		}
	}
	for _, c := range []struct{ batch, length int }{{1, 1024}, {32, 1024}, {1, 4096}, {32, 4096}} {
		ratio := XeonGen3.DecodeTime(m, c.batch, c.batch*c.length, 1).Seconds() /
			XeonGen4.DecodeTime(m, c.batch, c.batch*c.length, 1).Seconds()
		if ratio < 1.3 || ratio > 1.9 {
			t.Errorf("decode gen3/gen4 ratio bs=%d len=%d = %.2f, want 1.4-1.7", c.batch, c.length, ratio)
		}
	}
	// §IV-A2: gen-3 running 1K inputs takes ~4.1 s, far past SLO.
	got := XeonGen3.PrefillTime(m, 1024, 1)
	if got.Seconds() < 3.5 || got.Seconds() > 4.6 {
		t.Errorf("gen3 prefill(1K) = %.2f s, want ~4.1", got.Seconds())
	}
	if XeonGen3.HasMatrixAccel() || !XeonGen4.HasMatrixAccel() {
		t.Error("matrix-accel flags wrong")
	}
}

// Table II: derived concurrency limits match the paper.
func TestConcurrencyLimitsMatchTableII(t *testing.T) {
	cpu := NewCPUNode("c")
	gpu := NewGPUNode("g")
	tpot := slo.DefaultTPOT
	cases := []struct {
		name   string
		spec   NodeSpec
		m      model.Model
		length int
		share  float64
		wantLo int
		wantHi int
	}{
		// CPU 7B (compute-bound): full 27, 1/2 -> 9, 1/3 -> 2, 1/4 infeasible.
		{"C-7B-2K full", cpu, model.Llama2_7B, 2048, 1, 26, 28},
		{"C-7B-2K half", cpu, model.Llama2_7B, 2048, 0.5, 8, 10},
		{"C-7B-2K third", cpu, model.Llama2_7B, 2048, 1.0 / 3, 2, 3},
		{"C-7B-2K quarter", cpu, model.Llama2_7B, 2048, 0.25, 0, 0},
		{"C-7B-4K full", cpu, model.Llama2_7B, 4096, 1, 14, 16},
		{"C-7B-4K half", cpu, model.Llama2_7B, 4096, 0.5, 4, 5},
		{"C-7B-4K third", cpu, model.Llama2_7B, 4096, 1.0 / 3, 1, 2},
		// GPU 7B (capacity-bound): full 66, 1/2 26, 1/3 12, 1/4 6.
		{"G-7B-2K full", gpu, model.Llama2_7B, 2048, 1, 62, 70},
		{"G-7B-2K half", gpu, model.Llama2_7B, 2048, 0.5, 24, 28},
		{"G-7B-2K third", gpu, model.Llama2_7B, 2048, 1.0 / 3, 11, 13},
		{"G-7B-2K quarter", gpu, model.Llama2_7B, 2048, 0.25, 5, 7},
		{"G-7B-4K full", gpu, model.Llama2_7B, 4096, 1, 30, 34},
		{"G-7B-4K quarter", gpu, model.Llama2_7B, 4096, 0.25, 2, 4},
		// GPU 13B: full 33 / 16, half 7 / 3.
		{"G-13B-2K full", gpu, model.Llama2_13B, 2048, 1, 31, 35},
		{"G-13B-2K half", gpu, model.Llama2_13B, 2048, 0.5, 7, 9},
		{"G-13B-4K full", gpu, model.Llama2_13B, 4096, 1, 15, 17},
		{"G-13B-4K half", gpu, model.Llama2_13B, 4096, 0.5, 3, 4},
	}
	for _, c := range cases {
		got := ConcurrencyLimit(c.spec, c.m, c.length, c.share, tpot)
		if got < c.wantLo || got > c.wantHi {
			t.Errorf("%s: limit = %d, want [%d, %d]", c.name, got, c.wantLo, c.wantHi)
		}
	}
}

// §III-C / Table II takeaway: partitioning a node into k slices yields far
// less than the whole node's aggregate concurrency.
func TestPartitioningLosesAggregateConcurrency(t *testing.T) {
	gpu := NewGPUNode("g")
	full := ConcurrencyLimit(gpu, model.Llama2_7B, 2048, 1, slo.DefaultTPOT)
	third := ConcurrencyLimit(gpu, model.Llama2_7B, 2048, 1.0/3, slo.DefaultTPOT)
	if 3*third >= full {
		t.Errorf("3 x third (%d) should be < full (%d)", 3*third, full)
	}
}

// Figure 6 shape: CPU meets 7B/13B TTFT SLO at short inputs; 34B never.
func TestCPUTTFTSLOCoverage(t *testing.T) {
	for _, length := range []int{256, 512, 1024, 2048, 4096} {
		obj := slo.Default(length)
		if got := XeonGen4.PrefillTime(model.Llama2_7B, length, 1); got > obj.TTFT {
			t.Errorf("C-7B TTFT(%d) = %v exceeds SLO %v", length, got, obj.TTFT)
		}
	}
	// 13B meets at 4K but not at 8K (paper: up to ~5.6K).
	if got := XeonGen4.PrefillTime(model.Llama2_13B, 4096, 1); got > slo.Default(4096).TTFT {
		t.Errorf("C-13B TTFT(4K) = %v should meet 8s SLO", got)
	}
	if got := XeonGen4.PrefillTime(model.Llama2_13B, 8192, 1); got <= slo.Default(8192).TTFT {
		t.Errorf("C-13B TTFT(8K) = %v should violate 8s SLO", got)
	}
	// 34B violates everywhere on CPU.
	for _, length := range []int{256, 1024, 4096} {
		if got := XeonGen4.PrefillTime(model.CodeLlama34B, length, 1); got <= slo.Default(length).TTFT {
			t.Errorf("C-34B TTFT(%d) = %v should violate SLO", length, got)
		}
	}
	// GPU meets everywhere in Figure 6's range for 7B/13B.
	for _, length := range []int{256, 1024, 4096, 8192} {
		if got := A100.PrefillTime(model.Llama2_13B, length, 1); got > slo.Default(length).TTFT {
			t.Errorf("G-13B TTFT(%d) = %v exceeds SLO", length, got)
		}
	}
}

// §IX-I1: CPUs handle inputs up to ~8.4K tokens within the 8 s TTFT SLO for
// the 8B model.
func TestCPULongInputLimit8B(t *testing.T) {
	m := model.Llama31_8B
	if got := XeonGen4.PrefillTime(m, 8192, 1); got > 8 {
		t.Errorf("C-8B TTFT(8.2K) = %v, paper says ~8.4K fits in 8s", got)
	}
	if got := XeonGen4.PrefillTime(m, 12288, 1); got <= 8 {
		t.Errorf("C-8B TTFT(12K) = %v should exceed 8s", got)
	}
	// §X: 32K inputs take ~84 s on CPU.
	got := XeonGen4.PrefillTime(m, 32768, 1).Seconds()
	if got < 40 || got > 130 {
		t.Errorf("C-8B TTFT(32K) = %.0f s, paper reports ~84 s", got)
	}
	// §X: 8B decode takes at least ~74 ms per token.
	d := XeonGen4.DecodeTime(m, 1, 1024, 1).Milliseconds()
	if d < 55 || d > 95 {
		t.Errorf("C-8B TPOT(bs1) = %.0f ms, paper reports ~74 ms", d)
	}
}

// Batching is sub-linear (§III, Figure 7): 4-batch TPOT only slightly above
// 1-batch.
func TestBatchingSubLinear(t *testing.T) {
	m := model.Llama2_7B
	t1 := XeonGen4.DecodeTime(m, 1, 1024, 1)
	t4 := XeonGen4.DecodeTime(m, 4, 4*1024, 1)
	growth := t4.Seconds()/t1.Seconds() - 1
	// Paper: "TPOT for a 4-batch increases by only 14% compared to 1-batch".
	if growth < 0.05 || growth > 0.30 {
		t.Errorf("4-batch TPOT growth = %.0f%%, want ~14%%", growth*100)
	}
	// 13B at 32-batch: 2x TPOT increase from 512 to 2K, violating SLO.
	d512 := XeonGen4.DecodeTime(model.Llama2_13B, 32, 32*512, 1)
	d2k := XeonGen4.DecodeTime(model.Llama2_13B, 32, 32*2048, 1)
	if r := d2k.Seconds() / d512.Seconds(); r < 1.6 || r > 2.4 {
		t.Errorf("13B 512->2K TPOT ratio = %.2f, want ~2", r)
	}
	if d2k <= slo.DefaultTPOT {
		t.Errorf("13B 32bs-2K TPOT = %v should violate 0.25s SLO", d2k)
	}
	if d512 > slo.DefaultTPOT {
		t.Errorf("13B 32bs-512 TPOT = %v should meet 0.25s SLO", d512)
	}
}

// §IV-A2 limitations: under a 100 ms TPOT SLO only <=7B is feasible with
// batch <=9 at 1K and <=3 at 4K; at 50 ms even 7B fails.
func TestTightSLOLimits(t *testing.T) {
	cpu := NewCPUNode("c")
	b1k := ConcurrencyLimit(cpu, model.Llama2_7B, 1024, 1, 0.100)
	if b1k < 7 || b1k > 11 {
		t.Errorf("7B @100ms, 1K: limit = %d, want ~9", b1k)
	}
	b4k := ConcurrencyLimit(cpu, model.Llama2_7B, 4096, 1, 0.100)
	if b4k < 2 || b4k > 4 {
		t.Errorf("7B @100ms, 4K: limit = %d, want ~3", b4k)
	}
	if got := ConcurrencyLimit(cpu, model.Llama2_7B, 1024, 1, 0.050); got != 0 {
		t.Errorf("7B @50ms: limit = %d, want 0 (infeasible)", got)
	}
	if got := ConcurrencyLimit(cpu, model.Llama2_13B, 1024, 1, 0.100); got != 0 {
		t.Errorf("13B @100ms: limit = %d, want 0", got)
	}
}

func TestLoadTimes(t *testing.T) {
	g := NewGPUNode("g")
	lt := g.LoadTime(&model.Llama2_7B).Seconds()
	// §IX-A: ~1 second to load a 7B model.
	if lt < 0.7 || lt > 1.3 {
		t.Errorf("7B load = %.2f s, want ~1", lt)
	}
	if g.UnloadTime(&model.Llama2_7B) >= g.LoadTime(&model.Llama2_7B) {
		t.Error("unload should be faster than load")
	}
	// TP=2 halves the per-node weight volume.
	if g.LoadTime(&model.CodeLlama34B) >= g.LoadTime(&model.CodeLlama34B)*2 {
		t.Error("sanity")
	}
	// 100 Gbps interconnect: 1 GB KV transfers in ~80 ms.
	tt := g.KVTransferTime(1e9).Milliseconds()
	if tt < 60 || tt > 100 {
		t.Errorf("1GB KV transfer = %.0f ms, want ~80", tt)
	}
}

func TestCoreUsageAndStress(t *testing.T) {
	// Figure 10: never more than one core for a single instance.
	for _, bs := range []int{1, 2, 4, 8, 16, 32, 64} {
		if u := CPUCoreUsage(1, bs); u <= 0 || u > 1 {
			t.Errorf("CPUCoreUsage(1, %d) = %.2f, want (0, 1]", bs, u)
		}
	}
	// Figure 28: 8 colocated instances only slightly exceed one core.
	if u := CPUCoreUsage(8, 4); u < 1.0 || u > 1.6 {
		t.Errorf("CPUCoreUsage(8) = %.2f, want slightly over 1", u)
	}
	// Figure 11: 64 stress procs on 32 cores cost ~4%.
	if s := StressSlowdown(64, 32); s < 1.03 || s > 1.05 {
		t.Errorf("StressSlowdown(64, 32) = %.3f, want ~1.04", s)
	}
	if s := StressSlowdown(0, 32); s != 1 {
		t.Errorf("StressSlowdown(0) = %v, want 1", s)
	}
}

// Properties: latency is monotone in length, batch, and inverse share, and
// always positive for valid input.
func TestLatencyMonotonicityProperties(t *testing.T) {
	f := func(l1, l2 uint16, b uint8, halfShare bool) bool {
		m := model.Llama2_7B
		la, lb := int(l1)+1, int(l1)+1+int(l2)
		if XeonGen4.PrefillTime(m, la, 1) > XeonGen4.PrefillTime(m, lb, 1) {
			return false
		}
		batch := int(b%64) + 1
		share := 1.0
		if halfShare {
			share = 0.5
		}
		d1 := A100.DecodeTime(m, batch, batch*la, share)
		d2 := A100.DecodeTime(m, batch+1, (batch+1)*la, share)
		if d1 > d2 || d1 <= 0 {
			return false
		}
		return A100.DecodeTime(m, batch, batch*la, 1) <= A100.DecodeTime(m, batch, batch*la, 0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// GPU is far faster than CPU everywhere, and TP halves per-node work.
func TestRelativeSpeeds(t *testing.T) {
	m := model.Llama2_7B
	if A100.PrefillTime(m, 2048, 1) >= XeonGen4.PrefillTime(m, 2048, 1) {
		t.Error("A100 prefill should beat CPU")
	}
	tp1 := model.CodeLlama34B
	tp1.TPDegree = 1
	if A100.PrefillTime(model.CodeLlama34B, 2048, 1) >= A100.PrefillTime(tp1, 2048, 1) {
		t.Error("TP=2 should halve per-node prefill work")
	}
}

func TestTestbed(t *testing.T) {
	specs := Testbed(4, 4)
	if len(specs) != 8 {
		t.Fatalf("len = %d", len(specs))
	}
	cpus, gpus := 0, 0
	for _, s := range specs {
		switch s.Kind() {
		case CPU:
			cpus++
			if s.MemBytes != 256*model.GiB {
				t.Error("CPU mem wrong")
			}
		case GPU:
			gpus++
			if s.MemBytes != 80*model.GiB {
				t.Error("GPU mem wrong")
			}
		}
	}
	if cpus != 4 || gpus != 4 {
		t.Fatalf("cpus=%d gpus=%d", cpus, gpus)
	}
}
