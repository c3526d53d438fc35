package perfmodel

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
)

func TestSampleCountIsLogarithmic(t *testing.T) {
	p := NewProfile(hwsim.A100, model.Llama2_7B, 1, 256)
	// Lmax 4096 -> 7 length samples (64..4096); Bmax 256 -> 9 batch samples.
	// §VI-B: "only a few hundred samples".
	if p.SampleCount() > 300 {
		t.Errorf("SampleCount = %d, want a few hundred at most", p.SampleCount())
	}
	if p.SampleCount() < 20 {
		t.Errorf("SampleCount = %d suspiciously small", p.SampleCount())
	}
}

func TestExactGridPointsRoundTrip(t *testing.T) {
	m := model.Llama2_7B
	p := NewProfile(hwsim.XeonGen4, m, 1, 256)
	for _, l := range []int{64, 256, 1024, 4096} {
		want := hwsim.XeonGen4.PrefillTime(m, l, 1)
		if got := p.EstimatePrefill(l); got != want {
			t.Errorf("EstimatePrefill(%d) = %v, want exact %v", l, got, want)
		}
	}
	for _, b := range []int{1, 4, 32, 256} {
		want := hwsim.XeonGen4.DecodeTime(m, b, b*1024, 1)
		if got := p.EstimateDecode(b, 1024); !closeTo(got, want, 1e-9) {
			t.Errorf("EstimateDecode(%d, 1024) = %v, want %v", b, got, want)
		}
	}
}

func closeTo(a, b sim.Duration, tol float64) bool {
	return math.Abs(a.Seconds()-b.Seconds()) <= tol
}

// §VI-B: "average relative deviations between the actual TTFT/TPOT and the
// estimated values were only 5.9% and 3.9%". Our interpolation against the
// analytic ground truth over 100 random workloads must be comparably tight.
func TestInterpolationAccuracy(t *testing.T) {
	rng := sim.NewRNG(42, 99)
	for _, class := range []hwsim.DeviceClass{hwsim.XeonGen4, hwsim.A100} {
		for _, m := range []model.Model{model.Llama2_7B, model.Llama2_13B} {
			p := NewProfile(class, m, 1, 256)
			var sumTTFT, sumTPOT float64
			n := 100
			for i := 0; i < n; i++ {
				l := 64 + rng.IntN(m.MaxContext-64)
				b := 1 + rng.IntN(128)
				actP := class.PrefillTime(m, l, 1).Seconds()
				estP := p.EstimatePrefill(l).Seconds()
				sumTTFT += math.Abs(estP-actP) / actP
				actD := class.DecodeTime(m, b, b*l, 1).Seconds()
				estD := p.EstimateDecode(b, l).Seconds()
				sumTPOT += math.Abs(estD-actD) / actD
			}
			if avg := sumTTFT / float64(n); avg > 0.08 {
				t.Errorf("%v/%s: mean TTFT deviation = %.1f%%, want <8%%", class, m.Name, avg*100)
			}
			if avg := sumTPOT / float64(n); avg > 0.08 {
				t.Errorf("%v/%s: mean TPOT deviation = %.1f%%, want <8%%", class, m.Name, avg*100)
			}
		}
	}
}

func TestExtrapolationBeyondGrid(t *testing.T) {
	m := model.Llama2_7B
	p := NewProfile(hwsim.XeonGen4, m, 1, 64)
	// Batch beyond Bmax extrapolates and stays monotone.
	if p.EstimateDecode(128, 1024) <= p.EstimateDecode(64, 1024) {
		t.Error("extrapolated decode should grow with batch")
	}
	// Length below the grid clamps to the smallest sample.
	if p.EstimatePrefill(1) != p.EstimatePrefill(64) {
		t.Error("short inputs should clamp to the first sample")
	}
}

func TestCanMeetGatesCPUs(t *testing.T) {
	m7 := model.Llama2_7B
	gen4 := NewProfile(hwsim.XeonGen4, m7, 1, 256)
	gen3 := NewProfile(hwsim.XeonGen3, m7, 1, 256)
	gpu := NewProfile(hwsim.A100, m7, 1, 256)
	obj := slo.Default(1024)
	if !gen4.CanMeet(1024, obj) {
		t.Error("gen4 CPU should serve 7B @1K")
	}
	// §V: SLINFER excludes CPUs lacking matrix acceleration.
	if gen3.CanMeet(1024, obj) {
		t.Error("gen3 CPU must be excluded")
	}
	if !gpu.CanMeet(1024, obj) {
		t.Error("GPU should serve everything here")
	}
	// 34B on CPU is infeasible at any length (Fig 6).
	p34 := NewProfile(hwsim.XeonGen4, model.CodeLlama34B, 1, 64)
	for _, l := range []int{256, 1024, 4096} {
		if p34.CanMeet(l, slo.Default(l)) {
			t.Errorf("C-34B CanMeet(%d) = true, want false", l)
		}
	}
	// LongBench-style 32K inputs exceed CPU ability for 8B (§IX-I1).
	p8 := NewProfile(hwsim.XeonGen4, model.Llama31_8B, 1, 256)
	if p8.CanMeet(32768, slo.Default(32768)) {
		t.Error("C-8B @32K should be infeasible")
	}
	if !p8.CanMeet(4096, slo.Default(4096)) {
		t.Error("C-8B @4K should be feasible")
	}
}

func TestRegistryCaches(t *testing.T) {
	r := NewRegistry()
	a := r.Get(hwsim.A100, model.Llama2_7B, 1)
	b := r.Get(hwsim.A100, model.Llama2_7B, 1)
	if a != b {
		t.Error("registry should return the cached profile")
	}
	c := r.Get(hwsim.A100, model.Llama2_7B, 0.5)
	if c == a {
		t.Error("different share must produce a different profile")
	}
	if r.Size() != 2 {
		t.Errorf("Size = %d, want 2", r.Size())
	}
}

// Property: estimates are monotone in batch and length, and positive.
func TestEstimateMonotonicityProperty(t *testing.T) {
	p := NewProfile(hwsim.XeonGen4, model.Llama2_7B, 1, 256)
	f := func(lRaw uint16, bRaw uint8) bool {
		l := int(lRaw)%4000 + 64
		b := int(bRaw)%128 + 1
		d := p.EstimateDecode(b, l)
		if d <= 0 {
			return false
		}
		if p.EstimateDecode(b+1, l) < d {
			return false
		}
		if p.EstimateDecode(b, l+64) < d {
			return false
		}
		pf := p.EstimatePrefill(l)
		return pf > 0 && p.EstimatePrefill(l+64) >= pf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// bracketSearch is bracket as it was before the O(1) segment lookup: a
// binary search over the whole grid. It is the oracle for
// TestBracketMatchesBinarySearch.
func bracketSearch(xs []int, x int) (i0, i1 int, w float64) {
	n := len(xs)
	if n == 1 || x <= xs[0] {
		return 0, 0, 0
	}
	if x >= xs[n-1] {
		i0, i1 = n-2, n-1
		w = float64(x-xs[i0]) / float64(xs[i1]-xs[i0])
		return i0, i1, w
	}
	j := sort.SearchInts(xs, x)
	if xs[j] == x {
		return j, j, 0
	}
	i0, i1 = j-1, j
	w = float64(x-xs[i0]) / float64(xs[i1]-xs[i0])
	return i0, i1, w
}

// The O(1) bracket must answer exactly what the binary search answers, on
// NewProfile grids with exact and clamped tails, on single-sample grids,
// and on grids that are not 2^k multiples of their first sample (where it
// falls back to the search).
func TestBracketMatchesBinarySearch(t *testing.T) {
	short := model.Llama2_7B
	short.MaxContext = 3000
	tiny := model.Llama2_7B
	tiny.MaxContext = 40
	var grids [][]int
	for _, g := range []struct {
		m        model.Model
		maxBatch int
	}{{model.Llama2_7B, 256}, {short, 100}, {short, 1}, {tiny, 3}} {
		p := NewProfile(hwsim.A100, g.m, 1, g.maxBatch)
		grids = append(grids, p.lenSamples, p.batchSamples)
	}
	grids = append(grids, []int{3, 5, 6, 20, 21, 64, 100}, []int{2, 4, 8, 12, 16, 32})
	for _, xs := range grids {
		for x := -5; x <= 2*xs[len(xs)-1]; x++ {
			i0, i1, w := bracket(xs, x)
			r0, r1, rw := bracketSearch(xs, x)
			if i0 != r0 || i1 != r1 || w != rw {
				t.Fatalf("grid %v x=%d: bracket=(%d,%d,%v), search=(%d,%d,%v)", xs, x, i0, i1, w, r0, r1, rw)
			}
		}
	}
}

// EstimateDecodeAt must return EstimateDecode's exact bits for every
// catalog device class and model: walking every length up and then down
// (the cursor's steady case, one token per round), changing the batch
// between walks, and jumping at random across profiles with one cursor.
// The 24-batch grid ends in a clamped sample; the 3000-token model's
// length grid does too.
func TestDecodeCursorMatchesEstimateDecode(t *testing.T) {
	const maxBatch = 24
	short := model.Llama2_7B
	short.MaxContext = 3000
	var profs []*Profile
	for _, class := range []hwsim.DeviceClass{hwsim.XeonGen4, hwsim.XeonGen3, hwsim.A100} {
		for _, m := range append(model.Catalog(), short) {
			profs = append(profs, NewProfile(class, m, 1, maxBatch))
		}
	}
	check := func(p *Profile, cur *DecodeCursor, batch, avgLen int) {
		if got, want := p.EstimateDecodeAt(cur, batch, avgLen), p.EstimateDecode(batch, avgLen); got != want {
			t.Fatalf("%v %s batch %d len %d: cursor %v, EstimateDecode %v",
				p.Class, p.Model.Name, batch, avgLen, got, want)
		}
	}
	for _, p := range profs {
		var cur DecodeCursor
		top := p.Model.MaxContext + 300
		for batch := 0; batch <= maxBatch+8; batch++ {
			if batch%2 == 0 {
				for l := 0; l <= top; l++ {
					check(p, &cur, batch, l)
				}
			} else {
				for l := top; l >= 0; l-- {
					check(p, &cur, batch, l)
				}
			}
		}
	}
	rng := sim.NewRNG(5, 8)
	var cur DecodeCursor
	for i := 0; i < 20000; i++ {
		p := profs[rng.IntN(len(profs))]
		check(p, &cur, rng.IntN(maxBatch+9), rng.IntN(p.Model.MaxContext+301))
	}
}

// MaxDecode must bound EstimateDecode at every length of its range (to
// within interpolation rounding) and never exceed the largest value the
// range actually takes, for ranges below, across and beyond the grid.
func TestMaxDecodeBoundsEveryLength(t *testing.T) {
	rng := sim.NewRNG(6, 8)
	for _, class := range []hwsim.DeviceClass{hwsim.XeonGen4, hwsim.A100} {
		for _, m := range model.Catalog() {
			p := NewProfile(class, m, 1, 32)
			for i := 0; i < 200; i++ {
				batch := 1 + rng.IntN(40)
				lo := rng.IntN(m.MaxContext + 200)
				hi := lo + rng.IntN(1200)
				got := p.MaxDecode(batch, lo, hi)
				var scan sim.Duration
				for l := lo; l <= hi; l++ {
					scan = max(scan, p.EstimateDecode(batch, l))
				}
				if got > scan || scan > got*(1+1e-12) {
					t.Fatalf("%v %s batch %d [%d, %d]: MaxDecode %v, scan %v",
						class, m.Name, batch, lo, hi, got, scan)
				}
			}
		}
	}
}
