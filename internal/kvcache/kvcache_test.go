package kvcache

import (
	"testing"
	"testing/quick"

	"slinfer/internal/model"
)

func TestScaleTimeMatchesFigure17(t *testing.T) {
	// 32 GB -> 64 GB takes ~1.9 s.
	up := ScaleTime(32e9, 64e9).Seconds()
	if up < 1.7 || up > 2.1 {
		t.Errorf("scale up 32->64 GB = %.2f s, want ~1.9", up)
	}
	// 32 GB -> 16 GB takes ~0.3 s.
	down := ScaleTime(32e9, 16e9).Seconds()
	if down < 0.25 || down > 0.35 {
		t.Errorf("scale down 32->16 GB = %.2f s, want ~0.3", down)
	}
	if ScaleTime(8e9, 8e9) != 0 {
		t.Error("no-op resize should be free")
	}
}

func TestEstimatorEq2(t *testing.T) {
	e := NewEstimator(4096, 200)
	// Before observations, the prior mean applies.
	reqs := []ReqState{{InputLen: 1000, Generated: 50}, {InputLen: 500, Generated: 300}}
	// max(50, 200)=200, max(300, 200)=300 -> 1000+200 + 500+300 = 2000,
	// below Lmin=4096 -> 4096.
	if got := e.RequireTokens(reqs); got != 4096 {
		t.Errorf("RequireTokens = %d, want Lmin 4096", got)
	}
	// With larger load the sum dominates.
	big := []ReqState{{4000, 100}, {3000, 500}, {2000, 10}}
	// 4000+200 + 3000+500 + 2000+200 = 9900.
	if got := e.RequireTokens(big); got != 9900 {
		t.Errorf("RequireTokens = %d, want 9900", got)
	}
	// Observations shift the mean.
	e.Observe(100)
	e.Observe(300) // mean 200 still
	if got := e.MeanOutput(); got != 200 {
		t.Errorf("MeanOutput = %v, want 200", got)
	}
	e.Observe(1400) // mean 600
	if got := e.MeanOutput(); got != 600 {
		t.Errorf("MeanOutput = %v, want 600", got)
	}
}

func TestRequireBytesTPSharding(t *testing.T) {
	e := NewEstimator(0, 100)
	reqs := []ReqState{{InputLen: 1000, Generated: 200}}
	full := e.RequireBytes(&model.CodeLlama34B, reqs, 1)
	half := e.RequireBytes(&model.CodeLlama34B, reqs, 2)
	if half != full/2 {
		t.Errorf("TP=2 bytes = %d, want half of %d", half, full)
	}
}

func TestWatermarkHysteresis(t *testing.T) {
	w := Watermark{W: 0.25}
	require := int64(100e9)
	rec := w.Recommend(require)
	if rec != 125e9 {
		t.Errorf("Recommend = %d, want 125e9", rec)
	}
	// Need scale-up only when current < require.
	if w.NeedScaleUp(require, 100e9) {
		t.Error("current == require should not need scale-up")
	}
	if !w.NeedScaleUp(require, 99e9) {
		t.Error("current < require should need scale-up")
	}
	// Lazy scale-down: only when recommend < current (rec = 125e9). The
	// watermark band [require, require*(1+w)] separates the two triggers.
	if w.ShouldScaleDown(require, 125e9) {
		t.Error("should not scale down at 125e9")
	}
	if !w.ShouldScaleDown(require, 126e9) {
		t.Error("should scale down at 126e9")
	}
	// Zero watermark scales down eagerly (the §IX-I5 thrash mode).
	w0 := Watermark{W: 0}
	if !w0.ShouldScaleDown(100, 101) {
		t.Error("w=0 should scale down on any excess")
	}
	if w0.ShouldScaleDown(100, 100) {
		t.Error("w=0 at exact size should not scale")
	}
}

func TestWatermarkValidate(t *testing.T) {
	if (Watermark{W: -0.1}).Validate() == nil {
		t.Error("negative watermark should fail validation")
	}
	if (Watermark{W: 0.25}).Validate() != nil {
		t.Error("default watermark should validate")
	}
}

func TestCacheAccounting(t *testing.T) {
	m := model.Llama2_7B // 512 KiB per token
	c := NewCache(m, 1)
	c.SetCapacity(10 * 524288) // room for exactly 10 tokens
	if !c.AddTokens(8) {
		t.Fatal("8 tokens should fit")
	}
	if c.AddTokens(3) {
		t.Fatal("11 tokens must not fit")
	}
	if !c.FitsTokens(2) || c.FitsTokens(3) {
		t.Fatal("FitsTokens wrong at boundary")
	}
	if c.UsedTokens() != 8 {
		t.Fatalf("UsedTokens = %d, want 8", c.UsedTokens())
	}
	if got := c.Utilization(); got != 0.8 {
		t.Fatalf("Utilization = %v, want 0.8", got)
	}
	c.ReleaseTokens(5)
	if c.UsedTokens() != 3 {
		t.Fatalf("UsedTokens after release = %d", c.UsedTokens())
	}
	if c.OverReleasedTokens() != 0 {
		t.Fatalf("OverReleasedTokens = %d after in-range releases", c.OverReleasedTokens())
	}
	c.ReleaseTokens(100) // over-release clamps
	if c.UsedTokens() != 0 {
		t.Fatal("over-release should clamp to zero")
	}
	c.ReleaseTokens(4)
	if got := c.OverReleasedTokens(); got != 97+4 {
		t.Fatalf("OverReleasedTokens = %d, want %d", got, 97+4)
	}
	c.Reset(model.Llama2_7B, 1)
	if c.OverReleasedTokens() != 0 {
		t.Fatal("Reset kept the over-release count")
	}
}

// Property: Eq. 2 is monotone — adding a request or generating more tokens
// never decreases the requirement, and the Lmin floor always holds.
func TestRequireTokensMonotoneProperty(t *testing.T) {
	f := func(ins []uint16, extra uint16) bool {
		if len(ins) > 32 {
			ins = ins[:32]
		}
		e := NewEstimator(2048, 150)
		reqs := make([]ReqState, len(ins))
		for i, v := range ins {
			reqs[i] = ReqState{InputLen: int(v%4096) + 1, Generated: int(v % 512)}
		}
		base := e.RequireTokens(reqs)
		if base < 2048 {
			return false
		}
		more := append(append([]ReqState{}, reqs...),
			ReqState{InputLen: int(extra%4096) + 1})
		if e.RequireTokens(more) < base {
			return false
		}
		if len(reqs) > 0 {
			grown := append([]ReqState{}, reqs...)
			grown[0].Generated += 10000
			if e.RequireTokens(grown) < base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cache accounting never exceeds capacity.
func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	f := func(ops []int8) bool {
		c := NewCache(model.Llama2_7B, 1)
		c.SetCapacity(100 * 524288)
		for _, op := range ops {
			if n := int64(op); n >= 0 {
				c.AddTokens(n)
			} else {
				c.ReleaseTokens(-n)
			}
			if c.UsedBytes() > c.CapacityBytes() || c.UsedTokens() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
