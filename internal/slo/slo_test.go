package slo

import (
	"testing"
	"testing/quick"

	"slinfer/internal/sim"
)

func TestDefaultTTFTFormula(t *testing.T) {
	cases := []struct {
		inputLen int
		want     sim.Duration
	}{
		{128, 0.5},  // max(0.5, 0.25) = 0.5
		{256, 0.5},  // 256/512 = 0.5
		{512, 1},    // 1 s
		{1024, 2},   // 2 s
		{4096, 8},   // capped at 8
		{8192, 8},   // capped at 8
		{32768, 8},  // capped at 8
		{1, 0.5},    // floor
		{2048, 4.0}, // 4 s
	}
	for _, c := range cases {
		got := Default(c.inputLen)
		if got.TTFT != c.want {
			t.Errorf("Default(%d).TTFT = %v, want %v", c.inputLen, got.TTFT, c.want)
		}
		if got.TPOT != DefaultTPOT {
			t.Errorf("Default(%d).TPOT = %v, want %v", c.inputLen, got.TPOT, DefaultTPOT)
		}
	}
}

func TestHeadroomPaperExample(t *testing.T) {
	// §VI-A worked example: TPOT SLO 0.25s, headroom 1.9s; an iteration
	// takes 0.2s, so after generating the token the headroom becomes
	// 1.9 - 0.2 + 0.25 = 1.95s.
	obj := Objective{TTFT: 1, TPOT: 0.25}
	start := sim.Time(0)
	// Choose CT and O so that headroom = 1.9: with O = 4, deadline = 1 + 1 = 2.
	// CT = 0.1 gives headroom 1.9.
	now := sim.Time(0.1)
	gen := 4
	h0 := obj.Headroom(start, gen, now)
	if !approx(h0, 1.9) {
		t.Fatalf("initial headroom = %v, want 1.9", h0)
	}
	// One iteration of 0.2s, one more token generated.
	now = now.Add(0.2)
	h1 := obj.Headroom(start, gen+1, now)
	if !approx(h1, 1.95) {
		t.Fatalf("headroom after iteration = %v, want 1.95", h1)
	}
}

func approx(d sim.Duration, want float64) bool {
	diff := d.Seconds() - want
	return diff < 1e-9 && diff > -1e-9
}

// Property: headroom decreases linearly in now, increases by TPOT per
// generated token, and is never NaN.
func TestHeadroomProperties(t *testing.T) {
	f := func(lenU uint16, gen uint8, nowU uint16) bool {
		obj := Default(int(lenU) + 1)
		start := sim.Time(1)
		now := start.Add(sim.Duration(nowU) / 100)
		h1 := obj.Headroom(start, int(gen), now)
		h2 := obj.Headroom(start, int(gen)+1, now)
		if h2-h1 != obj.TPOT {
			return false
		}
		h3 := obj.Headroom(start, int(gen), now.Add(0.5))
		return approx(h1-h3, 0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
