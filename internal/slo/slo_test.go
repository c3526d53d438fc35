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

func TestTrackerAttainment(t *testing.T) {
	obj := Objective{TTFT: 1, TPOT: 0.25}
	tr := NewTracker(obj, 0)
	if !tr.RecordToken(0.9) { // first token within 1s
		t.Fatal("first token at 0.9 should meet 1s TTFT")
	}
	if !tr.RecordToken(1.2) { // deadline 1.25
		t.Fatal("second token at 1.2 should meet 1.25 deadline")
	}
	if !tr.Met() {
		t.Fatal("tracker should report met")
	}
	if tr.RecordToken(2.0) { // deadline 1.5
		t.Fatal("third token at 2.0 should violate")
	}
	if tr.Met() {
		t.Fatal("violation must stick")
	}
	ttft, ok := tr.TTFT()
	if !ok || !approx(ttft, 0.9) {
		t.Fatalf("TTFT = %v, %v", ttft, ok)
	}
}

func TestTrackerBanking(t *testing.T) {
	// Eq.-1 deadlines are cumulative: an early first token banks budget
	// for later tokens.
	obj := Objective{TTFT: 2, TPOT: 0.25}
	tr := NewTracker(obj, 0)
	tr.RecordToken(0.1) // 1.9s of banked headroom
	// Token 2 deadline is 2.25 even though the gap is huge.
	if !tr.RecordToken(2.2) {
		t.Fatal("banked headroom should allow a 2.1s gap")
	}
	if !tr.Met() {
		t.Fatal("should still be met")
	}
}

func TestColdStartGrace(t *testing.T) {
	obj := Objective{TTFT: 0.5, TPOT: 0.25}
	tr := NewTracker(obj, 0)
	tr.AddGrace(1.0) // 1s cold start
	if !tr.RecordToken(1.4) {
		t.Fatal("grace window should extend TTFT deadline to 1.5")
	}
	// Grace after first token is ignored.
	tr.AddGrace(10)
	if tr.NextDeadline() != sim.Time(1.5).Add(0.25) {
		t.Fatalf("NextDeadline = %v, want 1.75", tr.NextDeadline())
	}
}

func TestMarkDropped(t *testing.T) {
	tr := NewTracker(Default(1024), 5)
	tr.MarkDropped()
	if tr.Met() {
		t.Fatal("dropped request cannot meet SLO")
	}
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

// Property: Tracker.Met is false iff some token exceeded its deadline.
func TestTrackerMetMatchesDeadlines(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) > 40 {
			gaps = gaps[:40]
		}
		obj := Objective{TTFT: 0.5, TPOT: 0.1}
		tr := NewTracker(obj, 0)
		now := sim.Time(0)
		anyLate := false
		for i, g := range gaps {
			now = now.Add(sim.Duration(g) / 100) // up to 2.55s gaps
			deadline := obj.Deadline(0, i)
			late := now > deadline
			ok := tr.RecordToken(now)
			if ok == late {
				return false
			}
			anyLate = anyLate || late
		}
		return tr.Met() == !anyLate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
