// Package slo implements the service-level-objective math from the paper:
// the TTFT/TPOT targets (§IX-A), the request headroom formula (Eq. 1, §VI-A)
// that drives token-level scheduling, and per-request attainment accounting
// including the cold-start grace window.
package slo

import "slinfer/internal/sim"

// Objective is a (TTFT, TPOT) service-level objective for one request.
type Objective struct {
	// TTFT is the time-to-first-token budget, measured from arrival.
	TTFT sim.Duration
	// TPOT is the time-per-output-token budget for decode tokens.
	TPOT sim.Duration
}

// DefaultTPOT is the paper's 0.25 s per-output-token SLO (~250 tokens/min
// reading speed).
const DefaultTPOT = sim.Duration(0.25)

// Default returns the paper's SLO for a request with the given input length:
// TTFT = min(max(0.5, L/512), 8) seconds, TPOT = 0.25 s.
func Default(inputLen int) Objective {
	t := float64(inputLen) / 512
	if t < 0.5 {
		t = 0.5
	}
	if t > 8 {
		t = 8
	}
	return Objective{TTFT: sim.Duration(t), TPOT: DefaultTPOT}
}

// Tight returns the stricter objectives explored in §IV-A2 (100 ms / 50 ms
// TPOT), with the same TTFT formula.
func Tight(inputLen int, tpot sim.Duration) Objective {
	o := Default(inputLen)
	o.TPOT = tpot
	return o
}

// Headroom implements Eq. 1: the maximal delay for generating the next token
// while staying within SLO. start is the request arrival time (plus any
// cold-start grace), generated the number of output tokens produced so far,
// and now the current time. Negative headroom means the SLO is already
// violated.
func (o Objective) Headroom(start sim.Time, generated int, now sim.Time) sim.Duration {
	deadline := start.Add(o.TTFT).Add(sim.Duration(generated) * o.TPOT)
	return deadline.Sub(now)
}

// Deadline returns the absolute deadline for emitting token number
// (generated+1), the moment headroom reaches zero.
func (o Objective) Deadline(start sim.Time, generated int) sim.Time {
	return start.Add(o.TTFT).Add(sim.Duration(generated) * o.TPOT)
}

// Tracker accumulates per-request attainment for one request.
// A request meets its SLO iff every output token (including the first) is
// emitted by its Eq.-1 deadline.
//
// The two flags sit side by side, in one word: a request embeds its
// tracker, and engine.Request fits its size class only at this size.
type Tracker struct {
	obj       Objective
	start     sim.Time
	grace     sim.Duration
	generated int
	violated  bool
	haveFirst bool
	firstTok  sim.Time
}

// NewTracker starts SLO accounting for a request that arrived at start.
// grace extends the TTFT budget (the paper allows a grace window equal to
// the cold-start duration for cold-started requests, §IX-A).
func NewTracker(obj Objective, start sim.Time) *Tracker {
	return &Tracker{obj: obj, start: start}
}

// MakeTracker is NewTracker by value, for embedding the tracker into a
// request object (one request, one allocation). All Tracker methods take a
// pointer receiver; keep the embedding addressable and never copy it after
// the first RecordToken.
func MakeTracker(obj Objective, start sim.Time) Tracker {
	return Tracker{obj: obj, start: start}
}

// AddGrace extends the TTFT budget by d (cold-start grace). It has no
// effect once the first token has been produced.
func (t *Tracker) AddGrace(d sim.Duration) {
	if !t.haveFirst && d > 0 {
		t.grace += d
	}
}

// ExtendGrace shifts all future deadlines by d regardless of progress. It
// covers cold-start windows a request experiences mid-stream, e.g. the
// decode-instance load in PD disaggregation (§IX-A's fairness rule applied
// to §IX-G).
func (t *Tracker) ExtendGrace(d sim.Duration) {
	if d > 0 {
		t.grace += d
	}
}

// Objective returns the request's SLO.
func (t *Tracker) Objective() Objective { return t.obj }

// Start returns the arrival time used for deadline accounting.
func (t *Tracker) Start() sim.Time { return t.start }

// Generated returns the number of output tokens recorded so far.
func (t *Tracker) Generated() int { return t.generated }

// Headroom returns Eq.-1 headroom at the given time, including grace.
func (t *Tracker) Headroom(now sim.Time) sim.Duration {
	return t.obj.Headroom(t.start.Add(t.grace), t.generated, now)
}

// NextDeadline returns the absolute deadline of the next token.
func (t *Tracker) NextDeadline() sim.Time {
	return t.obj.Deadline(t.start.Add(t.grace), t.generated)
}

// RecordToken registers the emission of one output token at the given time
// and returns whether that token met its deadline.
func (t *Tracker) RecordToken(at sim.Time) bool {
	ok := at <= t.NextDeadline()
	if !ok {
		t.violated = true
	}
	if !t.haveFirst {
		t.haveFirst = true
		t.firstTok = at
	}
	t.generated++
	return ok
}

// MarkDropped records that the request was abandoned (queue wait exceeded
// the TTFT SLO); dropped requests never meet their SLO.
func (t *Tracker) MarkDropped() { t.violated = true }

// Met reports whether the request met its SLO so far: no token missed its
// deadline and it was not dropped.
func (t *Tracker) Met() bool { return !t.violated }

// TTFT returns the observed time-to-first-token and whether a first token
// was produced at all.
func (t *Tracker) TTFT() (sim.Duration, bool) {
	if !t.haveFirst {
		return 0, false
	}
	return t.firstTok.Sub(t.start), true
}
