// Package slo implements the service-level-objective math from the paper:
// the TTFT/TPOT targets (§IX-A) and the request headroom formula (Eq. 1,
// §VI-A) that drives token-level scheduling. Each request applies it to its own
// arrival, token count and cold-start grace (engine.Request).
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
