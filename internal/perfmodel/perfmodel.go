// Package perfmodel implements SLINFER's performance quantification (§VI-B):
// per-(hardware, model) profiles built from a small 2^k sampling grid, with
// linear interpolation for prefill time over input length and bilinear
// interpolation for decode time over (batch size, average token length).
//
// The profiler samples the hwsim ground truth the way the paper's profiler
// samples real hardware: O(log Lmax x log Bmax) measurements, a few hundred
// points. Schedulers then query estimates — never the ground truth — so any
// interpolation error propagates into scheduling exactly as it would in the
// real system.
package perfmodel

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
)

// Profile holds sampled latency grids for one (device class, model, share)
// combination and answers interpolated estimates.
type Profile struct {
	Class hwsim.DeviceClass
	Model model.Model
	Share float64

	lenSamples   []int // ascending, powers of two
	batchSamples []int // ascending, powers of two
	ttft         []sim.Duration
	tpot         [][]sim.Duration // [batchIdx][lenIdx]
}

// minLenSample is the smallest profiled input length. Queries below are
// clamped; the constant overhead term dominates there anyway.
const minLenSample = 64

// NewProfile samples the ground-truth model on 2^k grids up to the model's
// max context length and maxBatch, mirroring §VI-B.
func NewProfile(class hwsim.DeviceClass, m model.Model, share float64, maxBatch int) *Profile {
	if maxBatch < 1 {
		maxBatch = 1
	}
	p := &Profile{Class: class, Model: m, Share: share}
	for l := minLenSample; l/2 < m.MaxContext; l *= 2 {
		if l > m.MaxContext {
			l = m.MaxContext
		}
		p.lenSamples = append(p.lenSamples, l)
		if l == m.MaxContext {
			break
		}
	}
	for b := 1; b/2 < maxBatch; b *= 2 {
		if b > maxBatch {
			b = maxBatch
		}
		p.batchSamples = append(p.batchSamples, b)
		if b == maxBatch {
			break
		}
	}
	p.ttft = make([]sim.Duration, len(p.lenSamples))
	for i, l := range p.lenSamples {
		p.ttft[i] = class.PrefillTime(m, l, share)
	}
	p.tpot = make([][]sim.Duration, len(p.batchSamples))
	for bi, b := range p.batchSamples {
		row := make([]sim.Duration, len(p.lenSamples))
		for li, l := range p.lenSamples {
			row[li] = class.DecodeTime(m, b, b*l, share)
		}
		p.tpot[bi] = row
	}
	return p
}

// SampleCount returns the number of ground-truth measurements taken,
// O(log Lmax * log Bmax) per §VI-B.
func (p *Profile) SampleCount() int {
	return len(p.lenSamples) + len(p.lenSamples)*len(p.batchSamples)
}

// EstimatePrefill returns the interpolated prefill (TTFT) time for an input
// of length tokens.
func (p *Profile) EstimatePrefill(length int) sim.Duration {
	if length < minLenSample {
		length = minLenSample
	}
	return interp1(p.lenSamples, p.ttft, length)
}

// EstimateDecode returns the interpolated duration of one decode iteration
// for the given batch size and average per-sequence token length.
func (p *Profile) EstimateDecode(batch, avgLen int) sim.Duration {
	batch, avgLen = clampDecode(batch, avgLen)
	bi0, bi1, bw := bracket(p.batchSamples, batch)
	li0, li1, lw := bracket(p.lenSamples, avgLen)
	return p.bilinear(bi0, bi1, bw, li0, li1, lw)
}

// MaxDecode returns the largest EstimateDecode(batch, a) over the lengths
// lo <= a <= hi, taken at lo, at hi and at every length sample between
// them. At a fixed batch the estimate is linear in the length between
// samples (and beyond the last), so these points hold its maximum without
// assuming it grows with the length, up to the rounding of interpolation.
func (p *Profile) MaxDecode(batch, lo, hi int) sim.Duration {
	m := max(p.EstimateDecode(batch, lo), p.EstimateDecode(batch, hi))
	for _, l := range p.lenSamples {
		if l > lo && l < hi {
			m = max(m, p.EstimateDecode(batch, l))
		}
	}
	return m
}

// clampDecode raises a decode query onto the grid's floor.
func clampDecode(batch, avgLen int) (int, int) {
	if batch < 1 {
		batch = 1
	}
	if avgLen < minLenSample {
		avgLen = minLenSample
	}
	return batch, avgLen
}

// bilinear interpolates along length within the two bracketing batch rows,
// then along batch. Both rows share the length bracket.
func (p *Profile) bilinear(bi0, bi1 int, bw float64, li0, li1 int, lw float64) sim.Duration {
	v0 := lerp(p.tpot[bi0], li0, li1, lw)
	if bi0 == bi1 {
		return v0
	}
	v1 := lerp(p.tpot[bi1], li0, li1, lw)
	return v0 + sim.Duration(bw)*(v1-v0)
}

// DecodeCursor remembers the brackets of a profile's last decode query, so
// a caller whose queries move slowly — a decode batch whose average length
// grows by about one token per round, and whose size changes only when a
// request joins or leaves — skips the bracket search. Its zero value is
// ready to use, with any profile.
type DecodeCursor struct {
	p *Profile
	// batch is the (clamped) batch size bi0, bi1 and bw were found for.
	batch    int
	bi0, bi1 int
	bw       float64
	// [lo, hi] is the range of (clamped) lengths for which bracket over
	// p.lenSamples returns the index pair (li0, li1).
	lo, hi   int
	li0, li1 int
}

// EstimateDecodeAt is EstimateDecode through cur. It keeps cur's batch
// bracket while the batch size holds and its length bracket while avgLen
// stays in the range that bracket maps to the same index pair, recomputes
// the length weight with bracket's own expression, and interpolates with
// the same code, so every result is bit-identical to EstimateDecode's.
func (p *Profile) EstimateDecodeAt(cur *DecodeCursor, batch, avgLen int) sim.Duration {
	batch, avgLen = clampDecode(batch, avgLen)
	if cur.p != p {
		*cur = DecodeCursor{p: p, batch: -1, lo: 1, hi: 0}
	}
	if batch != cur.batch {
		cur.bi0, cur.bi1, cur.bw = bracket(p.batchSamples, batch)
		cur.batch = batch
	}
	if avgLen < cur.lo || avgLen > cur.hi {
		cur.li0, cur.li1, cur.lo, cur.hi = bracketRange(p.lenSamples, avgLen)
	}
	var lw float64
	if cur.li0 != cur.li1 {
		xs := p.lenSamples
		lw = float64(avgLen-xs[cur.li0]) / float64(xs[cur.li1]-xs[cur.li0])
	}
	return p.bilinear(cur.bi0, cur.bi1, cur.bw, cur.li0, cur.li1, lw)
}

// bracketRange returns bracket's index pair for x over strictly ascending
// xs, plus the widest range [lo, hi] around x on which bracket returns that
// same pair. Per bracket branch:
//
//   - single sample, or below the grid (x <= xs[0]): (0, 0), on
//     [MinInt, xs[0]], or every int for a single sample;
//   - an exact interior sample xs[j] (0 < j < n-1): (j, j), on [xs[j], xs[j]];
//   - interior, xs[j-1] < x < xs[j]: (j-1, j), on [xs[j-1]+1, xs[j]-1];
//   - extrapolation above the grid (x >= xs[n-1]): (n-2, n-1), on
//     [xs[n-1], MaxInt]; the last sample itself takes this branch, with
//     weight 1.
func bracketRange(xs []int, x int) (i0, i1, lo, hi int) {
	n := len(xs)
	i0, i1, _ = bracket(xs, x)
	switch {
	case n == 1:
		return 0, 0, math.MinInt, math.MaxInt
	case i1 == 0:
		return 0, 0, math.MinInt, xs[0]
	case i1 == n-1 && x >= xs[n-1]:
		return i0, i1, xs[n-1], math.MaxInt
	case i0 == i1:
		return i0, i1, xs[i0], xs[i0]
	default:
		return i0, i1, xs[i0] + 1, xs[i1] - 1
	}
}

// interp1 linearly interpolates ys over xs at x, extrapolating beyond the
// grid using the nearest segment's slope.
func interp1(xs []int, ys []sim.Duration, x int) sim.Duration {
	i0, i1, w := bracket(xs, x)
	return lerp(ys, i0, i1, w)
}

// lerp interpolates ys between indices i0 and i1 at weight w.
func lerp(ys []sim.Duration, i0, i1 int, w float64) sim.Duration {
	if i0 == i1 {
		return ys[i0]
	}
	return ys[i0] + sim.Duration(w)*(ys[i1]-ys[i0])
}

// bracket returns the two indices surrounding x in ascending xs and the
// interpolation weight in [0, 1] (or beyond 1 for extrapolation above the
// grid). When x is below the grid it clamps to the first sample.
//
// NewProfile's grids are 2^k multiples of their first sample, with only the
// last sample clamped, so the first sample >= x sits at index
// bits.Len((x-1)/xs[0]) — found in O(1) instead of by binary search. The
// guess is verified against its neighbours and falls back to
// sort.SearchInts on any other grid, so the answer is always the binary
// search's.
func bracket(xs []int, x int) (i0, i1 int, w float64) {
	n := len(xs)
	if n == 1 || x <= xs[0] {
		return 0, 0, 0
	}
	if x >= xs[n-1] {
		// Extrapolate from the last segment.
		i0, i1 = n-2, n-1
		w = float64(x-xs[i0]) / float64(xs[i1]-xs[i0])
		return i0, i1, w
	}
	j := bits.Len(uint((x - 1) / xs[0]))
	if j >= n || xs[j] < x || xs[j-1] >= x {
		j = sort.SearchInts(xs, x)
	}
	if xs[j] == x {
		return j, j, 0
	}
	i0, i1 = j-1, j
	w = float64(x-xs[i0]) / float64(xs[i1]-xs[i0])
	return i0, i1, w
}

// CanMeet reports whether this profile can serve a request of the given
// input length within its SLO at all: the estimated prefill must fit the
// TTFT budget and a 1-batch decode iteration must fit the TPOT budget.
// SLINFER uses this to exclude unsuitable CPUs and fall back to GPUs (§V).
func (p *Profile) CanMeet(inputLen int, obj slo.Objective) bool {
	if !p.Class.HasMatrixAccel() {
		return false
	}
	if p.EstimatePrefill(inputLen) > obj.TTFT {
		return false
	}
	return p.EstimateDecode(1, inputLen) <= obj.TPOT
}

// profileKey identifies a cached profile. A comparable struct, not a
// formatted string: Get sits on the instance-creation path and the
// Sprintf-rendered key showed up in run profiles.
type profileKey struct {
	class hwsim.DeviceClass
	name  string
	share float64
}

// MaxBatch is the batch-size ceiling (the paper's Bmax ~256): registry
// profiles cover batches up to it, and no instance's load may exceed it.
const MaxBatch = 256

// Registry caches profiles per (class, model, share). It is safe for
// concurrent use. Each controller owns one and keeps it across runs, as
// SLINFER profiles each hardware type once (§VI-B).
type Registry struct {
	mu       sync.Mutex
	profiles map[profileKey]*Profile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{profiles: make(map[profileKey]*Profile)}
}

// Get returns (building on first use) the profile for the combination. The
// cache is keyed by model name, and model.Model is fully comparable, so a
// cached profile whose Model no longer equals m — a registry shared across
// runs that rebind a name to different dimensions — is rebuilt rather than
// served stale.
func (r *Registry) Get(class hwsim.DeviceClass, m model.Model, share float64) *Profile {
	key := profileKey{class: class, name: m.Name, share: share}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.profiles[key]; ok && p.Model == m {
		return p
	}
	p := NewProfile(class, m, share, MaxBatch)
	r.profiles[key] = p
	return p
}

// Size returns the number of cached profiles.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.profiles)
}
