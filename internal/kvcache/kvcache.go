// Package kvcache implements the KV-cache side of SLINFER's memory story:
// the per-instance demand estimator of Eq. 2 (§VII-A), the watermark-based
// early-scale-up / lazy-scale-down policy (§VII-B), and the paged-attention
// resize cost model calibrated to Figure 17.
package kvcache

import (
	"fmt"

	"slinfer/internal/model"
	"slinfer/internal/sim"
)

// Resize cost model (Figure 17): growing a paged KV cache allocates new
// blocks and copies the used pages; shrinking copies less. Fitted to the
// paper's measurements (32 GB -> 64 GB: 1.9 s; 32 GB -> 16 GB: 0.3 s).
const (
	scaleUpSecPerGB   = 0.030
	scaleDownSecPerGB = 0.018
)

// ScaleTime returns the duration of resizing a KV cache from oldBytes to
// newBytes. Zero-delta resizes are free.
func ScaleTime(oldBytes, newBytes int64) sim.Duration {
	switch {
	case newBytes > oldBytes:
		return sim.Duration(scaleUpSecPerGB * float64(newBytes) / 1e9)
	case newBytes < oldBytes:
		return sim.Duration(scaleDownSecPerGB * float64(newBytes) / 1e9)
	default:
		return 0
	}
}

// ReqState is the slice of per-request state Eq. 2 needs.
type ReqState struct {
	// InputLen is the request's prompt length (I_r).
	InputLen int
	// Generated is the number of output tokens so far (O_r).
	Generated int
}

// Estimator tracks the historical mean output length and computes Eq. 2.
type Estimator struct {
	// LminTokens is the robustness lower bound on the token budget; the
	// paper sets it to the model's maximum context length (§VII-A).
	LminTokens int

	sumOutputs   float64
	countOutputs int64
	// priorMean seeds the estimate before any completions are observed.
	priorMean float64
}

// NewEstimator returns an estimator with the given lower bound (tokens) and
// a prior mean output length used until real completions are observed.
func NewEstimator(lminTokens int, priorMean float64) *Estimator {
	if priorMean <= 0 {
		priorMean = 256
	}
	return &Estimator{LminTokens: lminTokens, priorMean: priorMean}
}

// Reset reinitializes a recycled estimator in place, equivalent to
// NewEstimator(lminTokens, priorMean).
func (e *Estimator) Reset(lminTokens int, priorMean float64) {
	if priorMean <= 0 {
		priorMean = 256
	}
	*e = Estimator{LminTokens: lminTokens, priorMean: priorMean}
}

// Observe records a completed request's output length.
func (e *Estimator) Observe(outputLen int) {
	if outputLen > 0 {
		e.sumOutputs += float64(outputLen)
		e.countOutputs++
	}
}

// MeanOutput returns the historical mean output length (the bar-O of Eq. 2).
func (e *Estimator) MeanOutput() float64 {
	if e.countOutputs == 0 {
		return e.priorMean
	}
	return e.sumOutputs / float64(e.countOutputs)
}

// RequireTokens returns the Eq.-2 token budget for the running requests:
// max(sum_r (I_r + max(O_r, meanOut)), Lmin).
func (e *Estimator) RequireTokens(reqs []ReqState) int64 {
	mean := e.MeanOutput()
	var sum int64
	for _, r := range reqs {
		o := float64(r.Generated)
		if o < mean {
			o = mean
		}
		sum += int64(r.InputLen) + int64(o+0.5)
	}
	if lmin := int64(e.LminTokens); sum < lmin {
		sum = lmin
	}
	return sum
}

// RequireBytes converts the Eq.-2 token budget into bytes for a model,
// accounting for tensor-parallel sharding on GPU nodes via perNodeDivisor
// (1 on CPUs or TP=1 models).
func (e *Estimator) RequireBytes(m model.Model, reqs []ReqState, perNodeDivisor int) int64 {
	if perNodeDivisor < 1 {
		perNodeDivisor = 1
	}
	return e.RequireTokens(reqs) * m.KVBytesPerToken() / int64(perNodeDivisor)
}

// Watermark implements §VII-B's hysteresis policy.
type Watermark struct {
	// W is the watermark fraction (paper default 0.25).
	W float64
}

// DefaultWatermark is the paper's recommended 25% setting (§IX-I5).
var DefaultWatermark = Watermark{W: 0.25}

// Recommend returns the target cache size for a requirement:
// Mrecommend = Mrequire * (1 + w).
func (w Watermark) Recommend(requireBytes int64) int64 {
	return int64(float64(requireBytes) * (1 + w.W))
}

// NeedScaleUp reports whether the current size can no longer hold the
// requirement (the early-scale-up trigger).
func (w Watermark) NeedScaleUp(requireBytes, curBytes int64) bool {
	return curBytes < requireBytes
}

// ShouldScaleDown reports whether a completed request should trigger a lazy
// scale-down: only when Mrecommend < Mcur (§VII-B). The recommendation
// already carries the (1+w) watermark, which is the entire hysteresis band:
// scale-up fires at cur < require and scale-down at cur > require*(1+w), so
// no resize can immediately trigger the opposite one.
func (w Watermark) ShouldScaleDown(requireBytes, curBytes int64) bool {
	return w.Recommend(requireBytes) < curBytes
}

// Validate rejects nonsense watermark settings.
func (w Watermark) Validate() error {
	if w.W < 0 || w.W > 4 {
		return fmt.Errorf("kvcache: watermark %.2f outside [0, 4]", w.W)
	}
	return nil
}

// Cache tracks one instance's allocated KV capacity and live usage in
// tokens. It is pure accounting: timing and safety live in memctl.
type Cache struct {
	m model.Model
	// kvb caches m.KVBytesPerToken(): the token accounting runs on every
	// iteration and copying the model struct per query showed in profiles.
	kvb int64
	// perNodeDivisor shards the per-token cost across TP nodes.
	perNodeDivisor int
	capacityBytes  int64
	usedTokens     int64
	// overReleased counts, over the cache's lifetime, the tokens released
	// past the live count (see OverReleasedTokens).
	overReleased int64
}

// NewCache returns an empty cache for the model.
func NewCache(m model.Model, perNodeDivisor int) *Cache {
	if perNodeDivisor < 1 {
		perNodeDivisor = 1
	}
	return &Cache{m: m, kvb: m.KVBytesPerToken(), perNodeDivisor: perNodeDivisor}
}

// Reset rebinds a recycled cache to a (possibly different) model with empty
// accounting, equivalent to NewCache. Instance arenas reuse Cache objects
// across runs instead of allocating one per instance.
func (c *Cache) Reset(m model.Model, perNodeDivisor int) {
	if perNodeDivisor < 1 {
		perNodeDivisor = 1
	}
	*c = Cache{m: m, kvb: m.KVBytesPerToken(), perNodeDivisor: perNodeDivisor}
}

// CapacityBytes returns the allocated capacity.
func (c *Cache) CapacityBytes() int64 { return c.capacityBytes }

// UsedBytes returns the bytes consumed by live tokens.
func (c *Cache) UsedBytes() int64 {
	return c.usedTokens * c.kvb / int64(c.perNodeDivisor)
}

// UsedTokens returns the number of live tokens.
func (c *Cache) UsedTokens() int64 { return c.usedTokens }

// OverReleasedTokens returns the lifetime count of tokens released past the
// live count. ReleaseTokens clamps usage at zero, so a nonzero count is the
// only trace of an accounting bug (a double release); the invariant suite
// reads it at its check points.
func (c *Cache) OverReleasedTokens() int64 { return c.overReleased }

// Utilization returns used/capacity in [0, 1]; zero-capacity caches report 0.
func (c *Cache) Utilization() float64 {
	if c.capacityBytes == 0 {
		return 0
	}
	u := float64(c.UsedBytes()) / float64(c.capacityBytes)
	if u > 1 {
		u = 1
	}
	return u
}

// SetCapacity records the result of a completed resize operation.
func (c *Cache) SetCapacity(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	c.capacityBytes = bytes
}

// AddTokens accounts tokens entering the cache (prefill admits InputLen at
// once; each decode iteration adds one per running request). It reports
// whether the tokens fit; callers must have scaled up first, and a false
// return is the §VII-D underestimation signal.
func (c *Cache) AddTokens(n int64) bool {
	if n < 0 {
		return false
	}
	if (c.usedTokens+n)*c.kvb/int64(c.perNodeDivisor) > c.capacityBytes {
		return false
	}
	c.usedTokens += n
	return true
}

// ReleaseTokens accounts tokens leaving the cache on request completion.
func (c *Cache) ReleaseTokens(n int64) {
	c.usedTokens -= n
	if c.usedTokens < 0 {
		c.overReleased -= c.usedTokens
		c.usedTokens = 0
	}
}

// FitsTokens reports whether n more tokens would fit in current capacity.
func (c *Cache) FitsTokens(n int64) bool {
	return (c.usedTokens+n)*c.kvb/int64(c.perNodeDivisor) <= c.capacityBytes
}
