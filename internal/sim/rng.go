package sim

import (
	"math"
	"math/rand/v2"
)

// RNG wraps a deterministic random source with the distribution helpers the
// workload generators need. Each component derives its own RNG from a name
// so that adding a consumer never perturbs another component's stream.
type RNG struct {
	r            *rand.Rand
	pcg          *rand.PCG
	seed1, seed2 uint64
}

// NewRNG returns a deterministic RNG for the given seed pair.
func NewRNG(seed1, seed2 uint64) *RNG {
	pcg := rand.NewPCG(seed1, seed2)
	return &RNG{r: rand.New(pcg), pcg: pcg, seed1: seed1, seed2: seed2}
}

// Reseed restarts the generator from a fresh seed pair in place: the stream
// is byte-identical to NewRNG(seed1, seed2) with no allocation. Reused
// simulation cores reseed their run RNG instead of constructing a new one.
func (g *RNG) Reseed(seed1, seed2 uint64) {
	g.pcg.Seed(seed1, seed2)
	g.seed1, g.seed2 = seed1, seed2
}

// Derive returns an independent RNG keyed by the parent's seed pair and a
// name. The child depends only on (seed1, seed2, name) — never on how much
// of the parent stream has been consumed — so adding, removing, or
// reordering derived consumers cannot perturb any sibling stream. Deriving
// the same name twice yields identical streams; give distinct consumers
// distinct names.
func (g *RNG) Derive(name string) *RNG {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Mix the name hash into each seed differently; distinct names yield
	// distinct seed pairs unless their 64-bit FNV-1a hashes collide, which
	// is astronomically unlikely but not impossible.
	return NewRNG(g.seed1^h, g.seed2+h*0x9e3779b97f4a7c15)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform value in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// LogNormal returns exp(N(mu, sigma)).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// Pareto returns a Pareto(xm, alpha) variate: xm / U^(1/alpha).
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm * math.Pow(u, -1/alpha)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
