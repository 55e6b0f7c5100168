// Package randx provides the deterministic random-number substrate for the
// library: a seedable source plus the samplers the LDP mechanisms and the
// synthetic dataset generators need (Bernoulli, uniform intervals, Gamma,
// Beta, lognormal, Gaussian mixtures, and alias-method discrete sampling).
//
// All randomness in the repository flows through *randx.Rand so experiments
// are reproducible from a single seed.
package randx

import (
	"math"
	randv2 "math/rand/v2"
)

// Rand is a seedable random source with the distribution samplers used
// throughout the library. It is NOT safe for concurrent use; create one per
// goroutine (see Split).
type Rand struct {
	src *randv2.Rand
}

// New returns a Rand seeded deterministically from seed.
func New(seed uint64) *Rand {
	return &Rand{src: randv2.New(randv2.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives a new independent Rand from r, keyed by id. Two Splits of
// the same Rand with different ids produce independent streams; the parent
// stream is not advanced.
func (r *Rand) Split(id uint64) *Rand {
	// Mix id through a splitmix64 round so sequential ids decorrelate.
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &Rand{src: randv2.New(randv2.NewPCG(z, z^0xdeadbeefcafebabe))}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.src.Float64() < p
}

// Normal returns a sample from N(mu, sigma^2).
func (r *Rand) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.src.NormFloat64()
}

// Exponential returns a sample from Exp(rate). It panics if rate <= 0.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: Exponential rate must be positive")
	}
	return r.src.ExpFloat64() / rate
}

// Gamma returns a sample from the Gamma distribution with shape alpha and
// scale 1, using the Marsaglia–Tsang squeeze method (with the standard
// boost for alpha < 1). It panics if alpha <= 0.
func (r *Rand) Gamma(alpha float64) float64 {
	if alpha <= 0 {
		panic("randx: Gamma shape must be positive")
	}
	if alpha < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a sample from Beta(a, b) via two Gamma draws. It panics if
// either parameter is non-positive.
func (r *Rand) Beta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		panic("randx: Beta parameters must be positive")
	}
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// LogNormal returns a sample from the lognormal distribution whose underlying
// normal has mean mu and standard deviation sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	r.src.Shuffle(n, swap)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// MixtureComponent describes one component of a 1-D mixture distribution.
type MixtureComponent struct {
	Weight float64             // non-negative; weights are normalized internally
	Sample func(*Rand) float64 // draws one value from the component
}

// Mixture samples from a weighted mixture of components. Construct with
// NewMixture.
type Mixture struct {
	components []MixtureComponent
	alias      *Alias
}

// NewMixture builds a mixture sampler from the given components. It panics
// if no component is supplied or all weights are zero.
func NewMixture(components ...MixtureComponent) *Mixture {
	if len(components) == 0 {
		panic("randx: NewMixture needs at least one component")
	}
	weights := make([]float64, len(components))
	for i, c := range components {
		if c.Weight < 0 {
			panic("randx: mixture weight must be non-negative")
		}
		weights[i] = c.Weight
	}
	return &Mixture{components: components, alias: NewAlias(weights)}
}

// Sample draws one value from the mixture.
func (m *Mixture) Sample(r *Rand) float64 {
	return m.components[m.alias.Draw(r)].Sample(r)
}

// Alias is Walker's alias method for O(1) sampling from a fixed discrete
// distribution. Construct with NewAlias.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table for the (not necessarily normalized) weight
// vector. It panics if weights is empty, contains a negative or non-finite
// entry, or sums to zero.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("randx: NewAlias with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("randx: NewAlias weight must be finite and non-negative")
		}
		total += w
	}
	if total == 0 {
		panic("randx: NewAlias weights sum to zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// N returns the number of outcomes.
func (a *Alias) N() int { return len(a.prob) }

// Draw samples one index according to the table's weights.
func (a *Alias) Draw(r *Rand) int {
	i := r.IntN(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
