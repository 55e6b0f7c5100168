// Package meanest implements the two numerical mean-estimation baselines of
// Section 2.2 — Stochastic Rounding (SR, Duchi et al.) and the Piecewise
// Mechanism (PM, Wang et al.) — plus the two-phase variance-estimation
// protocol of Section 6.3. Unlike the distribution estimators, these
// mechanisms answer only scalar queries; the paper compares them against
// SW+EMS on mean and variance accuracy (Figure 4).
//
// Both mechanisms natively operate on the centered domain [−1, 1]; the
// EstimateMean/EstimateVariance helpers translate values from the library's
// canonical [0,1] domain.
package meanest

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/randx"
)

// Mechanism is a scalar LDP mechanism over the centered domain [−1, 1]
// producing unbiased per-user reports.
type Mechanism interface {
	// Name identifies the mechanism ("SR" or "PM").
	Name() string
	// Epsilon returns the privacy budget.
	Epsilon() float64
	// PerturbCentered randomizes t ∈ [−1,1] into an unbiased report
	// (E[report] = t). The report's magnitude may exceed 1.
	PerturbCentered(t float64, rng *randx.Rand) float64
}

func checkEps(eps float64) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		panic(fmt.Sprintf("meanest: epsilon %v must be positive and finite", eps))
	}
}

func checkCentered(t float64) float64 {
	if math.IsNaN(t) {
		panic("meanest: NaN input")
	}
	return mathx.Clamp(t, -1, 1)
}

// ---------------------------------------------------------------------------
// Stochastic Rounding
// ---------------------------------------------------------------------------

// SR is Stochastic Rounding: every user reports −1 or +1, with probabilities
// linear in the private value, and the report is rescaled by 1/(p−q) to be
// unbiased.
type SR struct {
	eps  float64
	p, q float64
}

// NewSR returns the SR mechanism at budget eps.
func NewSR(eps float64) SR {
	checkEps(eps)
	ee := math.Exp(eps)
	return SR{eps: eps, p: ee / (ee + 1), q: 1 / (ee + 1)}
}

// Name implements Mechanism.
func (s SR) Name() string { return "SR" }

// Epsilon implements Mechanism.
func (s SR) Epsilon() float64 { return s.eps }

// PerturbCentered implements Mechanism: the raw output v′ ∈ {−1, +1} takes
// +1 with probability q + (p−q)(1+t)/2, and the report is v′/(p−q).
func (s SR) PerturbCentered(t float64, rng *randx.Rand) float64 {
	t = checkCentered(t)
	pPlus := s.q + (s.p-s.q)*(1+t)/2
	raw := -1.0
	if rng.Bernoulli(pPlus) {
		raw = 1.0
	}
	return raw / (s.p - s.q)
}

// ---------------------------------------------------------------------------
// Piecewise Mechanism
// ---------------------------------------------------------------------------

// PM is the Piecewise Mechanism: the output domain is [−s, s] with
// s = (e^{ε/2}+1)/(e^{ε/2}−1); a high-probability window [ℓ(t), r(t)] of
// width 2/(e^{ε/2}−1) is centered (up to the unbiasedness shift) on the
// input, receiving density e^{ε/2} times the outside density.
type PM struct {
	eps float64
	s   float64 // output half-range
	c   float64 // e^{ε/2}
}

// NewPM returns the PM mechanism at budget eps.
func NewPM(eps float64) PM {
	checkEps(eps)
	c := math.Exp(eps / 2)
	return PM{eps: eps, s: (c + 1) / (c - 1), c: c}
}

// Name implements Mechanism.
func (p PM) Name() string { return "PM" }

// Epsilon implements Mechanism.
func (p PM) Epsilon() float64 { return p.eps }

// Window returns the high-probability output window [ℓ(t), r(t)] for
// input t.
func (p PM) Window(t float64) (l, r float64) {
	t = checkCentered(t)
	l = (p.c*t - 1) / (p.c - 1)
	r = (p.c*t + 1) / (p.c - 1)
	return l, r
}

// PerturbCentered implements Mechanism. The output is already unbiased; no
// rescaling is needed.
func (p PM) PerturbCentered(t float64, rng *randx.Rand) float64 {
	t = checkCentered(t)
	l, r := p.Window(t)
	// Total mass inside the window is e^{ε/2}/(e^{ε/2}+1).
	if rng.Bernoulli(p.c / (p.c + 1)) {
		return rng.Uniform(l, r)
	}
	// Outside: uniform over [−s, ℓ) ∪ (r, s], choosing the side with
	// probability proportional to its length.
	left := l - (-p.s)
	right := p.s - r
	u := rng.Float64() * (left + right)
	if u < left {
		return -p.s + u
	}
	return r + (u - left)
}

// ---------------------------------------------------------------------------
// Scalar estimation protocols over [0,1]
// ---------------------------------------------------------------------------

// EstimateMean runs a full round of the mechanism over private values in
// [0,1] and returns the estimated mean, mapping through the centered domain
// (t = 2v − 1).
func EstimateMean(m Mechanism, values []float64, rng *randx.Rand) float64 {
	if len(values) == 0 {
		panic("meanest: EstimateMean with no users")
	}
	var acc float64
	for _, v := range values {
		acc += m.PerturbCentered(2*mathx.Clamp(v, 0, 1)-1, rng)
	}
	tMean := acc / float64(len(values))
	return (tMean + 1) / 2
}

// EstimateVariance runs the two-phase protocol of Section 6.3: a random half
// of the users spends its budget estimating the mean; the estimated mean µ̂
// is broadcast and each remaining user reports (v − µ̂)² (which lies in
// [0,1]) through the same mechanism. Returns both the phase-one mean and the
// variance estimate.
func EstimateVariance(m Mechanism, values []float64, rng *randx.Rand) (mean, variance float64) {
	n := len(values)
	if n < 2 {
		panic("meanest: EstimateVariance needs at least 2 users")
	}
	perm := rng.Perm(n)
	half := n / 2
	phase1 := make([]float64, half)
	for i := 0; i < half; i++ {
		phase1[i] = values[perm[i]]
	}
	mean = EstimateMean(m, phase1, rng)

	var acc float64
	for _, idx := range perm[half:] {
		sq := (values[idx] - mean) * (values[idx] - mean) // ∈ [0,1]
		acc += m.PerturbCentered(2*sq-1, rng)
	}
	tMean := acc / float64(n-half)
	variance = (tMean + 1) / 2
	return mean, variance
}

// WorstCaseVariance returns the variance of a single report at the
// mechanism's worst-case input. For SR the report magnitude is always
// (e^ε+1)/(e^ε−1), so Var = r² − t², maximized at t = 0. For PM the worst
// input is |t| = 1; the variance is obtained by integrating the output
// density (avoiding closed-form transcription errors). The crossover of the
// two curves is what makes SR better at small ε and PM better at large ε
// (Section 6.3).
func WorstCaseVariance(m Mechanism) float64 {
	switch mm := m.(type) {
	case SR:
		r := (math.Exp(mm.eps) + 1) / (math.Exp(mm.eps) - 1)
		return r * r
	case PM:
		return pmVarianceNumeric(mm, 1)
	default:
		panic("meanest: unknown mechanism")
	}
}

// pmVarianceNumeric integrates the PM output density to get Var[PM(t)].
func pmVarianceNumeric(p PM, t float64) float64 {
	l, r := p.Window(t)
	inDen := p.c / 2 * (p.c - 1) / (p.c + 1)
	outDen := (p.c - 1) / (p.c + 1) / (2 * p.c)
	const steps = 20000
	h := 2 * p.s / steps
	var ex, ex2 float64
	for i := 0; i < steps; i++ {
		x := -p.s + (float64(i)+0.5)*h
		den := outDen
		if x >= l && x <= r {
			den = inDen
		}
		ex += x * den * h
		ex2 += x * x * den * h
	}
	return ex2 - ex*ex
}
