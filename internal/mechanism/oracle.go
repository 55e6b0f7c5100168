package mechanism

import (
	"fmt"
	"math"

	"repro/internal/randx"
)

// oracle is the batch surface of the categorical frequency oracles (grr,
// oue, sue, olh, hrr): Perturb for an input bucket index, appending to a
// reused report buffer.
type oracle interface {
	// appendReport randomizes input bucket v ∈ {0..d−1} and appends its
	// wire report to dst. Perturb is appendReport on the discretized value.
	appendReport(dst Report, v int, rng *randx.Rand) Report
}

// Collect runs one batch round of a categorical frequency oracle over
// private input bucket indices in [0, m.Buckets()): every value goes
// through the collector's own Perturb → Bucketize path into one histogram,
// and EstimateInto debiases it. The estimate is signed and unprojected —
// hierarchy constrained inference and ADMM need it unbiased. One report
// buffer and one cell buffer serve every value, so the round allocates
// nothing per value. Collect panics on a value outside the domain and on
// the sw family, which reconstructs through EM instead.
func Collect(m Mechanism, values []int, rng *randx.Rand) []float64 {
	o, ok := m.(oracle)
	if !ok {
		panic(fmt.Sprintf("mechanism: Collect needs a categorical frequency oracle, not %s", m.Name()))
	}
	d := m.Buckets()
	counts := make([]float64, m.OutputBuckets())
	var rep Report
	var cells []int
	for _, v := range values {
		if v < 0 || v >= d {
			panic(fmt.Sprintf("mechanism: %s value %d outside domain [0,%d)", m.Name(), v, d))
		}
		rep = o.appendReport(rep[:0], v, rng)
		var err error
		if cells, err = m.Bucketize(cells[:0], rep); err != nil {
			panic(fmt.Sprintf("mechanism: own report rejected: %v", err))
		}
		for _, c := range cells {
			counts[c]++
		}
	}
	return m.EstimateInto(nil, counts)
}

// Variance returns the analytic variance of one frequency estimate of the
// named mechanism at budget eps, domain size d and n users — the closed
// forms of Section 2.1 and of Wang et al. for the unary encodings. The sw
// family has no closed form (its estimator is the EM fixed point); it
// reports the variance of the oracle Auto selects at the same (ε, d) as a
// proxy, flagged approximate. Degenerate inputs (n ≤ 0, eps ≤ 0, d < 2)
// and unknown names yield +Inf, which renders an unusable interval.
func Variance(name string, eps float64, d, n int) (v float64, approximate bool) {
	swFamily := name == SW || name == SWDiscrete
	if n <= 0 || eps <= 0 || d < 2 {
		return math.Inf(1), swFamily
	}
	if swFamily {
		v, _ = Variance(Auto(eps, d), eps, d, n)
		return v, true
	}
	ee := math.Exp(eps)
	fn := float64(n)
	switch name {
	case GRR:
		return (float64(d) - 2 + ee) / ((ee - 1) * (ee - 1) * fn), false
	case OLH, OUE:
		return 4 * ee / ((ee - 1) * (ee - 1) * fn), false
	case SUE:
		half := math.Exp(eps / 2)
		return half / ((half - 1) * (half - 1) * fn), false
	case HRR:
		r := (ee + 1) / (ee - 1)
		return r * r / fn, false
	}
	return math.Inf(1), false
}

// debias writes the unbiased frequency estimate x̃_v = (C(v)/n − q)/(p − q)
// of every input value into est, from the support counts C(v) of n
// reports: p is the probability that a report supports its user's own
// value, q that it supports any other one. No reports estimate zeros.
func debias(est, support []float64, n, p, q float64) []float64 {
	if n == 0 {
		clear(est)
		return est
	}
	denom := p - q
	for v := range est {
		est[v] = (support[v]/n - q) / denom
	}
	return est
}

// grrProbs returns Generalized Randomized Response's probabilities over k
// values: the true value is reported with p = e^ε/(e^ε+k−1), each other
// value with q = 1/(e^ε+k−1).
func grrProbs(eps float64, k int) (p, q float64) {
	ee := math.Exp(eps)
	return ee / (ee + float64(k) - 1), 1 / (ee + float64(k) - 1)
}

// grrDraw is the GRR randomization over k values: keep v with probability
// p, otherwise draw uniformly from [0, k−1) and skip v.
func grrDraw(v, k int, p float64, rng *randx.Rand) int {
	if rng.Bernoulli(p) {
		return v
	}
	other := rng.IntN(k - 1)
	if other >= v {
		other++
	}
	return other
}
