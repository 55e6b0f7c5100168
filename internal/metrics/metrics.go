// Package metrics implements the utility metrics of Section 3 of the paper:
// distribution distances (Wasserstein-1 and Kolmogorov–Smirnov on CDFs) and
// semantic/statistical quantities (range-query error, mean, variance and
// quantile errors). All metrics operate on bucketed distributions over [0,1]
// as produced by package histogram.
package metrics

import (
	"math"

	"repro/internal/histogram"
	"repro/internal/randx"
)

// Wasserstein returns the 1-Wasserstein (earth-mover) distance between the
// distributions x and xhat over a common d-bucket grid of [0,1]:
//
//	W1 = Σ_v |P(x,v) − P(xhat,v)| · (1/d)
//
// The 1/d factor places the domain on [0,1] so magnitudes are comparable
// across granularities (and to the paper's figures). It panics on length
// mismatch.
func Wasserstein(x, xhat []float64) float64 {
	if len(x) != len(xhat) {
		panic("metrics: Wasserstein length mismatch")
	}
	d := len(x)
	if d == 0 {
		return 0
	}
	var acc, cx, cy float64
	for i := range x {
		cx += x[i]
		cy += xhat[i]
		acc += math.Abs(cx - cy)
	}
	return acc / float64(d)
}

// KS returns the Kolmogorov–Smirnov distance: the maximum absolute difference
// between the two cumulative distribution functions. It panics on length
// mismatch.
func KS(x, xhat []float64) float64 {
	if len(x) != len(xhat) {
		panic("metrics: KS length mismatch")
	}
	var maxDiff, cx, cy float64
	for i := range x {
		cx += x[i]
		cy += xhat[i]
		if d := math.Abs(cx - cy); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// MeanError returns |µ − µ̂| between the distribution means.
func MeanError(x, xhat []float64) float64 {
	return math.Abs(histogram.Mean(x) - histogram.Mean(xhat))
}

// MeanErrorVs returns |µ − µ̂| where the estimate µ̂ is a scalar (used for
// mechanisms such as SR and PM that estimate the mean directly rather than
// reconstructing a distribution).
func MeanErrorVs(x []float64, muHat float64) float64 {
	return math.Abs(histogram.Mean(x) - muHat)
}

// VarianceError returns |σ² − σ̂²| between the distribution variances.
func VarianceError(x, xhat []float64) float64 {
	return math.Abs(histogram.Variance(x) - histogram.Variance(xhat))
}

// VarianceErrorVs returns |σ² − σ̂²| with a scalar variance estimate.
func VarianceErrorVs(x []float64, varHat float64) float64 {
	return math.Abs(histogram.Variance(x) - varHat)
}

// DecileBetas is the quantile set B = {10%, 20%, ..., 90%} the paper
// evaluates.
var DecileBetas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// QuantileMAE returns the mean absolute error of the estimated quantiles over
// the probability set betas:
//
//	(1/|B|) Σ_{β∈B} |Q(x,β) − Q(xhat,β)|
//
// with quantiles expressed as points in [0,1].
func QuantileMAE(x, xhat []float64, betas []float64) float64 {
	if len(betas) == 0 {
		return 0
	}
	var acc float64
	for _, beta := range betas {
		acc += math.Abs(histogram.Quantile(x, beta) - histogram.Quantile(xhat, beta))
	}
	return acc / float64(len(betas))
}

// RangeQueryMAE returns the mean absolute error of nQueries random range
// queries of width alpha: the left endpoint i is sampled uniformly from
// [0, 1−alpha] and the error is |R(x,i,alpha) − R(xhat,i,alpha)|.
func RangeQueryMAE(x, xhat []float64, alpha float64, nQueries int, rng *randx.Rand) float64 {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: range query width must be in (0,1]")
	}
	if nQueries < 1 {
		panic("metrics: need at least one range query")
	}
	var acc float64
	for k := 0; k < nQueries; k++ {
		i := rng.Uniform(0, 1-alpha)
		truth := histogram.RangeProb(x, i, i+alpha)
		est := histogram.RangeProb(xhat, i, i+alpha)
		acc += math.Abs(truth - est)
	}
	return acc / float64(nQueries)
}
