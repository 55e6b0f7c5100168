// Package histogram provides the discretization substrate: distributions of
// values over the unit interval and statistics computed from bucketed
// probability distributions (CDF, mean, variance, quantiles, range
// probabilities).
//
// Throughout the library a "distribution" is a non-negative []float64 over d
// equal-width buckets of [0,1] that sums to 1; bucket i covers
// [i/d, (i+1)/d) with the final bucket closed on the right. Statistics treat
// probability mass as spread uniformly within each bucket, matching the
// paper's treatment of continuous domains reconstructed on a grid.
package histogram

import "repro/internal/mathx"

// Distribution bucketizes the samples (each clamped to [0,1]) into d
// buckets and normalizes the counts. No samples yield the uniform
// distribution. It panics if d < 1.
func Distribution(samples []float64, d int) []float64 {
	if d < 1 {
		panic("histogram: Distribution needs d >= 1")
	}
	out := make([]float64, d)
	for _, v := range samples {
		out[BucketOf(v, d)]++
	}
	mathx.Normalize(out)
	return out
}

// BucketOf maps v (clamped to [0,1]) to its bucket index in a d-bucket grid.
// The value 1.0 maps to the last bucket.
func BucketOf(v float64, d int) int {
	v = mathx.Clamp(v, 0, 1)
	i := int(v * float64(d))
	if i >= d {
		i = d - 1
	}
	return i
}

// BucketBounds returns the [lo, hi) interval of bucket i in a d-bucket grid.
func BucketBounds(i, d int) (lo, hi float64) {
	return float64(i) / float64(d), float64(i+1) / float64(d)
}

// BucketCenter returns the midpoint of bucket i in a d-bucket grid.
func BucketCenter(i, d int) float64 {
	return (float64(i) + 0.5) / float64(d)
}

// CDFAt evaluates the piecewise-linear CDF of distribution x at point
// v ∈ [0,1], interpolating within the bucket containing v (mass is uniform
// within a bucket).
func CDFAt(x []float64, v float64) float64 {
	d := len(x)
	if d == 0 {
		return 0
	}
	v = mathx.Clamp(v, 0, 1)
	pos := v * float64(d)
	i := int(pos)
	if i >= d {
		return 1 * sum01(x)
	}
	var acc float64
	for j := 0; j < i; j++ {
		acc += x[j]
	}
	return acc + x[i]*(pos-float64(i))
}

func sum01(x []float64) float64 { return mathx.Sum(x) }

// Mean returns the mean of the distribution x with mass uniform within each
// bucket (equivalently, evaluated at bucket centers).
func Mean(x []float64) float64 {
	d := len(x)
	var acc float64
	for i, p := range x {
		acc += p * BucketCenter(i, d)
	}
	return acc
}

// Variance returns the variance of distribution x, including the
// within-bucket uniform term w²/12 (w = bucket width), so that the variance
// of the uniform distribution over [0,1] is exactly 1/12 for any d.
func Variance(x []float64) float64 {
	d := len(x)
	mu := Mean(x)
	w := 1 / float64(d)
	var acc float64
	for i, p := range x {
		c := BucketCenter(i, d)
		acc += p * ((c-mu)*(c-mu) + w*w/12)
	}
	return acc
}

// Quantile returns the β-quantile (0 ≤ β ≤ 1) of distribution x as a point
// in [0,1], interpolating linearly within the bucket where the CDF crosses β.
func Quantile(x []float64, beta float64) float64 {
	d := len(x)
	if d == 0 {
		panic("histogram: Quantile of empty distribution")
	}
	beta = mathx.Clamp(beta, 0, 1)
	var acc float64
	for i, p := range x {
		if acc+p >= beta {
			if p <= 0 {
				return float64(i) / float64(d)
			}
			frac := (beta - acc) / p
			return (float64(i) + frac) / float64(d)
		}
		acc += p
	}
	return 1
}

// RangeProb returns the probability mass of distribution x on the interval
// [lo, hi] ⊆ [0,1] with uniform interpolation within buckets; this is the
// paper's range-query function R(x, lo, hi−lo) = P(x, hi) − P(x, lo).
func RangeProb(x []float64, lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return CDFAt(x, hi) - CDFAt(x, lo)
}

// Upsample expands distribution x to len(x)*k buckets, spreading each
// bucket's mass uniformly over its k children. This is the paper's
// "assume uniform distribution within each bin" step for CFO-with-binning.
func Upsample(x []float64, k int) []float64 {
	if k < 1 {
		panic("histogram: Upsample factor must be >= 1")
	}
	out := make([]float64, len(x)*k)
	for i, p := range x {
		share := p / float64(k)
		for j := 0; j < k; j++ {
			out[i*k+j] = share
		}
	}
	return out
}
