// Package mathx provides small numeric helpers shared across the library:
// numerically stable summation, clamping, simplex utilities, piecewise-linear
// integration and the binomial smoothing kernel used by EMS.
//
// Everything in this package is deterministic and allocation-conscious; the
// hot paths (EM iterations, transition-matrix construction) call into these
// helpers millions of times per experiment.
package mathx

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty slices.
var ErrEmpty = errors.New("mathx: empty input")

// Sum returns the Neumaier (compensated) sum of xs. For the vector sizes used
// in this library (up to a few thousand) plain summation is usually fine, but
// EM repeatedly normalizes near-simplex vectors where compensation keeps the
// invariant Σx = 1 tight across thousands of iterations.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		sum, comp = AddCompensated(sum, comp, x)
	}
	return sum + comp
}

// AddCompensated adds x to the Neumaier sum (sum, comp), whose value is
// sum + comp: comp collects the exact rounding error of every addition,
// taken branch-free by Knuth's TwoSum.
func AddCompensated(sum, comp, x float64) (float64, float64) {
	t := sum + x
	z := t - sum
	return t, comp + ((sum - (t - z)) + (x - z))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// computed with a two-pass algorithm for stability. Returns 0 for fewer than
// one element.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	mu := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - mu
		acc += d * d
	}
	return acc / float64(n)
}

// Clamp limits x to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("mathx: Clamp with lo > hi")
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampInt limits x to the closed interval [lo, hi]. It panics if lo > hi.
func ClampInt(x, lo, hi int) int {
	if lo > hi {
		panic("mathx: ClampInt with lo > hi")
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Normalize scales xs in place so it sums to 1 and returns the original sum.
// If the sum is zero or non-finite the slice is set to uniform.
func Normalize(xs []float64) float64 {
	s := Sum(xs)
	if len(xs) == 0 {
		return s
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		u := 1 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return s
	}
	inv := 1 / s
	for i := range xs {
		xs[i] *= inv
	}
	return s
}

// IsDistribution reports whether xs is entry-wise non-negative and sums to 1
// within tol.
func IsDistribution(xs []float64, tol float64) bool {
	if len(xs) == 0 {
		return false
	}
	for _, x := range xs {
		if x < -tol || math.IsNaN(x) {
			return false
		}
	}
	return math.Abs(Sum(xs)-1) <= tol
}

// L1 returns the L1 distance between a and b. It panics on length mismatch.
func L1(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: L1 length mismatch")
	}
	var acc float64
	for i := range a {
		acc += math.Abs(a[i] - b[i])
	}
	return acc
}

// L2 returns the Euclidean distance between a and b. It panics on length
// mismatch.
func L2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: L2 length mismatch")
	}
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// MaxAbs returns the largest absolute entry of xs, or 0 for an empty slice.
func MaxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Linspace returns n points evenly spaced over [lo, hi] inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// CumSum returns the running sums of xs: out[i] = xs[0]+...+xs[i].
func CumSum(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var acc float64
	for i, x := range xs {
		acc += x
		out[i] = acc
	}
	return out
}

// SearchCDF returns the smallest index i such that cdf[i] >= p, or len(cdf)-1
// if no such index exists. cdf must be non-decreasing.
func SearchCDF(cdf []float64, p float64) int {
	lo, hi := 0, len(cdf)-1
	if hi < 0 {
		return -1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntervalOverlap returns the length of the intersection of the intervals
// [a0, a1] and [b0, b1]. Degenerate (reversed) intervals contribute 0.
func IntervalOverlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// BandRectOverlapIntegral computes
//
//	∫_{v=vlo}^{vhi} len([v-b, v+b] ∩ [ulo, uhi]) dv
//
// i.e. the area of the intersection of the diagonal band {|u-v| <= b} with
// the axis-aligned rectangle [vlo,vhi] × [ulo,uhi]. The integrand is
// piecewise linear in v with breakpoints where v±b crosses ulo or uhi, so the
// integral is computed exactly by the trapezoid rule between breakpoints.
//
// This is the core quantity for the Square Wave transition matrix: the
// probability mass the mechanism sends from an input bucket to an output
// bucket has a (p−q) term proportional to exactly this area.
func BandRectOverlapIntegral(vlo, vhi, ulo, uhi, b float64) float64 {
	if vhi <= vlo || uhi <= ulo || b <= 0 {
		return 0
	}
	// Candidate breakpoints: where the moving window edges v−b, v+b cross
	// the rectangle edges ulo, uhi.
	pts := []float64{vlo, vhi, ulo - b, ulo + b, uhi - b, uhi + b}
	// Sort the small fixed-size slice (insertion sort keeps this
	// allocation-free and branch-predictable).
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	f := func(v float64) float64 {
		return IntervalOverlap(v-b, v+b, ulo, uhi)
	}
	var area float64
	for i := 0; i+1 < len(pts); i++ {
		a0 := math.Max(pts[i], vlo)
		a1 := math.Min(pts[i+1], vhi)
		if a1 <= a0 {
			continue
		}
		// f is linear on [a0, a1]; the trapezoid rule is exact.
		area += (f(a0) + f(a1)) / 2 * (a1 - a0)
	}
	return area
}

// LogSumExp returns log(Σ exp(x_i)) computed stably. Returns -Inf for an
// empty slice.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var acc float64
	for _, x := range xs {
		acc += math.Exp(x - m)
	}
	return m + math.Log(acc)
}

// BinomialKernel returns the width-w binomial smoothing kernel, i.e. row w-1
// of Pascal's triangle normalized to sum to 1. For w = 3 this is the
// (1/4, 1/2, 1/4) kernel the EMS smoothing step uses. w must be odd and >= 1.
func BinomialKernel(w int) []float64 {
	if w < 1 || w%2 == 0 {
		panic("mathx: BinomialKernel width must be odd and >= 1")
	}
	k := make([]float64, w)
	k[0] = 1
	for row := 1; row < w; row++ {
		for i := row; i > 0; i-- {
			k[i] += k[i-1]
		}
	}
	Normalize(k)
	return k
}

// SmoothBinomial applies the (1,2,1)/4 binomial smoothing of the EMS S-step
// to xs, writing the result into dst. At the boundaries the kernel mass that
// would fall off the edge is reflected back onto the edge bin, so the
// operation preserves total mass exactly and maps the probability simplex
// into itself:
//
//	dst[0]   = (3·xs[0] + xs[1]) / 4
//	dst[i]   = (xs[i-1] + 2·xs[i] + xs[i+1]) / 4
//	dst[d-1] = (xs[d-2] + 3·xs[d-1]) / 4
//
// Vectors of length < 2 are copied unchanged.
func SmoothBinomial(dst, xs []float64) {
	d := len(xs)
	if len(dst) != d {
		panic("mathx: SmoothBinomial length mismatch")
	}
	if d < 2 {
		copy(dst, xs)
		return
	}
	first := (3*xs[0] + xs[1]) / 4
	last := (xs[d-2] + 3*xs[d-1]) / 4
	prev := xs[0]
	for i := 1; i < d-1; i++ {
		cur := xs[i]
		dst[i] = (prev + 2*cur + xs[i+1]) / 4
		prev = cur
	}
	dst[0] = first
	dst[d-1] = last
}

// SmoothBinomialK generalizes SmoothBinomial to any odd kernel width: each
// bin's mass is spread by the binomial kernel and mass that would land
// outside the domain is reflected back (destination −1 maps to 0, −2 to 1,
// and symmetrically at the top), so total mass is preserved exactly for any
// width. Width 3 reproduces SmoothBinomial.
func SmoothBinomialK(dst, xs []float64, width int) {
	d := len(xs)
	if len(dst) != d {
		panic("mathx: SmoothBinomialK length mismatch")
	}
	if d < 2 || width == 1 {
		copy(dst, xs)
		return
	}
	kernel := BinomialKernel(width)
	half := width / 2
	for i := range dst {
		dst[i] = 0
	}
	for i, x := range xs {
		if x == 0 {
			continue
		}
		for t, k := range kernel {
			j := i + t - half
			// Reflect out-of-domain destinations back inside.
			for j < 0 || j >= d {
				if j < 0 {
					j = -j - 1
				} else {
					j = 2*d - 1 - j
				}
			}
			dst[j] += k * x
		}
	}
}

// Quantile returns the p-quantile (0 <= p <= 1) of sorted xs using linear
// interpolation between order statistics. It panics if xs is empty or p is
// outside [0,1]. xs must already be sorted ascending.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("mathx: Quantile of empty slice")
	}
	if p < 0 || p > 1 {
		panic("mathx: Quantile p outside [0,1]")
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// AlmostEqual reports whether a and b differ by at most tol in absolute
// value, treating NaN as never equal.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}
