// Package postprocess implements simplex projections for noisy frequency
// estimates. LDP frequency oracles produce unbiased but noisy estimates that
// are routinely negative and do not sum to one; the paper (Section 4.1,
// following Wang et al. [35]) post-processes them with Norm-Sub so the result
// is a valid probability distribution.
package postprocess

import (
	"math"
	"sort"

	"repro/internal/mathx"
)

// NormSub projects the estimate vector onto the probability simplex using
// the Norm-Sub rule: negative entries are clipped to zero and a constant is
// subtracted from the remaining positive entries so the total becomes 1,
// repeating if the subtraction creates new negative entries. The input is
// not modified; the returned slice is fresh.
//
// Norm-Sub is exactly the Euclidean projection onto the simplex restricted
// to the support it converges to, and is the estimator of choice for CFO
// outputs in the paper.
func NormSub(est []float64) []float64 {
	d := len(est)
	out := make([]float64, d)
	copy(out, est)
	if d == 0 {
		return out
	}
	// Iteratively: find delta such that Σ max(out_i − delta, 0) = 1.
	// The classical simplex-projection algorithm solves this in one pass
	// over the sorted values; iterating the clip-and-shift rule converges
	// to the same fixed point, but the sorted form is O(d log d) and
	// deterministic, so use it directly.
	sorted := append([]float64(nil), out...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cum float64
	var delta float64
	for i, v := range sorted {
		cum += v
		d := (cum - 1) / float64(i+1)
		if v-d > 0 {
			delta = d
		}
	}
	// The first sorted element always satisfies v − (v−1)/1 = 1 > 0, so
	// delta is always set; an all-negative input projects to a point mass
	// at its largest entry.
	for i := range out {
		out[i] = math.Max(out[i]-delta, 0)
	}
	// Guard against floating-point drift.
	mathx.Normalize(out)
	return out
}

// NormSubInPlace applies the same Norm-Sub projection as NormSub — identical
// results, bit for bit — but writes the projection into est itself and uses
// scratch (which must have the same length as est) for the sorted working
// copy, so the hot oracle-refresh path allocates nothing. The scratch
// contents are destroyed.
func NormSubInPlace(est, scratch []float64) []float64 {
	d := len(est)
	if len(scratch) != d {
		panic("postprocess: NormSubInPlace scratch length mismatch")
	}
	if d == 0 {
		return est
	}
	copy(scratch, est)
	// sort.Float64s is ascending; walking it from the end reproduces the
	// descending delta scan of NormSub term for term.
	sort.Float64s(scratch)
	var cum float64
	var delta float64
	for i := 0; i < d; i++ {
		v := scratch[d-1-i]
		cum += v
		dd := (cum - 1) / float64(i+1)
		if v-dd > 0 {
			delta = dd
		}
	}
	for i := range est {
		est[i] = math.Max(est[i]-delta, 0)
	}
	mathx.Normalize(est)
	return est
}

// Norm applies the additive normalization of Wang et al. [35]: a single
// constant is added to every entry so the total becomes 1, keeping negative
// entries. The result is NOT a valid distribution, but it is the estimator
// that keeps range-query answers unbiased (errors on disjoint ranges cancel
// instead of being clipped), which is why [35] recommends it for
// range-query workloads.
func Norm(est []float64) []float64 {
	d := len(est)
	out := make([]float64, d)
	if d == 0 {
		return out
	}
	delta := (1 - mathx.Sum(est)) / float64(d)
	for i, v := range est {
		out[i] = v + delta
	}
	return out
}
