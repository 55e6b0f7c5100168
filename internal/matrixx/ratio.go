package matrixx

import "math"

// DenomFloor is the clamp the EM E-step applies to the per-row denominator
// (M·x)_j before dividing and taking its log, shared by every fused kernel
// and EStep's unfused path so they can never diverge.
const DenomFloor = 1e-300

// RatioChannel is a Channel that can fuse the EM E-step into its forward
// product: one sweep over the matrix computes denom = M·x, the clamped
// counts/denom ratio, and the per-row log-likelihood term, instead of a
// product pass followed by a separate pass over the result. The fused form
// halves the traffic over the denominator vector and — because ll is
// reported per ROW, with the caller summing the terms serially — stays
// bit-identical to the unfused serial E-step.
type RatioChannel interface {
	Channel
	// MulVecRatio computes, for every output row j:
	//
	//	denom_j  = (M·x)_j, accumulated exactly as MulVec accumulates it
	//	ratio[j] = counts[j] / max(denom_j, DenomFloor)   (0 when counts[j] == 0)
	//	ll[j]    = counts[j] · ln(max(denom_j, DenomFloor)) (0 when counts[j] == 0)
	//
	// len(ratio) = len(ll) = len(counts) = Rows, len(x) = Cols. counts must
	// be non-negative. Summing ll serially in increasing row order
	// reproduces the unfused log-likelihood accumulation bit for bit: the
	// skipped rows contribute an explicit +0.0, and no term or partial sum
	// of this form can be -0.0, so the added zeros do not change a single
	// bit of the total.
	MulVecRatio(ratio, ll, x, counts []float64)
}

// ratioRow finishes one fused E-step row from its accumulated denominator.
func ratioRow(ratio, ll, counts []float64, j int, denom float64) {
	c := counts[j]
	if c == 0 {
		ratio[j] = 0
		ll[j] = 0
		return
	}
	if denom < DenomFloor {
		denom = DenomFloor
	}
	ratio[j] = c / denom
	ll[j] = c * math.Log(denom)
}

// EStep runs the EM E-step on any channel: it fills ratio and ll as
// RatioChannel.MulVecRatio defines them and returns the log-likelihood
// Σ_j ll[j], summed in increasing row order. It runs c's fused kernel when
// c has one; otherwise it computes M·x into ratio with MulVec and finishes
// each row with the fused kernels' own ratioRow, which yields the same
// bits.
func EStep(c Channel, ratio, ll, x, counts []float64) float64 {
	if f, ok := c.(RatioChannel); ok {
		f.MulVecRatio(ratio, ll, x, counts)
	} else {
		if len(ll) != len(ratio) || len(counts) != len(ratio) {
			panic("matrixx: EStep dimension mismatch")
		}
		c.MulVec(ratio, x)
		for j, denom := range ratio {
			ratioRow(ratio, ll, counts, j, denom)
		}
	}
	var sum float64
	for _, t := range ll {
		sum += t
	}
	return sum
}

// MulVecRatio implements RatioChannel. Every denominator is accumulated as
// MulVec accumulates it, four rows at a time.
func (m *Matrix) MulVecRatio(ratio, ll, x, counts []float64) {
	if len(x) != m.cols || len(ratio) != m.rows || len(ll) != m.rows || len(counts) != m.rows {
		panic("matrixx: MulVecRatio dimension mismatch")
	}
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		d0, d1, d2, d3 := m.dot4(x, i)
		ratioRow(ratio, ll, counts, i, d0)
		ratioRow(ratio, ll, counts, i+1, d1)
		ratioRow(ratio, ll, counts, i+2, d2)
		ratioRow(ratio, ll, counts, i+3, d3)
	}
	for ; i < m.rows; i++ {
		ratioRow(ratio, ll, counts, i, dotRow(m.Row(i), x))
	}
}
