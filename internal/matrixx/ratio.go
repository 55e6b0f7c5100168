package matrixx

import "math"

// DenomFloor is the clamp the EM E-step applies to the per-row denominator
// (M·x)_j before dividing and taking its log, shared between the fused
// kernels here and the unfused fallback in package em so the two can never
// diverge.
const DenomFloor = 1e-300

// RatioChannel is a Channel that can fuse the EM E-step into its forward
// product: one sweep over the matrix computes denom = M·x, the clamped
// counts/denom ratio, and the per-row log-likelihood term, instead of a
// product pass followed by a separate pass over the result. The fused form
// halves the traffic over the denominator vector and — because ll is
// reported per ROW, with the caller summing the terms serially — stays
// bit-identical to the unfused serial E-step under any row partition.
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

// MulVecRatio implements RatioChannel.
func (m *Matrix) MulVecRatio(ratio, ll, x, counts []float64) {
	m.MulVecRatioRows(ratio, ll, x, counts, 0, m.rows)
}

// MulVecRatioRows computes the [lo, hi) rows of the fused E-step, leaving
// the rest of ratio and ll untouched. Every output element is produced from
// a denominator accumulated in serial order (see MulVecRows), so a row
// partition across goroutines is bit-identical to the serial fused pass.
func (m *Matrix) MulVecRatioRows(ratio, ll, x, counts []float64, lo, hi int) {
	if len(x) != m.cols || len(ratio) != m.rows || len(ll) != m.rows ||
		len(counts) != m.rows || lo < 0 || hi > m.rows || lo > hi {
		panic("matrixx: MulVecRatioRows dimension mismatch")
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0, d1, d2, d3 := m.dot4(x, i)
		ratioRow(ratio, ll, counts, i, d0)
		ratioRow(ratio, ll, counts, i+1, d1)
		ratioRow(ratio, ll, counts, i+2, d2)
		ratioRow(ratio, ll, counts, i+3, d3)
	}
	for ; i < hi; i++ {
		ratioRow(ratio, ll, counts, i, dotRow(m.Row(i), x))
	}
}
