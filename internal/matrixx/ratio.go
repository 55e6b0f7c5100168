package matrixx

import "math"

// DenomFloor is the clamp the EM E-step applies to the per-row denominator
// (M·x)_j before dividing and taking its log.
const DenomFloor = 1e-300

// EStep runs the EM E-step on any channel: it computes denom = M·x into
// ratio with c's MulVec, then finishes every row j:
//
//	ratio[j] = counts[j] / max(denom_j, DenomFloor)    (0 when counts[j] == 0)
//	ll[j]    = counts[j] · ln(max(denom_j, DenomFloor)) (0 when counts[j] == 0)
//
// and returns the log-likelihood Σ_j ll[j], summed in increasing row order.
// With ll nil it takes no logarithm — the logs are most of the finish — and
// returns 0. len(ratio) = len(counts) = Rows, as is len(ll) when ll is set,
// and len(x) = Cols; counts must be non-negative.
func EStep(c Channel, ratio, ll, x, counts []float64) float64 {
	if len(counts) != len(ratio) || ll != nil && len(ll) != len(ratio) {
		panic("matrixx: EStep dimension mismatch")
	}
	c.MulVec(ratio, x)
	if ll == nil {
		divide(ratio, counts)
		return 0
	}
	copy(ll, ratio)
	divide(ratio, counts)
	return logTerms(ll, counts)
}

// divide turns each row's denominator in ratio into its ratio.
func divide(ratio, counts []float64) {
	counts = counts[:len(ratio)]
	for j, den := range ratio {
		c := counts[j]
		if c == 0 {
			ratio[j] = 0
			continue
		}
		if den < DenomFloor {
			den = DenomFloor
		}
		ratio[j] = c / den
	}
}

// logTerms turns each row's denominator in ll into its log-likelihood term
// and returns their sum. A row without reports adds nothing: its +0 term
// cannot change a bit of a sum whose partial sums are never −0. logTerms is
// a loop of its own so that divide stays free of calls: a call to the
// non-inlined math.Log makes the compiler spill the enclosing loop's counter
// to the stack.
func logTerms(ll, counts []float64) float64 {
	counts = counts[:len(ll)]
	var sum float64
	for j, den := range ll {
		c := counts[j]
		if c == 0 {
			ll[j] = 0
			continue
		}
		if den < DenomFloor {
			den = DenomFloor
		}
		ll[j] = c * math.Log(den)
		sum += ll[j]
	}
	return sum
}
