package hierarchy

import (
	"fmt"

	"repro/internal/mechanism"
	"repro/internal/randx"
)

// CollectBudgetSplit runs the alternative privacy-accounting strategy
// discussed in Section 4.2: instead of dividing the *population* among the h
// levels (each user reporting once with the full budget ε), every user
// reports their ancestor at *every* level, spending ε/h per report. By
// sequential composition the whole interaction still satisfies ε-LDP.
//
// In the centralized setting budget division wins because it avoids sampling
// error; in the local setting the noise at ε/h is so much larger (the CFO
// variance grows like 1/(e^{ε/h}−1)² per level) that population division
// dominates — the claim of [18, 33] that the ablation benchmarks reproduce.
func (h *HH) CollectBudgetSplit(values []int, rng *randx.Rand) *Estimate {
	t := h.tree
	n := len(values)
	if n == 0 {
		panic("hierarchy: CollectBudgetSplit with no users")
	}
	perLevelEps := h.eps / float64(t.Height())

	levels := t.NewLevels()
	levels[0][0] = 1
	for l := 1; l <= t.Height(); l++ {
		size := t.LevelSize(l)
		reports := make([]int, n)
		for i, v := range values {
			if v < 0 || v >= t.D() {
				panic(fmt.Sprintf("hierarchy: value %d outside domain [0,%d)", v, t.D()))
			}
			reports[i] = t.Ancestor(v, l)
		}
		levels[l] = mechanism.Collect(autoOracle(perLevelEps, size), reports, rng)
	}
	return &Estimate{Tree: t, Levels: levels}
}

// RangeMAEEstimate measures the mean absolute range-query error of an
// estimate against the true leaf distribution over a fixed grid of queries
// with the given width (in leaves). It is the comparison primitive of the
// population-vs-budget and branching-factor ablations.
func RangeMAEEstimate(e *Estimate, truth []float64, width int) float64 {
	t := e.Tree
	if len(truth) != t.D() {
		panic("hierarchy: RangeMAEEstimate dimension mismatch")
	}
	if width < 1 || width > t.D() {
		panic("hierarchy: range width out of bounds")
	}
	cum := make([]float64, t.D()+1)
	for i, p := range truth {
		cum[i+1] = cum[i] + p
	}
	var acc float64
	var count int
	step := t.D() / 32
	if step < 1 {
		step = 1
	}
	for lo := 0; lo+width <= t.D(); lo += step {
		want := cum[lo+width] - cum[lo]
		got := e.RangeCount(lo, lo+width)
		if diff := got - want; diff < 0 {
			acc -= diff
		} else {
			acc += diff
		}
		count++
	}
	return acc / float64(count)
}
