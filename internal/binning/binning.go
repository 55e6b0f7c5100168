// Package binning implements the CFO-with-binning baseline of Section 4.1:
// the numerical domain [0,1] is split into c consecutive bins, each user
// reports its bin through the lower-variance categorical frequency oracle
// (GRR or OLH), the aggregator post-processes the noisy bin frequencies with
// Norm-Sub, and the bin distribution is spread uniformly within each bin to
// produce an estimate at the target granularity d.
//
// Choosing c trades noise (more bins → more noise) against binning bias
// (fewer bins → coarser shape); the paper evaluates c ∈ {16, 32, 64} and
// shows no fixed choice beats SW+EMS.
package binning

import (
	"fmt"

	"repro/internal/histogram"
	"repro/internal/mechanism"
	"repro/internal/postprocess"
	"repro/internal/randx"
)

// Method is a CFO-with-binning estimator with c bins at budget eps.
type Method struct {
	c      int
	eps    float64
	oracle mechanism.Mechanism
}

// New returns the method with c bins. The frequency oracle is chosen
// adaptively (mechanism.Auto).
func New(c int, eps float64) *Method {
	if c < 2 {
		panic(fmt.Sprintf("binning: need at least 2 bins, got %d", c))
	}
	return &Method{c: c, eps: eps, oracle: mechanism.MustNew(mechanism.Params{
		Name: mechanism.AutoName, Epsilon: eps, Buckets: c,
	})}
}

// Bins returns the number of bins c.
func (m *Method) Bins() int { return m.c }

// Epsilon returns the privacy budget.
func (m *Method) Epsilon() float64 { return m.eps }

// Collect runs a full round over private values in [0,1] and returns an
// estimated distribution over d buckets (d must be a multiple of c). The
// result is a valid probability distribution.
func (m *Method) Collect(values []float64, d int, rng *randx.Rand) []float64 {
	if d%m.c != 0 {
		panic(fmt.Sprintf("binning: target granularity %d is not a multiple of %d bins", d, m.c))
	}
	bins := make([]int, len(values))
	for i, v := range values {
		bins[i] = histogram.BucketOf(v, m.c)
	}
	est := mechanism.Collect(m.oracle, bins, rng)
	dist := postprocess.NormSub(est)
	return histogram.Upsample(dist, d/m.c)
}
