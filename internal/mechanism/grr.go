package mechanism

import (
	"fmt"

	"repro/internal/matrixx"
	"repro/internal/randx"
)

// grrMech is Generalized Randomized Response: report the true value with
// probability p = e^ε/(e^ε+d−1) and each other value with probability
// q = 1/(e^ε+d−1). Wire reports are the reported value index in
// {0..d−1}; the histogram is the reported-value count vector, which is the
// exact sufficient statistic of GRR.
//
// The collector reconstructs through EM/EMS like the SW family: the GRR
// transition matrix is q everywhere plus a (p−q) diagonal, so instead of
// materializing a dense d×d matrix the channel computes
// M·x = q·Σx + (p−q)·x in O(d). The batch baselines use the direct
// debiased estimate (EstimateInto) instead.
type grrMech struct {
	p     Params
	pr, q float64
	ch    *flatDiagChannel
}

func newGRR(p Params) *grrMech {
	pr, q := grrProbs(p.Epsilon, p.Buckets)
	return &grrMech{
		p:  p,
		pr: pr,
		q:  q,
		ch: &flatDiagChannel{d: p.Buckets, base: q, diag: pr - q},
	}
}

func (m *grrMech) Name() string       { return GRR }
func (m *grrMech) Epsilon() float64   { return m.p.Epsilon }
func (m *grrMech) Buckets() int       { return m.p.Buckets }
func (m *grrMech) OutputBuckets() int { return m.p.Buckets }
func (m *grrMech) Scalar() bool       { return true }
func (m *grrMech) FanOut() bool       { return false }
func (m *grrMech) Params() Params     { return m.p }

func (m *grrMech) Perturb(v float64, rng *randx.Rand) Report {
	return m.appendReport(make(Report, 0, 1), discretize(v, m.p.Buckets), rng)
}

func (m *grrMech) appendReport(dst Report, v int, rng *randx.Rand) Report {
	return append(dst, float64(grrDraw(v, m.p.Buckets, m.pr, rng)))
}

func (m *grrMech) BucketOf(report float64) (int, error) {
	return intComponent(report, m.p.Buckets, GRR, "report")
}

func (m *grrMech) Bucketize(dst []int, rep Report) ([]int, error) {
	if len(rep) != 1 {
		return dst, fmt.Errorf("mechanism: grr report wants 1 component, got %d", len(rep))
	}
	j, err := m.BucketOf(rep[0])
	if err != nil {
		return dst, err
	}
	return append(dst, j), nil
}

func (m *grrMech) Users(counts []float64, increments int) int { return increments }

func (m *grrMech) Channel() matrixx.Channel { return m.ch }

func (m *grrMech) EstimateInto(dst, counts []float64) []float64 {
	var n float64 // one cell per report: the histogram total is the user count
	for _, c := range counts {
		n += c
	}
	return debias(intoBuf(dst, m.p.Buckets), counts, n, m.pr, m.q)
}

// flatDiagChannel is the structured GRR transition matrix: a constant base
// everywhere plus a diagonal excess,
//
//	M[j][i] = base + diag·[i == j],
//
// stored as two scalars so products cost O(d) instead of O(d²) and the
// matrix never occupies d² memory (d = 4096 would be 128 MB dense). The
// matrix is symmetric, so MulVec and MulVecT coincide.
type flatDiagChannel struct {
	d    int
	base float64
	diag float64
}

func (c *flatDiagChannel) Rows() int { return c.d }
func (c *flatDiagChannel) Cols() int { return c.d }

// At exposes entries for conformance tests.
func (c *flatDiagChannel) At(j, i int) float64 {
	if j == i {
		return c.base + c.diag
	}
	return c.base
}

func (c *flatDiagChannel) mul(dst, x []float64) []float64 {
	if len(dst) != c.d || len(x) != c.d {
		panic("mechanism: flatDiagChannel dimension mismatch")
	}
	var s float64
	for _, v := range x {
		s += v
	}
	s *= c.base
	for i, v := range x {
		dst[i] = s + c.diag*v
	}
	return dst
}

func (c *flatDiagChannel) MulVec(dst, x []float64) []float64  { return c.mul(dst, x) }
func (c *flatDiagChannel) MulVecT(dst, x []float64) []float64 { return c.mul(dst, x) }
