package mechanism

import (
	"fmt"
	"math"

	"repro/internal/hadamard"
	"repro/internal/matrixx"
	"repro/internal/randx"
)

// hrrMech is Hadamard Randomized Response: local hashing with g = 2 where
// the hash family is the rows of a Hadamard matrix. The domain is padded to
// the next power of two N; a user samples a row index j uniformly, computes
// the ±1 entry H[j][v] and flips it with probability 1/(e^ε+1). A wire
// report is that (row, bit) pair. Bucketize folds it into the single
// histogram cell 2j + (bit+1)/2, so the (row, bit) count table — the exact
// sufficient statistic of HRR — accumulates in a fixed 2N-cell histogram
// with one increment per report.
//
// Reconstruction is matrix-free and O(N log N): per-row bit sums come
// straight out of the histogram, the spectrum estimate is debiased by
// 1/(2p−1), and the fast Walsh–Hadamard transform inverts it.
type hrrMech struct {
	p  Params
	n2 int     // padded power-of-two domain
	pr float64 // probability the true ±1 entry is kept
}

func newHRR(p Params) *hrrMech {
	ee := math.Exp(p.Epsilon)
	return &hrrMech{p: p, n2: hadamard.NextPow2(p.Buckets), pr: ee / (ee + 1)}
}

func (m *hrrMech) Name() string       { return HRR }
func (m *hrrMech) Epsilon() float64   { return m.p.Epsilon }
func (m *hrrMech) Buckets() int       { return m.p.Buckets }
func (m *hrrMech) OutputBuckets() int { return 2 * m.n2 }
func (m *hrrMech) Scalar() bool       { return false }
func (m *hrrMech) FanOut() bool       { return false }
func (m *hrrMech) Params() Params     { return m.p }

// PaddedSize exposes the power-of-two domain for conformance tests.
func (m *hrrMech) PaddedSize() int { return m.n2 }

// P exposes the keep probability for conformance tests.
func (m *hrrMech) P() float64 { return m.pr }

func (m *hrrMech) Perturb(v float64, rng *randx.Rand) Report {
	return m.appendReport(make(Report, 0, 2), discretize(v, m.p.Buckets), rng)
}

func (m *hrrMech) appendReport(dst Report, v int, rng *randx.Rand) Report {
	j := rng.IntN(m.n2)
	bit := float64(hadamard.Entry(j, v))
	if !rng.Bernoulli(m.pr) {
		bit = -bit
	}
	return append(dst, float64(j), bit)
}

func (m *hrrMech) BucketOf(report float64) (int, error) { return 0, errNotScalar(HRR) }

func (m *hrrMech) Bucketize(dst []int, rep Report) ([]int, error) {
	if len(rep) != 2 {
		return dst, fmt.Errorf("mechanism: hrr report wants 2 components (row, bit), got %d", len(rep))
	}
	j, err := intComponent(rep[0], m.n2, HRR, "row index")
	if err != nil {
		return dst, err
	}
	switch rep[1] {
	case 1:
		return append(dst, 2*j+1), nil
	case -1:
		return append(dst, 2*j), nil
	default:
		return dst, fmt.Errorf("mechanism: hrr bit %v must be ±1", rep[1])
	}
}

func (m *hrrMech) Users(counts []float64, increments int) int { return increments }

func (m *hrrMech) Channel() matrixx.Channel { return nil }

func (m *hrrMech) EstimateInto(dst, counts []float64) []float64 {
	// Per-row signed bit sums and the total report count, straight from the
	// (row, bit) table. The n2-long working spectrum fits in any dst with
	// cap ≥ len(counts) (= 2·n2).
	sums := intoBuf(dst, m.n2)
	var n float64
	for j := 0; j < m.n2; j++ {
		neg, pos := counts[2*j], counts[2*j+1]
		sums[j] = pos - neg
		n += pos + neg
	}
	if n == 0 {
		clear(sums)
		return sums[:m.p.Buckets:m.p.Buckets]
	}
	// Each row is sampled with probability 1/N and E[bit | row j, value v]
	// = (2p−1)·H[j][v], so θ̂_j = N/n · Σ bits / (2p−1) estimates the
	// spectrum θ_j = Σ_v x_v H[j][v]; the inverse WHT gives x̂ = H·θ̂ / N.
	scale := float64(m.n2) / (n * (2*m.pr - 1))
	for j := range sums {
		sums[j] *= scale
	}
	hadamard.Inverse(sums)
	return sums[:m.p.Buckets:m.p.Buckets]
}
