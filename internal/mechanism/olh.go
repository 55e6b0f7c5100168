package mechanism

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/hashx"
	"repro/internal/matrixx"
	"repro/internal/randx"
)

// olhMech is Optimized Local Hashing: each user hashes their value into a
// domain of size g with a freshly sampled public hash seed and applies GRR
// over the hashed domain; the variance-optimal range is g = ⌊e^ε⌋+1. A
// wire report is (seed, y): the user's hash seed and the GRR-perturbed
// hash of their value. Seeds are drawn from 53 bits so the float64 wire
// components (and JSON numbers) round-trip losslessly.
//
// Bucketize performs the support-counting half of OLH aggregation at
// ingestion time: one report increments the cell of every domain value its
// hash maps onto y (≈ d/g cells, an O(d) scan per report — the same O(n·d)
// total cost as batch OLH aggregation, paid incrementally) plus the user
// marker cell d. Reconstruction is matrix-free: the fresh per-user seed
// means there is no fixed report alphabet to build a transition matrix
// over, so the debiased support estimate of Section 2.1 applies directly.
type olhMech struct {
	p   Params
	g   int
	fam hashx.Family
	pr  float64 // GRR truth probability over the hashed domain {0..g−1}
}

// olhSeedBits bounds report seeds so they survive a float64 round-trip.
const olhSeedBits = 53

func newOLH(p Params) *olhMech {
	return newOLHWithG(p, int(math.Floor(math.Exp(p.Epsilon)))+1)
}

// newOLHWithG builds OLH over an explicit hash range g ≥ 2 (smaller values
// clamp to 2), for the g-tradeoff ablation.
func newOLHWithG(p Params, g int) *olhMech {
	g = max(g, 2)
	pr, _ := grrProbs(p.Epsilon, g)
	return &olhMech{p: p, g: g, fam: hashx.NewFamily(g), pr: pr}
}

func (m *olhMech) Name() string       { return OLH }
func (m *olhMech) Epsilon() float64   { return m.p.Epsilon }
func (m *olhMech) Buckets() int       { return m.p.Buckets }
func (m *olhMech) OutputBuckets() int { return m.p.Buckets + 1 } // + user marker
func (m *olhMech) Scalar() bool       { return false }
func (m *olhMech) FanOut() bool       { return true }
func (m *olhMech) Params() Params     { return m.p }

// G exposes the hash range for conformance tests.
func (m *olhMech) G() int { return m.g }

// P exposes the truth probability of the inner GRR for conformance tests.
func (m *olhMech) P() float64 { return m.pr }

func (m *olhMech) Perturb(v float64, rng *randx.Rand) Report {
	return m.appendReport(make(Report, 0, 2), discretize(v, m.p.Buckets), rng)
}

func (m *olhMech) appendReport(dst Report, v int, rng *randx.Rand) Report {
	seed := rng.Uint64() >> (64 - olhSeedBits)
	y := grrDraw(m.fam.Apply(seed, v), m.g, m.pr, rng)
	return append(dst, float64(seed), float64(y))
}

func (m *olhMech) BucketOf(report float64) (int, error) { return 0, errNotScalar(OLH) }

func (m *olhMech) Bucketize(dst []int, rep Report) ([]int, error) {
	if len(rep) != 2 {
		return dst, fmt.Errorf("mechanism: olh report wants 2 components (seed, y), got %d", len(rep))
	}
	s := rep[0]
	if s != math.Trunc(s) || s < 0 || s >= float64(uint64(1)<<olhSeedBits) {
		return dst, fmt.Errorf("mechanism: olh seed %v is not a %d-bit integer", s, olhSeedBits)
	}
	seed := uint64(s)
	y, err := intComponent(rep[1], m.g, OLH, "hash report")
	if err != nil {
		return dst, err
	}
	// Write every candidate and advance past the matches only: the
	// comparison becomes a conditional increment, not a branch that
	// mispredicts on a 1/g coin flip per value.
	d := m.p.Buckets
	n := len(dst)
	dst = slices.Grow(dst, d+1)[:n+d+1]
	for v := 0; v < d; v++ {
		dst[n] = v
		if m.fam.Apply(seed, v) == y {
			n++
		}
	}
	dst[n] = d
	return dst[:n+1], nil
}

func (m *olhMech) Users(counts []float64, increments int) int {
	return int(counts[m.p.Buckets] + 0.5)
}

func (m *olhMech) Channel() matrixx.Channel { return nil }

// EstimateInto debiases the support counts: a report supports its user's
// value with probability p and any other value with probability 1/g.
func (m *olhMech) EstimateInto(dst, counts []float64) []float64 {
	d := m.p.Buckets
	return debias(intoBuf(dst, d), counts, counts[d], m.pr, 1/float64(m.g))
}
