package mechanism

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/matrixx"
	"repro/internal/randx"
)

// unaryMech is the unary-encoding oracles: each user one-hot encodes their
// value into a d-bit vector and randomizes every bit independently. OUE
// (Optimized Unary Encoding, Wang et al. 2017) keeps the 1-bit with
// probability 1/2 and turns each 0-bit on with probability 1/(e^ε+1) —
// asymmetric probabilities that match OLH's variance with O(d)-bit reports
// instead of O(n·d) aggregation. SUE (Symmetric Unary Encoding, the
// randomization of basic one-time RAPPOR) keeps every bit with probability
// e^{ε/2}/(e^{ε/2}+1); OUE dominates it in variance.
//
// A wire report lists the indices of the set bits of the randomized d-bit
// vector, in strictly increasing order; Bucketize increments one support
// cell per set bit plus the marker cell d, so the histogram carries both
// the per-value support counts and the exact user count.
//
// Unary encodings have no per-cell transition matrix (one report
// increments many cells), so reconstruction is matrix-free: the standard
// debiased estimate x̃_v = (C(v)/n − q)/(p − q), projected onto the simplex
// by the caller (package postprocess).
type unaryMech struct {
	p    Params
	name string
	pr   float64 // probability a 1-bit stays 1
	q    float64 // probability a 0-bit flips on
}

func newUnary(p Params, symmetric bool) *unaryMech {
	if symmetric {
		half := math.Exp(p.Epsilon / 2)
		return &unaryMech{p: p, name: SUE, pr: half / (half + 1), q: 1 / (half + 1)}
	}
	return &unaryMech{p: p, name: OUE, pr: 0.5, q: 1 / (math.Exp(p.Epsilon) + 1)}
}

func (m *unaryMech) Name() string       { return m.name }
func (m *unaryMech) Epsilon() float64   { return m.p.Epsilon }
func (m *unaryMech) Buckets() int       { return m.p.Buckets }
func (m *unaryMech) OutputBuckets() int { return m.p.Buckets + 1 } // + user marker
func (m *unaryMech) Scalar() bool       { return false }
func (m *unaryMech) FanOut() bool       { return true }
func (m *unaryMech) Params() Params     { return m.p }

// P and Q expose the bit-flip probabilities for conformance tests.
func (m *unaryMech) P() float64 { return m.pr }
func (m *unaryMech) Q() float64 { return m.q }

func (m *unaryMech) Perturb(v float64, rng *randx.Rand) Report {
	return m.appendReport(make(Report, 0, 8), discretize(v, m.p.Buckets), rng)
}

// appendReport draws one Bernoulli per bit, in index order — p for v's own
// bit, q for every other — and appends the index of each set bit. Each run
// of 64 draws fills one word before its set bits are appended: the draw
// loop then sets bits with a conditional move instead of branching on
// every coin flip.
func (m *unaryMech) appendReport(dst Report, v int, rng *randx.Rand) Report {
	d := m.p.Buckets
	for base := 0; base < d; base += 64 {
		var word uint64
		for k := range min(64, d-base) {
			p := m.q
			if base+k == v {
				p = m.pr
			}
			var bit uint64
			if rng.Bernoulli(p) {
				bit = 1
			}
			word |= bit << k
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, float64(base+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

func (m *unaryMech) BucketOf(report float64) (int, error) { return 0, errNotScalar(m.name) }

func (m *unaryMech) Bucketize(dst []int, rep Report) ([]int, error) {
	prev := -1
	for _, c := range rep {
		i, err := intComponent(c, m.p.Buckets, m.name, "set-bit index")
		if err != nil {
			return dst, err
		}
		if i <= prev {
			return dst, fmt.Errorf("mechanism: %s set-bit indices must be strictly increasing", m.name)
		}
		prev = i
		dst = append(dst, i)
	}
	// The marker cell counts users exactly once per report, even when no
	// bit survived randomization.
	return append(dst, m.p.Buckets), nil
}

func (m *unaryMech) Users(counts []float64, increments int) int {
	return int(counts[m.p.Buckets] + 0.5)
}

func (m *unaryMech) Channel() matrixx.Channel { return nil }

func (m *unaryMech) EstimateInto(dst, counts []float64) []float64 {
	d := m.p.Buckets
	return debias(intoBuf(dst, d), counts, counts[d], m.pr, m.q)
}
