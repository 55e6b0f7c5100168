package mechanism

// Conformance suite: every mechanism — matrix-based or oracle — must
// satisfy two properties at any (ε, d):
//
//  1. Channel validity: the transition matrix connecting input buckets to
//     histogram cells is column-stochastic (every column sums to 1 — each
//     input's report lands in exactly one cell).
//  2. ε-LDP: the probability ratio of producing any report from two
//     different inputs is at most e^ε. For channel mechanisms that is the
//     per-row max/min column ratio; oracle mechanisms (whose reports fan
//     out) are checked through their analytic worst-case report ratio.
//
// The (ε, d) grid is drawn property-style from a seeded generator so the
// suite sweeps a fresh-but-reproducible corner of the parameter space on
// every run.

import (
	"math"
	"testing"

	"repro/internal/matrixx"
	"repro/internal/randx"
)

// drawCases returns a seeded random (ε, d) grid plus fixed corner cases.
func drawCases() [][2]float64 {
	rng := randx.New(0xC04F0121)
	cases := [][2]float64{
		{0.5, 16}, {1, 32}, {4, 64}, // fixed corners
	}
	for i := 0; i < 8; i++ {
		eps := 0.25 + 5*rng.Float64()
		d := float64(2 + rng.IntN(96))
		cases = append(cases, [2]float64{eps, d})
	}
	return cases
}

// column extracts column i of a channel by probing with a unit vector —
// works for dense, plateau, and structured channels alike.
func column(ch matrixx.Channel, i int, e, col []float64) []float64 {
	for j := range e {
		e[j] = 0
	}
	e[i] = 1
	ch.MulVec(col, e)
	return col
}

func TestChannelColumnsStochastic(t *testing.T) {
	for _, c := range drawCases() {
		eps, d := c[0], int(c[1])
		for _, name := range Names() {
			m := MustNew(Params{Name: name, Epsilon: eps, Buckets: d})
			ch := m.Channel()
			if ch == nil {
				continue // oracle mechanisms have no channel by design
			}
			if ch.Cols() != d || ch.Rows() != m.OutputBuckets() {
				t.Fatalf("%s(ε=%.3f,d=%d): channel is %dx%d, want %dx%d",
					name, eps, d, ch.Rows(), ch.Cols(), m.OutputBuckets(), d)
			}
			e := make([]float64, d)
			col := make([]float64, ch.Rows())
			for i := 0; i < d; i++ {
				var sum float64
				for _, v := range column(ch, i, e, col) {
					if v < 0 {
						t.Fatalf("%s(ε=%.3f,d=%d): negative entry in column %d", name, eps, d, i)
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("%s(ε=%.3f,d=%d): column %d sums to %.12f", name, eps, d, i, sum)
				}
			}
		}
	}
}

func TestChannelLDPRatioBound(t *testing.T) {
	for _, c := range drawCases() {
		eps, d := c[0], int(c[1])
		bound := math.Exp(eps) * (1 + 1e-9)
		for _, name := range Names() {
			m := MustNew(Params{Name: name, Epsilon: eps, Buckets: d})
			ch := m.Channel()
			if ch == nil {
				continue
			}
			// Row-wise max/min across columns: the channel entries are
			// per-report probabilities, so this is exactly the ε-LDP ratio.
			rows, cols := ch.Rows(), ch.Cols()
			mx := make([]float64, rows)
			mn := make([]float64, rows)
			for j := range mn {
				mn[j] = math.Inf(1)
				mx[j] = math.Inf(-1)
			}
			e := make([]float64, cols)
			col := make([]float64, rows)
			for i := 0; i < cols; i++ {
				for j, v := range column(ch, i, e, col) {
					if v > mx[j] {
						mx[j] = v
					}
					if v < mn[j] {
						mn[j] = v
					}
				}
			}
			for j := 0; j < rows; j++ {
				if mn[j] <= 0 {
					t.Fatalf("%s(ε=%.3f,d=%d): output %d has zero probability under some input", name, eps, d, j)
				}
				if ratio := mx[j] / mn[j]; ratio > bound {
					t.Fatalf("%s(ε=%.3f,d=%d): output %d has ratio %.6f > e^ε = %.6f",
						name, eps, d, j, ratio, math.Exp(eps))
				}
			}
		}
	}
}

// TestOracleLDPRatioBound checks the analytic worst-case report-probability
// ratio of the matrix-free oracles: their reports factor over independent
// components, so the worst case has a closed form that must equal e^ε.
func TestOracleLDPRatioBound(t *testing.T) {
	for _, c := range drawCases() {
		eps, d := c[0], int(c[1])
		ee := math.Exp(eps)
		check := func(name string, ratio float64) {
			t.Helper()
			if math.Abs(ratio-ee)/ee > 1e-9 {
				t.Fatalf("%s(ε=%.3f,d=%d): worst-case report ratio %.9f, want e^ε = %.9f",
					name, eps, d, ratio, ee)
			}
		}
		// Unary encodings: the ratio is maximized by a report showing v's
		// bit set and v'’s clear — (p/q)·((1−q)/(1−p)).
		for _, name := range []string{OUE, SUE} {
			u := MustNew(Params{Name: name, Epsilon: eps, Buckets: d}).(*unaryMech)
			check(name, (u.P()/u.Q())*((1-u.Q())/(1-u.P())))
		}
		// OLH: the seed is public, so the ratio reduces to the inner GRR
		// over the hash range — p/q with q = (1−p)/(g−1).
		o := MustNew(Params{Name: OLH, Epsilon: eps, Buckets: d}).(*olhMech)
		check(OLH, o.P()/((1-o.P())/float64(o.G()-1)))
		// HRR: the row index is public; the bit is binary RR — p/(1−p).
		h := MustNew(Params{Name: HRR, Epsilon: eps, Buckets: d}).(*hrrMech)
		check(HRR, h.P()/(1-h.P()))
	}
}

// TestOracleEstimatesUnbiased drives each matrix-free oracle end to end —
// Perturb, Bucketize, histogram, Estimate — over a seeded population and
// checks the raw (pre-projection) estimate tracks the true frequencies.
func TestOracleEstimatesUnbiased(t *testing.T) {
	const (
		d    = 16
		n    = 60000
		eps  = 2.0
		seed = 7
	)
	truth := make([]float64, d)
	for _, name := range []string{OUE, SUE, OLH, HRR} {
		m := MustNew(Params{Name: name, Epsilon: eps, Buckets: d})
		rng := randx.New(seed)
		counts := make([]float64, m.OutputBuckets())
		for i := range truth {
			truth[i] = 0
		}
		var cells []int
		var err error
		for i := 0; i < n; i++ {
			v := rng.Beta(2, 5) // skewed, so bias would show
			truth[discretize(v, d)]++
			cells, err = m.Bucketize(cells[:0], m.Perturb(v, rng))
			if err != nil {
				t.Fatalf("%s: own report rejected: %v", name, err)
			}
			for _, cell := range cells {
				counts[cell]++
			}
		}
		for i := range truth {
			truth[i] /= n
		}
		est := m.Estimate(counts)
		if len(est) != d {
			t.Fatalf("%s: estimate has %d buckets, want %d", name, len(est), d)
		}
		var maxErr float64
		for i := range truth {
			if e := math.Abs(est[i] - truth[i]); e > maxErr {
				maxErr = e
			}
		}
		// 60k users at ε=2 put every per-bucket std well under 1%.
		if maxErr > 0.02 {
			t.Errorf("%s: max per-bucket error %.4f > 0.02 (est %v)", name, maxErr, est)
		}
	}
}
