package mechanism

// Statistical contract of the categorical frequency oracles (grr, oue, sue,
// olh, hrr), one table row per oracle: their probabilities, the batch
// Collect path's unbiasedness and empirical variance against the analytic
// Variance, the Section 4.1 selection rule, and input validation.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/mathx"
	"repro/internal/randx"
)

// oracleNames are the mechanisms Collect and Variance cover exactly.
var oracleNames = []string{GRR, OUE, SUE, OLH, HRR}

// genValues builds n private values over domain d with a skewed
// distribution (value i has weight i+1), returning the values and the true
// frequencies.
func genValues(n, d int, rng *randx.Rand) ([]int, []float64) {
	weights := make([]float64, d)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	alias := randx.NewAlias(weights)
	values := make([]int, n)
	truth := make([]float64, d)
	for i := range values {
		v := alias.Draw(rng)
		values[i] = v
		truth[v]++
	}
	for i := range truth {
		truth[i] /= float64(n)
	}
	return values, truth
}

func mustVariance(t *testing.T, m Mechanism, n int) float64 {
	t.Helper()
	v, approx := Variance(m.Name(), m.Epsilon(), m.Buckets(), n)
	if approx || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("%s: Variance = (%v, %v)", m.Name(), v, approx)
	}
	return v
}

func TestOracleProbabilities(t *testing.T) {
	almost := func(t *testing.T, what string, got, want float64) {
		t.Helper()
		if !mathx.AlmostEqual(got, want, 1e-12) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	rows := []struct {
		name  string
		eps   float64
		d     int
		check func(t *testing.T, m Mechanism)
	}{
		{GRR, math.Log(3), 4, func(t *testing.T, m Mechanism) {
			g := m.(*grrMech) // e^ε = 3 → p = 3/6, q = 1/6
			almost(t, "p", g.pr, 0.5)
			almost(t, "q", g.q, 1.0/6)
			almost(t, "p + (d−1)q", g.pr+3*g.q, 1)
		}},
		{OUE, 1, 16, func(t *testing.T, m Mechanism) {
			u := m.(*unaryMech)
			almost(t, "p", u.P(), 0.5)
			almost(t, "q", u.Q(), 1/(math.E+1))
		}},
		{SUE, 2, 8, func(t *testing.T, m Mechanism) {
			u := m.(*unaryMech) // e^{ε/2} = e
			almost(t, "p", u.P(), math.E/(math.E+1))
			almost(t, "p + q", u.P()+u.Q(), 1)
		}},
		{OLH, 1, 1024, func(t *testing.T, m Mechanism) {
			if g := m.(*olhMech).G(); g != int(math.Floor(math.E))+1 {
				t.Errorf("g = %d, want ⌊e^ε⌋+1 = %d", g, int(math.Floor(math.E))+1)
			}
			if g := newOLHWithG(Params{Name: OLH, Epsilon: 1, Buckets: 16}, 1).G(); g != 2 {
				t.Errorf("g below the minimum clamped to %d, want 2", g)
			}
		}},
		{HRR, 1, 60, func(t *testing.T, m Mechanism) {
			h := m.(*hrrMech)
			if h.PaddedSize() != 64 || m.OutputBuckets() != 128 {
				t.Errorf("padded size %d, output buckets %d; want 64, 128", h.PaddedSize(), m.OutputBuckets())
			}
			almost(t, "p", h.P(), math.E/(math.E+1))
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			m := MustNew(Params{Name: r.name, Epsilon: r.eps, Buckets: r.d})
			if m.Name() != r.name || m.Buckets() != r.d || m.Epsilon() != r.eps {
				t.Fatalf("metadata: %s d=%d ε=%v", m.Name(), m.Buckets(), m.Epsilon())
			}
			r.check(t, m)
		})
	}
}

// TestUnaryBitFrequencies perturbs one value 200,000 times and requires
// every bit of the unary report to be set at its analytic rate.
func TestUnaryBitFrequencies(t *testing.T) {
	const n, d, v = 200000, 8, 3
	for _, r := range []struct {
		name string
		eps  float64
	}{{OUE, 1}, {SUE, 2}} {
		t.Run(r.name, func(t *testing.T) {
			u := MustNew(Params{Name: r.name, Epsilon: r.eps, Buckets: d}).(*unaryMech)
			rng := randx.New(1)
			ones := make([]float64, d)
			for i := 0; i < n; i++ {
				for _, c := range u.Perturb(histogram.BucketCenter(v, d), rng) {
					ones[int(c)]++
				}
			}
			for i, c := range ones {
				want := u.Q()
				if i == v {
					want = u.P()
				}
				if got := c / n; math.Abs(got-want) > 0.005 {
					t.Errorf("bit %d set with frequency %v, want %v", i, got, want)
				}
			}
		})
	}
}

// checkEstimate requires one estimate per true frequency, a total within
// sumTol of 1, and every estimate within tol of the truth.
func checkEstimate(t *testing.T, est, truth []float64, sumTol, tol float64) {
	t.Helper()
	if len(est) != len(truth) {
		t.Fatalf("estimate length %d, want %d", len(est), len(truth))
	}
	if s := mathx.Sum(est); math.Abs(s-1) > sumTol {
		t.Errorf("estimates sum to %v", s)
	}
	for v := range truth {
		if math.Abs(est[v]-truth[v]) > tol {
			t.Errorf("estimate[%d] = %v, truth %v (tol %v)", v, est[v], truth[v], tol)
		}
	}
}

// TestCollectUnbiased runs every oracle's batch round over a skewed
// population and requires each frequency estimate within a few standard
// deviations of the truth.
func TestCollectUnbiased(t *testing.T) {
	rows := []struct {
		name   string
		n, d   int
		eps    float64
		sigmas float64
		sumTol float64
		seed   uint64
	}{
		{GRR, 200000, 8, 1, 4, 0.05, 2},
		{OUE, 100000, 32, 1, 5, 0.2, 2},
		{SUE, 100000, 16, 1, 5, 0.2, 1},
		{OLH, 100000, 64, 2, 5, 0.2, 5},
		{HRR, 200000, 60, 1, 5, 0.2, 7}, // non-power-of-two: padding
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rng := randx.New(r.seed)
			values, truth := genValues(r.n, r.d, rng)
			m := MustNew(Params{Name: r.name, Epsilon: r.eps, Buckets: r.d})
			est := Collect(m, values, rng)
			checkEstimate(t, est, truth, r.sumTol, r.sigmas*math.Sqrt(mustVariance(t, m, r.n)))
		})
	}
}

// TestOracleConformance runs every oracle through one contract at a shared
// shape (d = 16, ε = 1, 40,000 users): the metadata it was built with, and
// a batch estimate of the right length with a near-unit total and every
// value within 6σ of the analytic Variance.
func TestOracleConformance(t *testing.T) {
	const d, eps, n = 16, 1.0, 40000
	rng := randx.New(77)
	values, truth := genValues(n, d, rng)
	for _, name := range oracleNames {
		t.Run(name, func(t *testing.T) {
			m := MustNew(Params{Name: name, Epsilon: eps, Buckets: d})
			if m.Name() != name || m.Buckets() != d || m.Epsilon() != eps {
				t.Fatalf("metadata: %s d=%d ε=%v", m.Name(), m.Buckets(), m.Epsilon())
			}
			est := Collect(m, values, rng.Split(uint64(len(name))))
			checkEstimate(t, est, truth, 0.2, 6*math.Sqrt(mustVariance(t, m, n)))
		})
	}
}

// TestOracleVarianceEmpirical repeats a batch round in which every user
// holds value 0 and requires the empirical variance of one non-held
// value's estimate to match the analytic Variance.
func TestOracleVarianceEmpirical(t *testing.T) {
	rows := []struct {
		name         string
		d, n, trials int
		probe        int
		lo, hi       float64
		seed         uint64
	}{
		{GRR, 16, 5000, 300, 3, 0.7, 1.4, 4},
		{OUE, 32, 2000, 200, 7, 0.6, 1.5, 4},
		{SUE, 16, 2000, 200, 5, 0.6, 1.5, 2},
		{OLH, 64, 2000, 200, 10, 0.6, 1.5, 6},
		{HRR, 32, 2000, 200, 5, 0.6, 1.5, 8},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			m := MustNew(Params{Name: r.name, Epsilon: 1, Buckets: r.d})
			rng := randx.New(r.seed)
			values := make([]int, r.n)
			ests := make([]float64, r.trials)
			for i := range ests {
				ests[i] = Collect(m, values, rng)[r.probe]
			}
			want := mustVariance(t, m, r.n)
			if got := mathx.Variance(ests); got < want*r.lo || got > want*r.hi {
				t.Errorf("empirical variance %v, analytic %v (band [%v, %v]×)", got, want, r.lo, r.hi)
			}
		})
	}
}

// TestCollectMatchesServingPath: the batch round and the collector's
// public path — Perturb of the bucket center, Bucketize, one histogram,
// EstimateInto — are the same computation, bit for bit, under one seed.
func TestCollectMatchesServingPath(t *testing.T) {
	const d = 12
	values := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 0, 5, 11}
	for _, name := range oracleNames {
		m := MustNew(Params{Name: name, Epsilon: 1.5, Buckets: d})
		batch := Collect(m, values, randx.New(3))
		rng := randx.New(3)
		counts := make([]float64, m.OutputBuckets())
		var cells []int
		for _, v := range values {
			cells, _ = m.Bucketize(cells[:0], m.Perturb(histogram.BucketCenter(v, d), rng))
			for _, c := range cells {
				counts[c]++
			}
		}
		serving := m.EstimateInto(nil, counts)
		for v := range batch {
			if batch[v] != serving[v] {
				t.Fatalf("%s: batch estimate %v, serving path %v", name, batch, serving)
			}
		}
	}
}

// TestCollectAllocationsPerRound: a batch round reuses one report buffer
// and one cell buffer, so its allocations do not grow with the number of
// values (a per-value allocation would show as ≥ 2,000).
func TestCollectAllocationsPerRound(t *testing.T) {
	values := make([]int, 2000)
	for i := range values {
		values[i] = i % 64
	}
	for _, name := range oracleNames {
		m := MustNew(Params{Name: name, Epsilon: 1, Buckets: 64})
		rng := randx.New(4)
		if a := testing.AllocsPerRun(3, func() { Collect(m, values, rng) }); a > 32 {
			t.Errorf("%s: a 2,000-value round allocates %v times", name, a)
		}
	}
}

// TestCollectPanics: a batch round panics on a value outside [0, d), an
// oracle cannot be built over a one-value domain, and the sw family, which
// has no categorical estimate, has no batch round.
func TestCollectPanics(t *testing.T) {
	rng := randx.New(5)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(Params{Name: name, Epsilon: 1, Buckets: 4})
			if name == SW || name == SWDiscrete {
				mustPanic(t, "Collect", func() { Collect(m, []int{0}, rng) })
				return
			}
			mustPanic(t, "Collect(-1)", func() { Collect(m, []int{0, -1}, rng) })
			mustPanic(t, "Collect(d)", func() { Collect(m, []int{4}, rng) })
			mustPanic(t, "MustNew(d=1)", func() { MustNew(Params{Name: name, Epsilon: 1, Buckets: 1}) })
		})
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReportShape checks the wire form of 1,000 reports of every
// mechanism against its documented shape.
func TestReportShape(t *testing.T) {
	const d = 16
	isIndex := func(c float64, n int) bool { return c == math.Trunc(c) && c >= 0 && c < float64(n) }
	rows := map[string]func(m Mechanism, rep Report) bool{
		SW: func(m Mechanism, rep Report) bool {
			b := m.Params().Bandwidth
			return len(rep) == 1 && rep[0] >= -b && rep[0] <= 1+b
		},
		SWDiscrete: func(m Mechanism, rep Report) bool {
			return len(rep) == 1 && isIndex(rep[0], m.OutputBuckets())
		},
		GRR: func(m Mechanism, rep Report) bool { return len(rep) == 1 && isIndex(rep[0], d) },
		OUE: increasingIndices(d),
		SUE: increasingIndices(d),
		OLH: func(m Mechanism, rep Report) bool {
			return len(rep) == 2 && isIndex(rep[0], 1<<olhSeedBits) && isIndex(rep[1], m.(*olhMech).G())
		},
		HRR: func(m Mechanism, rep Report) bool { // (row, ±1)
			return len(rep) == 2 && isIndex(rep[0], d) && (rep[1] == 1 || rep[1] == -1)
		},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(Params{Name: name, Epsilon: 1, Buckets: d})
			rng := randx.New(9)
			for i := 0; i < 1000; i++ {
				if rep := m.Perturb(float64(i%d)/d, rng); !rows[name](m, rep) {
					t.Fatalf("malformed report %v", rep)
				}
			}
		})
	}
}

func increasingIndices(d int) func(Mechanism, Report) bool {
	return func(_ Mechanism, rep Report) bool {
		for i, c := range rep {
			if c != math.Trunc(c) || c < 0 || c >= float64(d) || (i > 0 && c <= rep[i-1]) {
				return false
			}
		}
		return true
	}
}

// TestVarianceFormulas pins the closed forms and their degenerate cases.
func TestVarianceFormulas(t *testing.T) {
	const eps, d, n = 1.0, 32, 1000
	ee := math.Exp(eps)
	cases := []struct {
		mech   string
		want   float64
		approx bool
	}{
		{GRR, (float64(d) - 2 + ee) / ((ee - 1) * (ee - 1) * n), false},
		{OLH, 4 * ee / ((ee - 1) * (ee - 1) * n), false},
		{OUE, 4 * ee / ((ee - 1) * (ee - 1) * n), false},
		{HRR, (ee + 1) * (ee + 1) / ((ee - 1) * (ee - 1) * n), false},
		{SUE, math.Exp(eps/2) / ((math.Exp(eps/2) - 1) * (math.Exp(eps/2) - 1) * n), false},
	}
	for _, c := range cases {
		got, approx := Variance(c.mech, eps, d, n)
		if math.Abs(got-c.want) > 1e-15 || approx != c.approx {
			t.Errorf("Variance(%s) = (%v, %v), want (%v, %v)", c.mech, got, approx, c.want, c.approx)
		}
	}
	// The sw family proxies the oracle Auto selects: at ε=1, d=32, GRR's
	// d−2+e > 4e so OLH wins.
	swv, approx := Variance(SW, eps, d, n)
	olh, _ := Variance(OLH, eps, d, n)
	if swv != olh || !approx {
		t.Errorf("Variance(sw) = (%v, %v), want OLH proxy (%v, true)", swv, approx, olh)
	}
	// Small domains flip the rule to GRR.
	swv, _ = Variance(SWDiscrete, 2, 4, n)
	grr, _ := Variance(GRR, 2, 4, n)
	if swv != grr {
		t.Errorf("Variance(sw-discrete) small domain = %v, want GRR proxy %v", swv, grr)
	}
	if v, approx := Variance(SW, eps, d, 0); !math.IsInf(v, 1) || !approx {
		t.Errorf("Variance(sw) at n=0 = (%v, %v), want (+Inf, true)", v, approx)
	}
	if v, _ := Variance(GRR, eps, d, 0); !math.IsInf(v, 1) {
		t.Errorf("Variance at n=0 = %v, want +Inf", v)
	}
	if v, _ := Variance("nonsense", eps, d, n); !math.IsInf(v, 1) {
		t.Errorf("Variance of unknown mechanism = %v, want +Inf", v)
	}
}

// TestVarianceOrdering checks the known ordering of the oracle family: OUE
// matches OLH exactly, never loses to SUE, OUE < SUE < GRR at ε = 1 and
// d = 64, and Auto picks the lower-variance oracle of GRR and OLH.
func TestVarianceOrdering(t *testing.T) {
	const n = 1000
	v := func(name string, eps float64, d int) float64 {
		x, _ := Variance(name, eps, d, n)
		return x
	}
	epsilons := []float64{0.25, 0.5, 1, 2, 4}
	t.Run("oue_matches_olh", func(t *testing.T) {
		for _, eps := range epsilons {
			if oue, olh := v(OUE, eps, 64), v(OLH, eps, 64); !mathx.AlmostEqual(oue, olh, 1e-15) {
				t.Errorf("ε=%v: OUE variance %v != OLH variance %v", eps, oue, olh)
			}
		}
	})
	t.Run("oue_dominates_sue", func(t *testing.T) {
		for _, eps := range epsilons {
			if oue, sue := v(OUE, eps, 32), v(SUE, eps, 32); oue > sue*1.0001 {
				t.Errorf("ε=%v: OUE variance %v exceeds SUE variance %v", eps, oue, sue)
			}
		}
	})
	t.Run("family", func(t *testing.T) {
		if oue, sue, grr := v(OUE, 1, 64), v(SUE, 1, 64), v(GRR, 1, 64); !(oue < sue && sue < grr) {
			t.Errorf("ordering violated: OUE %v, SUE %v, GRR %v", oue, sue, grr)
		}
	})
	t.Run("auto_min_variance", func(t *testing.T) {
		for _, d := range []int{4, 16, 64, 256} {
			for _, eps := range []float64{0.5, 1, 2, 3} {
				best := Auto(eps, d)
				if lowest := math.Min(v(GRR, eps, d), v(OLH, eps, d)); v(best, eps, d) > lowest*1.0001 {
					t.Errorf("Auto(%v, %d) = %s is not the min-variance choice", eps, d, best)
				}
			}
		}
	})
}

// TestAutoBuildsOracle: an auto declaration builds the oracle of the
// Section 4.1 rule — GRR while d − 2 < 3e^ε, OLH beyond.
func TestAutoBuildsOracle(t *testing.T) {
	for _, c := range []struct {
		eps  float64
		d    int
		want string
	}{
		{0.5, 4, GRR},
		{0.5, 1024, OLH},
		{2.5, 16, GRR}, // 14 < 3·e^2.5 ≈ 36.5
		{1, 64, OLH},   // 62 > 3·e ≈ 8.2
	} {
		if got := MustNew(Params{Name: AutoName, Epsilon: c.eps, Buckets: c.d}).Name(); got != c.want {
			t.Errorf("auto at (ε=%v, d=%d) built %q, want %q", c.eps, c.d, got, c.want)
		}
	}
}

// TestOracleConstructorPanics: New rejects an oracle over fewer than two
// values or at a non-positive or infinite ε, and MustNew panics on it.
func TestOracleConstructorPanics(t *testing.T) {
	for _, p := range []Params{
		{Name: GRR, Epsilon: 1, Buckets: 1},
		{Name: GRR, Epsilon: 0, Buckets: 4},
		{Name: GRR, Epsilon: math.Inf(1), Buckets: 4},
		{Name: OUE, Epsilon: 1, Buckets: 1},
		{Name: OLH, Epsilon: -1, Buckets: 4},
		{Name: HRR, Epsilon: 1, Buckets: 0},
		{Name: AutoName, Epsilon: 1, Buckets: 1},
	} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted", p)
		}
		mustPanic(t, fmt.Sprintf("MustNew(%+v)", p), func() { MustNew(p) })
	}
}
