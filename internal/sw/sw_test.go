package sw

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/randx"
)

func TestBOptKnownValues(t *testing.T) {
	// Figure 6 of the paper annotates the used values of b_SW.
	tests := []struct {
		eps, want float64
	}{
		{1.0, 0.256},
		{2.0, 0.129},
		{3.0, 0.064},
		{4.0, 0.030},
	}
	for _, tc := range tests {
		if got := BOpt(tc.eps); math.Abs(got-tc.want) > 0.002 {
			t.Errorf("BOpt(%v) = %v, want ~%v", tc.eps, got, tc.want)
		}
	}
}

func TestBOptLimits(t *testing.T) {
	if got := BOpt(1e-6); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("BOpt(ε→0) = %v, want 0.5", got)
	}
	if got := BOpt(20); got > 1e-6 {
		t.Errorf("BOpt(ε→∞) = %v, want ~0", got)
	}
	// Non-increasing in ε.
	prev := math.Inf(1)
	for eps := 0.1; eps <= 6; eps += 0.1 {
		b := BOpt(eps)
		if b > prev+1e-12 {
			t.Fatalf("BOpt increased at eps=%v", eps)
		}
		prev = b
	}
}

func TestBOptMaximizesMutualInfo(t *testing.T) {
	// BOpt should attain (numerically) the maximum of the mutual
	// information upper bound over a fine grid of b.
	for _, eps := range []float64{0.5, 1, 2, 3, 4} {
		bStar := BOpt(eps)
		best := MutualInfoUpperBound(bStar, eps)
		for b := 0.005; b <= 0.6; b += 0.005 {
			if MutualInfoUpperBound(b, eps) > best+1e-9 {
				t.Errorf("eps=%v: b=%v beats BOpt=%v", eps, b, bStar)
				break
			}
		}
	}
}

func TestWaveParameters(t *testing.T) {
	w := NewSquareWithB(1, 0.25)
	// q = 1/(2b e^ε + 1), p = e^ε q for the square wave.
	ee := math.E
	wantQ := 1 / (2*0.25*ee + 1)
	if !mathx.AlmostEqual(w.Q(), wantQ, 1e-12) {
		t.Errorf("q = %v, want %v", w.Q(), wantQ)
	}
	if !mathx.AlmostEqual(w.P(), ee*wantQ, 1e-12) {
		t.Errorf("p = %v, want %v", w.P(), ee*wantQ)
	}
	if w.OutLo() != -0.25 || w.OutHi() != 1.25 {
		t.Errorf("output domain [%v, %v]", w.OutLo(), w.OutHi())
	}
}

func TestWaveConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewWave(0, 0.2, 1) },
		func() { NewWave(1, 0, 1) },
		func() { NewWave(1, 3, 1) },
		func() { NewWave(1, 0.2, -0.1) },
		func() { NewWave(1, 0.2, 1.1) },
		func() { BOpt(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	// For every shape and several inputs, the density must integrate to 1
	// over the output domain.
	for _, rho := range []float64{0, 0.2, 0.5, 0.8, 1} {
		w := NewWave(1.5, 0.3, rho)
		for _, v := range []float64{0, 0.1, 0.5, 0.93, 1} {
			const steps = 200000
			span := w.OutHi() - w.OutLo()
			h := span / steps
			var acc float64
			for i := 0; i < steps; i++ {
				vt := w.OutLo() + (float64(i)+0.5)*h
				acc += w.Density(v, vt) * h
			}
			if math.Abs(acc-1) > 1e-4 {
				t.Errorf("rho=%v v=%v: density integrates to %v", rho, v, acc)
			}
		}
	}
}

func TestDensitySatisfiesLDP(t *testing.T) {
	// max over outputs of densities from any two inputs must be within
	// e^ε of each other — pointwise ratio bounded by p/q = e^ε.
	for _, rho := range []float64{0, 0.5, 1} {
		const eps = 1.2
		w := NewWave(eps, 0.25, rho)
		limit := math.Exp(eps) * (1 + 1e-9)
		for v1 := 0.0; v1 <= 1; v1 += 0.11 {
			for v2 := 0.0; v2 <= 1; v2 += 0.13 {
				for vt := w.OutLo(); vt <= w.OutHi(); vt += 0.017 {
					d1 := w.Density(v1, vt)
					d2 := w.Density(v2, vt)
					if d2 <= 0 {
						t.Fatalf("density must be positive inside the domain")
					}
					if d1/d2 > limit {
						t.Fatalf("LDP violated: rho=%v M_%v(%v)/M_%v(%v) = %v",
							rho, v1, vt, v2, vt, d1/d2)
					}
				}
			}
		}
	}
}

func TestBandCDFMatchesNumericIntegral(t *testing.T) {
	for _, rho := range []float64{0, 0.3, 0.7, 1} {
		w := NewWave(2, 0.2, rho)
		for _, z := range []float64{-0.2, -0.15, -0.06, 0, 0.06, 0.15, 0.2} {
			const steps = 100000
			h := (z + w.b) / steps
			var acc float64
			if h > 0 {
				for i := 0; i < steps; i++ {
					zz := -w.b + (float64(i)+0.5)*h
					acc += w.Density(0.5, 0.5+zz) * h
				}
			}
			if got := w.bandCDF(z); math.Abs(got-acc) > 1e-5 {
				t.Errorf("rho=%v bandCDF(%v) = %v, numeric %v", rho, z, got, acc)
			}
		}
		// Normalization: F(b) = 1 − q.
		if got := w.bandCDF(w.b); !mathx.AlmostEqual(got, 1-w.q, 1e-12) {
			t.Errorf("rho=%v bandCDF(b) = %v, want 1−q = %v", rho, got, 1-w.q)
		}
	}
}

func TestCellMassPartitionsUnity(t *testing.T) {
	// Summing CellMass over a partition of the output domain gives 1.
	rng := randx.New(1)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		w := NewWave(0.5+2*r.Float64(), 0.05+0.4*r.Float64(), r.Float64())
		v := r.Float64()
		const cells = 37
		span := w.OutHi() - w.OutLo()
		var acc float64
		for j := 0; j < cells; j++ {
			lo := w.OutLo() + float64(j)*span/cells
			hi := lo + span/cells
			acc += w.CellMass(v, lo, hi)
		}
		return mathx.AlmostEqual(acc, 1, 1e-9)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestSampleMatchesDensity(t *testing.T) {
	// Empirical histogram of samples must match the analytic cell masses.
	for _, rho := range []float64{0, 0.5, 1} {
		w := NewWave(1, 0.3, rho)
		rng := randx.New(42)
		const n = 300000
		const cells = 20
		span := w.OutHi() - w.OutLo()
		counts := make([]float64, cells)
		v := 0.35
		for i := 0; i < n; i++ {
			vt := w.Sample(v, rng)
			if vt < w.OutLo() || vt > w.OutHi() {
				t.Fatalf("sample %v outside output domain", vt)
			}
			j := int((vt - w.OutLo()) / span * cells)
			counts[mathx.ClampInt(j, 0, cells-1)]++
		}
		for j := 0; j < cells; j++ {
			lo := w.OutLo() + float64(j)*span/cells
			hi := lo + span/cells
			want := w.CellMass(v, lo, hi)
			got := counts[j] / n
			if math.Abs(got-want) > 0.004 {
				t.Errorf("rho=%v cell %d: empirical %v, analytic %v", rho, j, got, want)
			}
		}
	}
}

func TestSampleEdgeInputs(t *testing.T) {
	w := NewSquare(1)
	rng := randx.New(7)
	for _, v := range []float64{0, 1} {
		for i := 0; i < 10000; i++ {
			vt := w.Sample(v, rng)
			if vt < w.OutLo() || vt > w.OutHi() {
				t.Fatalf("Sample(%v) = %v outside domain", v, vt)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Sample outside [0,1] should panic")
		}
	}()
	w.Sample(1.5, rng)
}

func TestTransitionMatrixColumnStochastic(t *testing.T) {
	for _, rho := range []float64{0, 0.4, 1} {
		w := NewWave(1, 0.25, rho)
		m := w.TransitionMatrix(32, 32)
		if m.Rows() != 32 || m.Cols() != 32 {
			t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
		}
		if !m.IsColumnStochastic(1e-9) {
			t.Errorf("rho=%v: transition matrix not column stochastic", rho)
		}
	}
}

func TestTransitionMatrixMatchesSampling(t *testing.T) {
	// Column i of M must match the empirical output histogram of inputs
	// drawn uniformly from bucket i.
	w := NewSquare(1)
	const d, dt = 16, 16
	m := w.TransitionMatrix(d, dt)
	rng := randx.New(9)
	const n = 200000
	i := 5 // input bucket under test
	counts := make([]float64, dt)
	span := w.OutHi() - w.OutLo()
	for k := 0; k < n; k++ {
		v := (float64(i) + rng.Float64()) / d
		vt := w.Sample(v, rng)
		j := int((vt - w.OutLo()) / span * dt)
		counts[mathx.ClampInt(j, 0, dt-1)]++
	}
	for j := 0; j < dt; j++ {
		got := counts[j] / n
		want := m.At(j, i)
		if math.Abs(got-want) > 0.005 {
			t.Errorf("M[%d][%d] = %v, empirical %v", j, i, want, got)
		}
	}
}

func TestTransitionMatrixSquareVsQuadrature(t *testing.T) {
	// The exact square-wave construction must agree with the generic
	// quadrature path (exercised via rho slightly below 1).
	exact := NewSquareWithB(1.5, 0.2).TransitionMatrix(24, 24)
	quad := NewWave(1.5, 0.2, 1-1e-12).TransitionMatrix(24, 24)
	if diff := exact.MaxAbsDiff(quad); diff > 1e-4 {
		t.Errorf("exact vs quadrature transition matrices differ by %v", diff)
	}
}

func TestCollectProducesCounts(t *testing.T) {
	w := NewSquare(1)
	rng := randx.New(10)
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.Float64()
	}
	counts := w.Collect(values, 64, rng)
	if len(counts) != 64 {
		t.Fatalf("len(counts) = %d", len(counts))
	}
	if got := mathx.Sum(counts); got != 5000 {
		t.Errorf("counts sum to %v, want 5000", got)
	}
}

func TestDiscreteParameters(t *testing.T) {
	s := NewDiscreteWithB(100, 1, 10)
	// p = e^ε/((2b+1)e^ε + d − 1), q = p/e^ε.
	ee := math.E
	wantQ := 1 / (21*ee + 99)
	if !mathx.AlmostEqual(s.Q(), wantQ, 1e-12) {
		t.Errorf("q = %v, want %v", s.Q(), wantQ)
	}
	if !mathx.AlmostEqual(s.P(), ee*wantQ, 1e-12) {
		t.Errorf("p = %v, want %v", s.P(), ee*wantQ)
	}
	if s.Dt() != 120 {
		t.Errorf("Dt = %d, want 120", s.Dt())
	}
	// Default b uses the continuous optimum scaled by d.
	auto := NewDiscrete(100, 1)
	if auto.B() != int(math.Floor(BOpt(1)*100)) {
		t.Errorf("default b = %d", auto.B())
	}
}

func TestDiscreteTotalProbability(t *testing.T) {
	s := NewDiscreteWithB(50, 1.5, 7)
	// (2b+1)p + (d−1)q = 1.
	total := float64(2*7+1)*s.P() + float64(50-1)*s.Q()
	if !mathx.AlmostEqual(total, 1, 1e-12) {
		t.Errorf("discrete total probability = %v", total)
	}
}

func TestDiscretePerturbDistribution(t *testing.T) {
	s := NewDiscreteWithB(20, 1, 3)
	rng := randx.New(11)
	const n = 500000
	v := 8
	counts := make([]float64, s.Dt())
	for i := 0; i < n; i++ {
		counts[s.Perturb(v, rng)]++
	}
	center := v + s.B()
	for j := 0; j < s.Dt(); j++ {
		want := s.Q()
		if j >= center-s.B() && j <= center+s.B() {
			want = s.P()
		}
		got := counts[j] / n
		if math.Abs(got-want) > 0.002 {
			t.Errorf("Pr[out=%d] = %v, want %v", j, got, want)
		}
	}
}

func TestDiscretePerturbEdges(t *testing.T) {
	s := NewDiscreteWithB(10, 1, 2)
	rng := randx.New(12)
	for _, v := range []int{0, 9} {
		for i := 0; i < 20000; i++ {
			j := s.Perturb(v, rng)
			if j < 0 || j >= s.Dt() {
				t.Fatalf("Perturb(%d) = %d outside output domain", v, j)
			}
		}
	}
}

func TestDiscreteTransitionMatrix(t *testing.T) {
	s := NewDiscreteWithB(10, 1, 2)
	m := s.TransitionMatrix()
	if m.Rows() != s.Dt() || m.Cols() != 10 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if !m.IsColumnStochastic(1e-9) {
		t.Error("discrete transition matrix not column stochastic")
	}
	// Spot-check the plateau placement for v=0: rows 0..4 get p.
	for j := 0; j < m.Rows(); j++ {
		want := s.Q()
		if j <= 4 {
			want = s.P()
		}
		if !mathx.AlmostEqual(m.At(j, 0), want, 1e-12) {
			t.Errorf("M[%d][0] = %v, want %v", j, m.At(j, 0), want)
		}
	}
}

func TestDiscreteZeroBandwidthIsGRRLike(t *testing.T) {
	// With b = 0 the discrete SW degenerates to GRR (same p and q).
	s := NewDiscreteWithB(16, 1, 0)
	ee := math.E
	if !mathx.AlmostEqual(s.P(), ee/(ee+15), 1e-12) {
		t.Errorf("b=0 p = %v, want GRR p", s.P())
	}
	if s.Dt() != 16 {
		t.Errorf("b=0 Dt = %d, want 16", s.Dt())
	}
}

func BenchmarkSampleSquare(b *testing.B) {
	w := NewSquare(1)
	rng := randx.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Sample(0.5, rng)
	}
}

func BenchmarkTransitionMatrix256(b *testing.B) {
	w := NewSquare(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.TransitionMatrix(256, 256)
	}
}
