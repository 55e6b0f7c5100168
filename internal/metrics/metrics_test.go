package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/randx"
)

func TestWassersteinIdentical(t *testing.T) {
	x := []float64{0.25, 0.25, 0.25, 0.25}
	if got := Wasserstein(x, x); got != 0 {
		t.Errorf("W1(x,x) = %v, want 0", got)
	}
}

func TestWassersteinOrderSensitivity(t *testing.T) {
	// The paper's motivating example (Section 3.1): moving mass one bucket
	// must cost less than moving it three buckets, even though point-wise
	// distances such as L1 are identical for both estimates.
	x := []float64{0.7, 0.1, 0.1, 0.1}
	near := []float64{0.1, 0.7, 0.1, 0.1}
	far := []float64{0.1, 0.1, 0.1, 0.7}

	if mathx.L1(x, near) != mathx.L1(x, far) {
		t.Fatal("setup broken: L1 should not distinguish the estimates")
	}
	wNear, wFar := Wasserstein(x, near), Wasserstein(x, far)
	if wNear >= wFar {
		t.Errorf("W1 near = %v should be < W1 far = %v", wNear, wFar)
	}
	// Exact values: 0.6 mass moved 1 (of 4) buckets vs 3 buckets.
	if !mathx.AlmostEqual(wNear, 0.15, 1e-12) {
		t.Errorf("W1 near = %v, want 0.15", wNear)
	}
	if !mathx.AlmostEqual(wFar, 0.45, 1e-12) {
		t.Errorf("W1 far = %v, want 0.45", wFar)
	}
}

func TestWassersteinGranularityInvariance(t *testing.T) {
	// Shifting a point mass by a fixed fraction of the domain should cost
	// the same W1 regardless of grid resolution.
	for _, d := range []int{8, 64, 512} {
		x := make([]float64, d)
		y := make([]float64, d)
		x[0] = 1
		y[d/2] = 1 // shifted by half the domain
		if got := Wasserstein(x, y); !mathx.AlmostEqual(got, 0.5, 1e-12) {
			t.Errorf("d=%d: W1 = %v, want 0.5", d, got)
		}
	}
}

func TestKS(t *testing.T) {
	x := []float64{0.5, 0.5, 0, 0}
	y := []float64{0, 0, 0.5, 0.5}
	if got := KS(x, y); !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("KS = %v, want 1", got)
	}
	if got := KS(x, x); got != 0 {
		t.Errorf("KS(x,x) = %v", got)
	}
	z := []float64{0.4, 0.6, 0, 0}
	if got := KS(x, z); !mathx.AlmostEqual(got, 0.1, 1e-12) {
		t.Errorf("KS = %v, want 0.1", got)
	}
}

func TestMetricProperties(t *testing.T) {
	// Symmetry, non-negativity, and W1 <= KS-free upper bound (W1 over
	// [0,1] is at most 1; KS at most 1 for distributions).
	rng := randx.New(1)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		x := make([]float64, 32)
		y := make([]float64, 32)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		mathx.Normalize(x)
		mathx.Normalize(y)
		w1, w2 := Wasserstein(x, y), Wasserstein(y, x)
		k1, k2 := KS(x, y), KS(y, x)
		if !mathx.AlmostEqual(w1, w2, 1e-12) || !mathx.AlmostEqual(k1, k2, 1e-12) {
			return false
		}
		if w1 < 0 || k1 < 0 || w1 > 1+1e-9 || k1 > 1+1e-9 {
			return false
		}
		// W1 (avg |ΔCDF|) <= KS (max |ΔCDF|).
		return w1 <= k1+1e-12
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestWassersteinTriangleInequality(t *testing.T) {
	rng := randx.New(2)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		mk := func() []float64 {
			v := make([]float64, 16)
			for i := range v {
				v[i] = r.Float64()
			}
			mathx.Normalize(v)
			return v
		}
		a, b, c := mk(), mk(), mk()
		return Wasserstein(a, c) <= Wasserstein(a, b)+Wasserstein(b, c)+1e-12
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestMeanVarianceError(t *testing.T) {
	x := []float64{1, 0, 0, 0}
	y := []float64{0, 0, 0, 1}
	if got := MeanError(x, y); !mathx.AlmostEqual(got, 0.75, 1e-12) {
		t.Errorf("MeanError = %v, want 0.75", got)
	}
	if got := MeanError(x, x); got != 0 {
		t.Errorf("MeanError(x,x) = %v", got)
	}
	if got := VarianceError(x, x); got != 0 {
		t.Errorf("VarianceError(x,x) = %v", got)
	}
	if got := MeanErrorVs(x, 0.125); got != 0 {
		t.Errorf("MeanErrorVs = %v, want 0", got)
	}
	if got := VarianceErrorVs(x, 1.0/(16*12)); !mathx.AlmostEqual(got, 0, 1e-12) {
		t.Errorf("VarianceErrorVs = %v, want 0", got)
	}
}

func TestQuantileMAE(t *testing.T) {
	x := []float64{0.25, 0.25, 0.25, 0.25}
	if got := QuantileMAE(x, x, DecileBetas); got != 0 {
		t.Errorf("QuantileMAE(x,x) = %v", got)
	}
	// Point mass at bucket 0 vs bucket 3: every decile differs by 0.75.
	a := []float64{1, 0, 0, 0}
	b := []float64{0, 0, 0, 1}
	if got := QuantileMAE(a, b, DecileBetas); !mathx.AlmostEqual(got, 0.75, 1e-12) {
		t.Errorf("QuantileMAE = %v, want 0.75", got)
	}
	if got := QuantileMAE(a, b, nil); got != 0 {
		t.Errorf("empty betas should give 0, got %v", got)
	}
}

func TestRangeQueryMAE(t *testing.T) {
	x := []float64{0.25, 0.25, 0.25, 0.25}
	rng := randx.New(3)
	if got := RangeQueryMAE(x, x, 0.1, 100, rng); got != 0 {
		t.Errorf("RangeQueryMAE(x,x) = %v", got)
	}
	// Uniform vs point mass: queries of width 0.4 differ meaningfully.
	y := []float64{1, 0, 0, 0}
	got := RangeQueryMAE(x, y, 0.4, 2000, rng)
	if got <= 0.1 || got >= 1 {
		t.Errorf("RangeQueryMAE = %v, expected substantial error", got)
	}
}

func TestRangeQueryMAEPanics(t *testing.T) {
	x := []float64{1}
	rng := randx.New(4)
	for _, alpha := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v should panic", alpha)
				}
			}()
			RangeQueryMAE(x, x, alpha, 10, rng)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("nQueries=0 should panic")
		}
	}()
	RangeQueryMAE(x, x, 0.5, 0, rng)
}

func BenchmarkWasserstein1024(b *testing.B) {
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = 1.0 / 1024
		y[i] = float64(i) / (1024 * 1023 / 2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Wasserstein(x, y)
	}
}
