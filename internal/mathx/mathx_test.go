package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"mixed", []float64{1, -1, 2, -2, 5}, 5},
		{"small terms", []float64{1e16, 1, -1e16}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Sum(tc.in); got != tc.want {
				t.Errorf("Sum(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestSumCompensated(t *testing.T) {
	// One million copies of 0.1 should sum to exactly 100000 with Kahan
	// compensation (naive summation drifts by ~1e-8).
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 0.1
	}
	if got := Sum(xs); math.Abs(got-100000) > 1e-9 {
		t.Errorf("compensated Sum drifted: got %v", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(-1, 0, 1); got != 0 {
		t.Errorf("Clamp(-1,0,1) = %v", got)
	}
	if got := Clamp(2, 0, 1); got != 1 {
		t.Errorf("Clamp(2,0,1) = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Clamp(0, 1, 0) should panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestClampInt(t *testing.T) {
	if got := ClampInt(5, 0, 3); got != 3 {
		t.Errorf("ClampInt(5,0,3) = %v", got)
	}
	if got := ClampInt(-2, 0, 3); got != 0 {
		t.Errorf("ClampInt(-2,0,3) = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	Normalize(xs)
	if !AlmostEqual(Sum(xs), 1, 1e-12) {
		t.Errorf("normalized sum = %v", Sum(xs))
	}
	if !AlmostEqual(xs[3], 0.4, 1e-12) {
		t.Errorf("xs[3] = %v, want 0.4", xs[3])
	}

	zero := []float64{0, 0, 0}
	Normalize(zero)
	for i, v := range zero {
		if !AlmostEqual(v, 1.0/3, 1e-12) {
			t.Errorf("zero normalize [%d] = %v, want uniform", i, v)
		}
	}

	bad := []float64{math.NaN(), 1}
	Normalize(bad)
	if !AlmostEqual(bad[0], 0.5, 1e-12) {
		t.Errorf("NaN input should normalize to uniform, got %v", bad)
	}
}

func TestIsDistribution(t *testing.T) {
	if !IsDistribution([]float64{0.25, 0.25, 0.5}, 1e-9) {
		t.Error("valid distribution rejected")
	}
	if IsDistribution([]float64{0.5, 0.6}, 1e-9) {
		t.Error("non-normalized accepted")
	}
	if IsDistribution([]float64{-0.1, 1.1}, 1e-9) {
		t.Error("negative entry accepted")
	}
	if IsDistribution(nil, 1e-9) {
		t.Error("empty accepted")
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 3}
	b := []float64{4, 0}
	if got := L1(a, b); got != 7 {
		t.Errorf("L1 = %v, want 7", got)
	}
	if got := L2(a, b); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
	if got := Dot(a, b); got != 0 {
		t.Errorf("Dot = %v, want 0", got)
	}
}

func TestIntervalOverlap(t *testing.T) {
	tests := []struct {
		a0, a1, b0, b1, want float64
	}{
		{0, 1, 0.5, 2, 0.5},
		{0, 1, 2, 3, 0},
		{0, 1, -1, 2, 1},
		{0, 1, 1, 2, 0},
		{1, 0, 0, 1, 0}, // degenerate
	}
	for _, tc := range tests {
		if got := IntervalOverlap(tc.a0, tc.a1, tc.b0, tc.b1); got != tc.want {
			t.Errorf("IntervalOverlap(%v,%v,%v,%v) = %v, want %v",
				tc.a0, tc.a1, tc.b0, tc.b1, got, tc.want)
		}
	}
}

// numericBandOverlap is a brute-force Riemann sum reference for
// BandRectOverlapIntegral.
func numericBandOverlap(vlo, vhi, ulo, uhi, b float64, steps int) float64 {
	h := (vhi - vlo) / float64(steps)
	var acc float64
	for i := 0; i < steps; i++ {
		v := vlo + (float64(i)+0.5)*h
		acc += IntervalOverlap(v-b, v+b, ulo, uhi) * h
	}
	return acc
}

func TestBandRectOverlapIntegralAgainstNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		vlo := rng.Float64()
		vhi := vlo + rng.Float64()
		ulo := rng.Float64()*2 - 0.5
		uhi := ulo + rng.Float64()
		b := rng.Float64() * 0.6
		got := BandRectOverlapIntegral(vlo, vhi, ulo, uhi, b)
		want := numericBandOverlap(vlo, vhi, ulo, uhi, b, 20000)
		if math.Abs(got-want) > 1e-4 {
			t.Fatalf("trial %d: BandRectOverlapIntegral(%v,%v,%v,%v,%v) = %v, numeric %v",
				trial, vlo, vhi, ulo, uhi, b, got, want)
		}
	}
}

func TestBandRectOverlapIntegralEdgeCases(t *testing.T) {
	if got := BandRectOverlapIntegral(0, 1, 0, 1, 0); got != 0 {
		t.Errorf("zero bandwidth should integrate to 0, got %v", got)
	}
	if got := BandRectOverlapIntegral(1, 0, 0, 1, 0.1); got != 0 {
		t.Errorf("degenerate v-interval should be 0, got %v", got)
	}
	// Band fully covering the rectangle: integral = |V| * |U|.
	got := BandRectOverlapIntegral(0, 1, 0.4, 0.6, 10)
	if !AlmostEqual(got, 0.2, 1e-12) {
		t.Errorf("full cover integral = %v, want 0.2", got)
	}
}

func TestBinomialKernel(t *testing.T) {
	k := BinomialKernel(3)
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if !AlmostEqual(k[i], want[i], 1e-12) {
			t.Errorf("kernel[%d] = %v, want %v", i, k[i], want[i])
		}
	}
	k5 := BinomialKernel(5)
	want5 := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for i := range want5 {
		if !AlmostEqual(k5[i], want5[i], 1e-12) {
			t.Errorf("kernel5[%d] = %v, want %v", i, k5[i], want5[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("even kernel width should panic")
		}
	}()
	BinomialKernel(4)
}

func TestSmoothBinomialPreservesSimplex(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Abs(math.Mod(v, 100))
		}
		Normalize(xs)
		dst := make([]float64, len(xs))
		SmoothBinomial(dst, xs)
		return IsDistribution(dst, 1e-9)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestSmoothBinomialValues(t *testing.T) {
	xs := []float64{1, 0, 0, 0}
	dst := make([]float64, 4)
	SmoothBinomial(dst, xs)
	want := []float64{0.75, 0.25, 0, 0}
	for i := range want {
		if !AlmostEqual(dst[i], want[i], 1e-12) {
			t.Errorf("smooth[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// Short vectors pass through.
	one := []float64{1}
	dstOne := []float64{0}
	SmoothBinomial(dstOne, one)
	if dstOne[0] != 1 {
		t.Errorf("length-1 smooth changed value: %v", dstOne[0])
	}
}

func TestSmoothBinomialFixedPointUniform(t *testing.T) {
	// The interior of a uniform distribution is a fixed point; boundary
	// renormalization keeps it exactly uniform.
	d := 64
	xs := make([]float64, d)
	for i := range xs {
		xs[i] = 1 / float64(d)
	}
	dst := make([]float64, d)
	SmoothBinomial(dst, xs)
	for i := range dst {
		if !AlmostEqual(dst[i], 1/float64(d), 1e-12) {
			t.Fatalf("uniform not fixed point at %d: %v", i, dst[i])
		}
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-12, 1e-9) {
		t.Error("close values not equal")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Error("distant values equal")
	}
	if AlmostEqual(math.NaN(), math.NaN(), 1) {
		t.Error("NaN should never be equal")
	}
}

func BenchmarkSum(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum(xs)
	}
}

func BenchmarkSmoothBinomial(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 1.0 / 1024
	}
	dst := make([]float64, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SmoothBinomial(dst, xs)
	}
}

func TestSmoothBinomialKMatchesWidth3(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := make([]float64, 32)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	Normalize(xs)
	a := make([]float64, 32)
	b := make([]float64, 32)
	SmoothBinomial(a, xs)
	SmoothBinomialK(b, xs, 3)
	if L1(a, b) > 1e-12 {
		t.Errorf("SmoothBinomialK(3) differs from SmoothBinomial by %v", L1(a, b))
	}
}

func TestSmoothBinomialKPreservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, w := range []int{1, 3, 5, 7, 9} {
		xs := make([]float64, 16)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		Normalize(xs)
		dst := make([]float64, 16)
		SmoothBinomialK(dst, xs, w)
		if !IsDistribution(dst, 1e-9) {
			t.Errorf("width %d broke the simplex", w)
		}
	}
}

func TestSmoothBinomialKWiderIsSmoother(t *testing.T) {
	xs := make([]float64, 64)
	xs[32] = 1 // point mass
	tv := func(v []float64) float64 {
		var acc float64
		for i := 1; i < len(v); i++ {
			acc += math.Abs(v[i] - v[i-1])
		}
		return acc
	}
	d3 := make([]float64, 64)
	d5 := make([]float64, 64)
	SmoothBinomialK(d3, xs, 3)
	SmoothBinomialK(d5, xs, 5)
	if tv(d5) >= tv(d3) {
		t.Errorf("width 5 TV %v should be below width 3 TV %v", tv(d5), tv(d3))
	}
}

func TestSmoothBinomialKWidth1IsIdentity(t *testing.T) {
	xs := []float64{0.2, 0.3, 0.5}
	dst := make([]float64, 3)
	SmoothBinomialK(dst, xs, 1)
	if L1(dst, xs) != 0 {
		t.Error("width 1 should be the identity")
	}
}
