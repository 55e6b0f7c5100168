package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/randx"
)

func TestBucketOf(t *testing.T) {
	tests := []struct {
		v    float64
		d    int
		want int
	}{
		{0, 4, 0},
		{0.24, 4, 0},
		{0.25, 4, 1},
		{0.5, 4, 2},
		{0.99, 4, 3},
		{1, 4, 3},    // right endpoint maps into last bucket
		{-0.5, 4, 0}, // clamped
		{1.5, 4, 3},  // clamped
		{0.999, 1, 0},
	}
	for _, tc := range tests {
		if got := BucketOf(tc.v, tc.d); got != tc.want {
			t.Errorf("BucketOf(%v, %d) = %d, want %d", tc.v, tc.d, got, tc.want)
		}
	}
}

func TestBucketBoundsAndCenter(t *testing.T) {
	lo, hi := BucketBounds(2, 4)
	if lo != 0.5 || hi != 0.75 {
		t.Errorf("BucketBounds(2,4) = (%v,%v)", lo, hi)
	}
	if got := BucketCenter(0, 4); got != 0.125 {
		t.Errorf("BucketCenter(0,4) = %v", got)
	}
}

func TestFromSamples(t *testing.T) {
	dist := Distribution([]float64{0.1, 0.1, 0.6, 0.9, 1.0, -0.5, 1.5}, 4)
	want := []float64{3.0 / 7, 0, 1.0 / 7, 3.0 / 7} // -0.5 and 1.5 clamp
	if len(dist) != len(want) {
		t.Fatalf("%d buckets, want %d", len(dist), len(want))
	}
	for i, w := range want {
		if !mathx.AlmostEqual(dist[i], w, 1e-12) {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
}

func TestDistribution(t *testing.T) {
	dist := Distribution([]float64{0.1, 0.2, 0.05, 0.9}, 4)
	want := []float64{0.75, 0, 0, 0.25}
	for i := range want {
		if !mathx.AlmostEqual(dist[i], want[i], 1e-12) {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
	// No samples → uniform.
	empty := Distribution(nil, 2)
	if empty[0] != 0.5 || empty[1] != 0.5 {
		t.Errorf("empty distribution = %v, want uniform", empty)
	}
}

func TestCDFAt(t *testing.T) {
	x := []float64{0.25, 0.25, 0.25, 0.25}
	tests := []struct {
		v, want float64
	}{
		{0, 0}, {0.25, 0.25}, {0.5, 0.5}, {0.875, 0.875}, {1, 1}, {-1, 0}, {2, 1},
	}
	for _, tc := range tests {
		if got := CDFAt(x, tc.v); !mathx.AlmostEqual(got, tc.want, 1e-12) {
			t.Errorf("CDFAt(uniform, %v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	// Interpolation inside a non-uniform bucket.
	y := []float64{0.8, 0.2}
	if got := CDFAt(y, 0.25); !mathx.AlmostEqual(got, 0.4, 1e-12) {
		t.Errorf("CDFAt = %v, want 0.4", got)
	}
}

func TestMeanVariance(t *testing.T) {
	// Uniform distribution over [0,1]: mean 1/2, variance 1/12 at any d.
	for _, d := range []int{1, 4, 256} {
		x := make([]float64, d)
		for i := range x {
			x[i] = 1 / float64(d)
		}
		if got := Mean(x); !mathx.AlmostEqual(got, 0.5, 1e-12) {
			t.Errorf("uniform d=%d mean = %v", d, got)
		}
		if got := Variance(x); !mathx.AlmostEqual(got, 1.0/12, 1e-9) {
			t.Errorf("uniform d=%d variance = %v, want 1/12", d, got)
		}
	}
	// Point mass in one bucket: mean = center, variance = width²/12.
	x := []float64{0, 0, 1, 0}
	if got := Mean(x); !mathx.AlmostEqual(got, 0.625, 1e-12) {
		t.Errorf("point-mass mean = %v", got)
	}
	if got := Variance(x); !mathx.AlmostEqual(got, 1.0/(16*12), 1e-12) {
		t.Errorf("point-mass variance = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{0.5, 0, 0.5, 0}
	tests := []struct {
		beta, want float64
	}{
		{0, 0},
		{0.25, 0.125}, // halfway through first bucket
		{0.5, 0.25},   // first bucket exactly exhausted
		{0.75, 0.625}, // halfway through third bucket
		{1, 0.75},
	}
	for _, tc := range tests {
		if got := Quantile(x, tc.beta); !mathx.AlmostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.beta, got, tc.want)
		}
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	// Property: for strictly positive distributions,
	// CDFAt(Quantile(beta)) == beta.
	rng := randx.New(3)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		x := make([]float64, 16)
		for i := range x {
			x[i] = r.Float64() + 0.01
		}
		mathx.Normalize(x)
		for _, beta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			q := Quantile(x, beta)
			if !mathx.AlmostEqual(CDFAt(x, q), beta, 1e-9) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestRangeProb(t *testing.T) {
	x := []float64{0.25, 0.25, 0.25, 0.25}
	if got := RangeProb(x, 0.1, 0.6); !mathx.AlmostEqual(got, 0.5, 1e-12) {
		t.Errorf("RangeProb = %v, want 0.5", got)
	}
	// Reversed endpoints are swapped.
	if got := RangeProb(x, 0.6, 0.1); !mathx.AlmostEqual(got, 0.5, 1e-12) {
		t.Errorf("reversed RangeProb = %v, want 0.5", got)
	}
	if got := RangeProb(x, 0, 1); !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("full RangeProb = %v, want 1", got)
	}
}

func TestUpsample(t *testing.T) {
	up := Upsample([]float64{0.3, 0.7}, 2)
	want := []float64{0.15, 0.15, 0.35, 0.35}
	if len(up) != len(want) {
		t.Fatalf("Upsample length %d, want %d", len(up), len(want))
	}
	for i := range want {
		if !mathx.AlmostEqual(up[i], want[i], 1e-12) {
			t.Errorf("Upsample[%d] = %v, want %v", i, up[i], want[i])
		}
	}
	if !mathx.IsDistribution(up, 1e-12) {
		t.Error("Upsample broke the simplex")
	}
}

func TestUpsampleProperty(t *testing.T) {
	// Property: Upsample(x, k) preserves the total mass, and each group of
	// k children sums back to its parent bucket.
	const k = 4
	rng := randx.New(5)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		x := make([]float64, 32)
		for i := range x {
			x[i] = r.Float64()
		}
		mathx.Normalize(x)
		up := Upsample(x, k)
		if len(up) != len(x)*k || !mathx.AlmostEqual(mathx.Sum(up), mathx.Sum(x), 1e-12) {
			return false
		}
		for i, p := range x {
			if !mathx.AlmostEqual(mathx.Sum(up[i*k:(i+1)*k]), p, 1e-12) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestHistogramLargeSampleConvergence(t *testing.T) {
	// Bucketizing many Beta(5,2) samples should converge to a distribution
	// whose mean matches the analytic mean 5/7.
	r := randx.New(6)
	samples := make([]float64, 200000)
	for i := range samples {
		samples[i] = r.Beta(5, 2)
	}
	dist := Distribution(samples, 128)
	if got := Mean(dist); math.Abs(got-5.0/7.0) > 0.01 {
		t.Errorf("empirical Beta(5,2) mean = %v, want %v", got, 5.0/7.0)
	}
}

func BenchmarkQuantile(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = 1.0 / 1024
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Quantile(x, 0.5)
	}
}
