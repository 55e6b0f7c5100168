package postprocess

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/randx"
)

func TestNormSubAlreadyValid(t *testing.T) {
	x := []float64{0.25, 0.25, 0.5}
	got := NormSub(x)
	for i := range x {
		if !mathx.AlmostEqual(got[i], x[i], 1e-9) {
			t.Errorf("valid distribution changed: %v -> %v", x, got)
		}
	}
}

func TestNormSubClipsNegatives(t *testing.T) {
	// est sums to 1 but has a negative entry: [-0.2, 0.6, 0.6].
	// Norm-Sub: clip -0.2, subtract 0.1 from each positive → [0, 0.5, 0.5].
	got := NormSub([]float64{-0.2, 0.6, 0.6})
	want := []float64{0, 0.5, 0.5}
	for i := range want {
		if !mathx.AlmostEqual(got[i], want[i], 1e-9) {
			t.Errorf("NormSub[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormSubIterativeCase(t *testing.T) {
	// A case where one round of clip-and-shift creates a new negative:
	// [0.05, 1.2, -0.25]. Sum = 1. First round: clip -0.25, shift 0.125
	// off the two positives: [−0.075, 1.075, 0] → second round needed.
	// Final answer: [0, 1, 0].
	got := NormSub([]float64{0.05, 1.2, -0.25})
	want := []float64{0, 1, 0}
	for i := range want {
		if !mathx.AlmostEqual(got[i], want[i], 1e-9) {
			t.Errorf("NormSub[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormSubAllNegative(t *testing.T) {
	// The Euclidean projection of an all-negative vector onto the simplex
	// is a point mass at the largest entry.
	got := NormSub([]float64{-3, -1, -2, -4})
	want := []float64{0, 1, 0, 0}
	for i := range want {
		if !mathx.AlmostEqual(got[i], want[i], 1e-9) {
			t.Errorf("all-negative NormSub[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormSubInPlaceMatchesNormSub(t *testing.T) {
	// The collector's oracle refresh projects through NormSubInPlace; it
	// must reproduce NormSub bit for bit and leave its answer in est.
	rng := randx.New(9)
	noisy := make([]float64, 64)
	for i := range noisy {
		noisy[i] = rng.Normal(1.0/64, 0.05)
	}
	for name, in := range map[string][]float64{
		"already valid":   {0.25, 0.25, 0.5},
		"partly negative": {-0.2, 0.6, 0.6},
		"all negative":    {-3, -1, -2, -4},
		"iterative case":  {0.05, 1.2, -0.25},
		"noisy oracle":    noisy,
		"empty":           {},
	} {
		want := NormSub(in)
		est := append([]float64(nil), in...)
		got := NormSubInPlace(est, make([]float64, len(in)))
		if len(got) != len(want) || (len(got) > 0 && &got[0] != &est[0]) {
			t.Fatalf("%s: NormSubInPlace did not project into est", name)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: NormSubInPlace[%d] = %v, NormSub = %v", name, i, got[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NormSubInPlace with a short scratch should panic")
		}
	}()
	NormSubInPlace([]float64{1, 2}, make([]float64, 1))
}

func TestNormSubEmpty(t *testing.T) {
	if got := NormSub(nil); len(got) != 0 {
		t.Errorf("NormSub(nil) = %v", got)
	}
}

func TestNormSubDoesNotModifyInput(t *testing.T) {
	in := []float64{-0.5, 1.5}
	NormSub(in)
	if in[0] != -0.5 || in[1] != 1.5 {
		t.Error("NormSub modified its input")
	}
}

func TestNormSubProperty(t *testing.T) {
	// For arbitrary noisy inputs the output is always a distribution, and
	// the ordering of entries is preserved (NormSub is monotone).
	rng := randx.New(1)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		est := make([]float64, 24)
		for i := range est {
			est[i] = r.Normal(1.0/24, 0.2)
		}
		out := NormSub(est)
		if !mathx.IsDistribution(out, 1e-9) {
			return false
		}
		for i := range est {
			for j := range est {
				if est[i] > est[j] && out[i] < out[j]-1e-12 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestNormSubIsEuclideanProjection(t *testing.T) {
	// Verify against brute-force projection: for random v, NormSub(v) must
	// be at least as close to v (in L2) as any other simplex point we try.
	rng := randx.New(2)
	for trial := 0; trial < 50; trial++ {
		est := make([]float64, 8)
		for i := range est {
			est[i] = rng.Normal(0.125, 0.3)
		}
		proj := NormSub(est)
		base := mathx.L2(proj, est)
		for probe := 0; probe < 200; probe++ {
			cand := make([]float64, 8)
			for i := range cand {
				cand[i] = rng.Float64()
			}
			mathx.Normalize(cand)
			if mathx.L2(cand, est) < base-1e-9 {
				t.Fatalf("found simplex point closer than NormSub output (trial %d)", trial)
			}
		}
	}
}

func TestNormSubKeepsLessSupportThanClipRenorm(t *testing.T) {
	// The motivating property: on noise-dominated estimates Norm-Sub
	// zeroes more spurious entries than clip-and-renormalize, whose
	// support is every positive entry of the estimate.
	rng := randx.New(3)
	est := make([]float64, 100)
	est[0] = 0.9
	for i := 1; i < 100; i++ {
		est[i] = rng.Normal(0.001, 0.05)
	}
	ns := NormSub(est)
	nsSupport, crSupport := 0, 0
	for i := range est {
		if ns[i] > 0 {
			nsSupport++
		}
		if est[i] > 0 {
			crSupport++
		}
	}
	if nsSupport >= crSupport {
		t.Errorf("NormSub support %d should be smaller than clip-and-renormalize support %d",
			nsSupport, crSupport)
	}
}

func TestNormSubIdempotent(t *testing.T) {
	rng := randx.New(4)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		est := make([]float64, 16)
		for i := range est {
			est[i] = r.Normal(0, 1)
		}
		once := NormSub(est)
		twice := NormSub(once)
		return mathx.L1(once, twice) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestNormSubExtremeMagnitudes(t *testing.T) {
	got := NormSub([]float64{1e9, -1e9, 1})
	if !mathx.IsDistribution(got, 1e-6) {
		t.Errorf("extreme input did not project to simplex: %v", got)
	}
	if got[0] < 0.99 {
		t.Errorf("dominant entry should keep nearly all mass: %v", got)
	}
	if math.Abs(got[1]) > 1e-9 {
		t.Errorf("hugely negative entry should be zeroed: %v", got[1])
	}
}

func BenchmarkNormSub1024(b *testing.B) {
	rng := randx.New(5)
	est := make([]float64, 1024)
	for i := range est {
		est[i] = rng.Normal(1.0/1024, 0.01)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormSub(est)
	}
}

func TestNorm(t *testing.T) {
	got := Norm([]float64{0.5, -0.5, 0.9})
	if !mathx.AlmostEqual(mathx.Sum(got), 1, 1e-12) {
		t.Errorf("Norm sum = %v", mathx.Sum(got))
	}
	// Constant shift: pairwise differences preserved.
	if !mathx.AlmostEqual(got[0]-got[1], 1.0, 1e-12) {
		t.Errorf("Norm changed relative values: %v", got)
	}
	// Negatives may remain (delta = 0.1/3 here, far below 0.5).
	if got[1] >= 0 {
		t.Errorf("Norm should keep the negative entry negative here: %v", got[1])
	}
	if out := Norm(nil); len(out) != 0 {
		t.Errorf("Norm(nil) = %v", out)
	}
}

func TestNormKeepsRangeSumsUnbiasedInExpectation(t *testing.T) {
	// Norm only shifts by a constant, so the sum over any fixed range
	// changes by (width/d)·(1 − total): with an unbiased estimator whose
	// total is 1 in expectation, range sums stay unbiased. Check the
	// mechanics: range sums of Norm(est) equal range sums of est plus the
	// deterministic correction.
	est := []float64{0.3, -0.2, 0.5, 0.2}
	out := Norm(est)
	delta := (1 - mathx.Sum(est)) / 4
	for lo := 0; lo < 4; lo++ {
		for hi := lo + 1; hi <= 4; hi++ {
			var a, b float64
			for i := lo; i < hi; i++ {
				a += est[i]
				b += out[i]
			}
			want := a + float64(hi-lo)*delta
			if !mathx.AlmostEqual(b, want, 1e-12) {
				t.Fatalf("range [%d,%d): %v, want %v", lo, hi, b, want)
			}
		}
	}
}
