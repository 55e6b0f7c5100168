package stats

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/randx"
)

func TestBinomialTailExactValues(t *testing.T) {
	tests := []struct {
		k, n int
		p    float64
		want float64
	}{
		{0, 10, 0.5, 1},
		{11, 10, 0.5, 0},
		{10, 10, 0.5, 1.0 / 1024},
		{1, 1, 0.5, 0.5},
		{1, 2, 0.5, 0.75},
		{5, 10, 0, 0},
		{5, 10, 1, 1},
	}
	for _, tc := range tests {
		if got := BinomialTail(tc.k, tc.n, tc.p); !mathx.AlmostEqual(got, tc.want, 1e-12) {
			t.Errorf("BinomialTail(%d,%d,%v) = %v, want %v", tc.k, tc.n, tc.p, got, tc.want)
		}
	}
}

func TestBinomialTailMatchesSimulation(t *testing.T) {
	rng := randx.New(1)
	const n, trials = 20, 200000
	const p = 0.3
	const k = 9
	hits := 0
	for tr := 0; tr < trials; tr++ {
		c := 0
		for i := 0; i < n; i++ {
			if rng.Bernoulli(p) {
				c++
			}
		}
		if c >= k {
			hits++
		}
	}
	want := BinomialTail(k, n, p)
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.005 {
		t.Errorf("simulated tail %v, exact %v", got, want)
	}
}

func TestBinomialTailLargeNStable(t *testing.T) {
	got := BinomialTail(2600, 5000, 0.5)
	if math.IsNaN(got) || got <= 0 || got >= 1 {
		t.Errorf("large-n tail = %v", got)
	}
}

func TestSignTestClearWinner(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{2, 3, 4, 5, 6, 7, 8, 9} // a lower everywhere
	res := SignTest(a, b)
	if res.Wins != 8 || res.Losses != 0 || res.Ties != 0 {
		t.Fatalf("result = %+v", res)
	}
	// Two-sided exact p = 2·(1/2)^8 = 1/128.
	if !mathx.AlmostEqual(res.PValue, 2.0/256, 1e-12) {
		t.Errorf("p = %v, want %v", res.PValue, 2.0/256)
	}
	if !res.Significant(0.05) {
		t.Error("clear winner not significant")
	}
}

func TestSignTestNoDifference(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	res := SignTest(a, a)
	if res.Ties != 4 || res.PValue != 1 {
		t.Errorf("identical samples: %+v", res)
	}
	if res.Significant(0.05) {
		t.Error("ties should never be significant")
	}
}

func TestSignTestBalanced(t *testing.T) {
	a := []float64{1, 4, 1, 4}
	b := []float64{2, 3, 2, 3} // 2 wins, 2 losses
	res := SignTest(a, b)
	if res.Wins != 2 || res.Losses != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.PValue < 0.5 {
		t.Errorf("balanced outcome should have large p, got %v", res.PValue)
	}
}

func TestSignTestFalsePositiveRate(t *testing.T) {
	// Under the null (both samples from the same distribution) the test
	// should reject at ~the nominal level or below (the sign test is
	// conservative at small n due to discreteness).
	rng := randx.New(2)
	const trials = 2000
	rejects := 0
	for tr := 0; tr < trials; tr++ {
		a := make([]float64, 10)
		b := make([]float64, 10)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		if SignTest(a, b).Significant(0.05) {
			rejects++
		}
	}
	rate := float64(rejects) / trials
	if rate > 0.06 {
		t.Errorf("false positive rate %v exceeds the nominal 5%%", rate)
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { BinomialTail(-1, 5, 0.5) },
		func() { BinomialTail(1, 5, 1.5) },
		func() { SignTest([]float64{1}, []float64{1, 2}) },
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
