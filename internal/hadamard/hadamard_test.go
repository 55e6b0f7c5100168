package hadamard

import (
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/randx"
)

func TestEntry(t *testing.T) {
	// The 4x4 Sylvester matrix.
	want := [4][4]int{
		{1, 1, 1, 1},
		{1, -1, 1, -1},
		{1, 1, -1, -1},
		{1, -1, -1, 1},
	}
	for j := 0; j < 4; j++ {
		for v := 0; v < 4; v++ {
			if got := Entry(j, v); got != want[j][v] {
				t.Errorf("Entry(%d,%d) = %d, want %d", j, v, got, want[j][v])
			}
		}
	}
}

func TestEntrySymmetry(t *testing.T) {
	for j := 0; j < 64; j++ {
		for v := 0; v < 64; v++ {
			if Entry(j, v) != Entry(v, j) {
				t.Fatalf("Entry not symmetric at (%d,%d)", j, v)
			}
		}
	}
}

func TestRowOrthogonality(t *testing.T) {
	const n = 32
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			ra, rb := Row(a, n), Row(b, n)
			dot := mathx.Dot(ra, rb)
			want := 0.0
			if a == b {
				want = n
			}
			if dot != want {
				t.Fatalf("rows %d,%d dot = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestIsPow2NextPow2(t *testing.T) {
	tests := []struct {
		n    int
		is   bool
		next int
	}{
		{0, false, 1},
		{1, true, 1},
		{2, true, 2},
		{3, false, 4},
		{4, true, 4},
		{1000, false, 1024},
		{1024, true, 1024},
	}
	for _, tc := range tests {
		if got := IsPow2(tc.n); got != tc.is {
			t.Errorf("IsPow2(%d) = %v", tc.n, got)
		}
		if got := NextPow2(tc.n); got != tc.next {
			t.Errorf("NextPow2(%d) = %d, want %d", tc.n, got, tc.next)
		}
	}
}

func TestTransformMatchesMatrix(t *testing.T) {
	// FWHT must equal explicit matrix multiplication.
	const n = 16
	rng := randx.New(1)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, n)
	for j := 0; j < n; j++ {
		for v := 0; v < n; v++ {
			want[j] += EntryF(j, v) * x[v]
		}
	}
	got := append([]float64(nil), x...)
	Transform(got)
	for i := range want {
		if !mathx.AlmostEqual(got[i], want[i], 1e-9) {
			t.Errorf("Transform[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := randx.New(2)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		x := make([]float64, 64)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		orig := append([]float64(nil), x...)
		Transform(x)
		Inverse(x)
		return mathx.L1(x, orig) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestTransformParseval(t *testing.T) {
	// Parseval: ||Hx||² = N ||x||².
	rng := randx.New(3)
	x := make([]float64, 128)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	var before float64
	for _, v := range x {
		before += v * v
	}
	Transform(x)
	var after float64
	for _, v := range x {
		after += v * v
	}
	if !mathx.AlmostEqual(after, 128*before, 1e-6*before*128) {
		t.Errorf("Parseval violated: after=%v, want %v", after, 128*before)
	}
}

func TestTransformPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Transform on length 3 should panic")
		}
	}()
	Transform(make([]float64, 3))
}

func BenchmarkTransform1024(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transform(x)
	}
}
