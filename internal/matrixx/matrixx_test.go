package matrixx

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/randx"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Errorf("zero value not zero")
	}
}

func TestNewPanics(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", shape)
				}
			}()
			New(shape[0], shape[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows content wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Error("Row should be a view into the matrix")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("MulVec = %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	m.MulVec(dst, []float64{1, 1})
}

func TestMulVecT(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	dst := make([]float64, 3)
	m.MulVecT(dst, []float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVecT[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := randx.New(1)
	err := quick.Check(func(seed uint64) bool {
		r := rng.Split(seed)
		m := New(7, 5)
		for i := 0; i < 7; i++ {
			for j := 0; j < 5; j++ {
				m.Set(i, j, r.Normal(0, 1))
			}
		}
		x := make([]float64, 7)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		fast := m.MulVecT(make([]float64, 5), x)
		slow := make([]float64, 5)
		for j := 0; j < 5; j++ {
			for i := 0; i < 7; i++ {
				slow[j] += m.At(i, j) * x[i]
			}
		}
		return mathx.L1(fast, slow) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestBlockedKernelsMatchOneRowLoops pins the dense products' contract:
// blocked four rows at a time, they still reproduce the textbook
// one-accumulator loops bit for bit, ragged tails and zero weights included.
func TestBlockedKernelsMatchOneRowLoops(t *testing.T) {
	rng := randx.New(7)
	for _, shape := range [][2]int{{64, 64}, {200, 128}, {128, 200}, {257, 255}} {
		rows, cols := shape[0], shape[1]
		m := waveMatrix(rows, cols, max(rows/4, 1))
		x := randVec(cols, rng)
		y := randVec(rows, rng)

		want := make([]float64, rows)
		for i := range want {
			var acc float64
			for j, v := range m.Row(i) {
				acc += v * x[j]
			}
			want[i] = acc
		}
		bitsEqual(t, "dense MulVec", m.MulVec(make([]float64, rows), x), want)

		wantT := make([]float64, cols)
		for i := 0; i < rows; i++ {
			if y[i] == 0 {
				continue
			}
			for j, v := range m.Row(i) {
				wantT[j] += v * y[i]
			}
		}
		gotT := make([]float64, cols)
		for j := range gotT {
			gotT[j] = math.NaN() // MulVecT must overwrite, not accumulate
		}
		bitsEqual(t, "dense MulVecT", m.MulVecT(gotT, y), wantT)
	}
}

func TestColSumsAndNormalize(t *testing.T) {
	m := FromRows([][]float64{
		{1, 0, 2},
		{3, 0, 2},
	})
	sums := m.ColSums()
	want := []float64{4, 0, 4}
	for i := range want {
		if sums[i] != want[i] {
			t.Errorf("ColSums[%d] = %v, want %v", i, sums[i], want[i])
		}
	}
	m.NormalizeCols()
	if !mathx.AlmostEqual(m.At(0, 0), 0.25, 1e-12) || !mathx.AlmostEqual(m.At(1, 0), 0.75, 1e-12) {
		t.Errorf("NormalizeCols wrong: %v %v", m.At(0, 0), m.At(1, 0))
	}
	// Zero column left alone.
	if m.At(0, 1) != 0 || m.At(1, 1) != 0 {
		t.Error("zero column was modified")
	}
}

func TestIsColumnStochastic(t *testing.T) {
	m := FromRows([][]float64{
		{0.5, 1},
		{0.5, 0},
	})
	if !m.IsColumnStochastic(1e-12) {
		t.Error("valid stochastic matrix rejected")
	}
	m.Set(0, 0, -0.5)
	if m.IsColumnStochastic(1e-12) {
		t.Error("negative entry accepted")
	}
	m.Set(0, 0, 0.6)
	if m.IsColumnStochastic(1e-12) {
		t.Error("non-unit column accepted")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.5, 1}})
	if got := a.MaxAbsDiff(b); got != 1 {
		t.Errorf("MaxAbsDiff = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	a.MaxAbsDiff(New(2, 2))
}

func BenchmarkMulVec1024(b *testing.B) {
	m := New(1024, 1024)
	x := make([]float64, 1024)
	dst := make([]float64, 1024)
	for i := range x {
		x[i] = 1.0 / 1024
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

// waveMatrix builds a column-stochastic wave-shaped dense matrix (constant
// floor plus a contiguous per-column band).
func waveMatrix(rows, cols, band int) *Matrix {
	m := New(rows, cols)
	base := 0.2 / float64(rows)
	for i := 0; i < cols; i++ {
		lo := i * (rows - band) / max(cols-1, 1)
		for j := 0; j < rows; j++ {
			m.Set(j, i, base)
		}
		for k := 0; k < band; k++ {
			m.Set(lo+k, i, base+0.8/float64(band))
		}
	}
	m.NormalizeCols()
	return m
}

func randVec(n int, rng *randx.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	v[n/3] = 0 // exercise the xi == 0 skip path
	return v
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d differs: %v vs %v (Δ=%g)",
				name, i, got[i], want[i], got[i]-want[i])
		}
	}
}
