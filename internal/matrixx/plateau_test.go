package matrixx

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// The Square Wave channel is a banded matrix — a floor plus one band per
// column — stored as a Plateau; the TestBanded* tests pin that channel.

// wavePlateau builds a plateau of the Square Wave's shape — floor, a run
// around the (scaled) diagonal, up to two edge cells on each side of it —
// together with the same matrix written out densely entry by entry.
func wavePlateau(rows, cols int, floor, plat float64, half int, rng *randx.Rand) (*Plateau, *Matrix) {
	p := NewPlateau(rows, cols, floor, plat)
	m := New(rows, cols)
	for i := 0; i < cols; i++ {
		center := i * rows / cols
		a, c := max(center-half, 0), min(center+half+1, rows)
		lo, hi := max(a-2, 0), min(c+2, rows)
		var edges []float64
		for j := 0; j < rows; j++ {
			v := floor
			switch {
			case j >= a && j < c:
				v += plat
			case j >= lo && j < hi:
				e := plat * rng.Float64()
				edges = append(edges, e)
				v += e
			}
			m.Set(j, i, v)
		}
		p.AddColumn(a, c, edges[:a-lo], edges[a-lo:])
	}
	return p, m
}

func TestPlateauDenseRoundTrip(t *testing.T) {
	p, m := wavePlateau(32, 24, 0.01, 0.08, 4, randx.New(1))
	for i := 0; i < 24; i++ {
		for j := 0; j < 32; j++ {
			if p.At(j, i) != m.At(j, i) {
				t.Fatalf("entry (%d,%d) = %v, want %v", j, i, p.At(j, i), m.At(j, i))
			}
		}
	}
	if p.MaxEdges() != 4 {
		t.Errorf("MaxEdges = %d, want 4", p.MaxEdges())
	}
	p.NormalizeCols()
	m.NormalizeCols()
	for i := 0; i < 24; i++ {
		for j := 0; j < 32; j++ {
			if d := math.Abs(p.At(j, i)-m.At(j, i)) / m.At(j, i); d > 4e-16 {
				t.Fatalf("normalized entry (%d,%d) differs by %v relative", j, i, d)
			}
		}
	}
}

// relErr is the largest per-element relative deviation of got from want.
func relErr(got, want []float64) float64 {
	var worst float64
	for k := range want {
		worst = math.Max(worst, math.Abs(got[k]-want[k])/math.Abs(want[k]))
	}
	return worst
}

func TestBandedMulVecMatchesDense(t *testing.T) {
	rng := randx.New(2)
	for trial := 0; trial < 20; trial++ {
		rows := 16 + rng.IntN(48)
		cols := 16 + rng.IntN(48)
		p, m := wavePlateau(rows, cols, 0.003, 0.05, rng.IntN(6), rng)
		x := randVec(cols, rng)
		if e := relErr(p.MulVec(make([]float64, rows), x), m.MulVec(make([]float64, rows), x)); !(e <= 1e-14) {
			t.Fatalf("trial %d: MulVec relative error %v", trial, e)
		}
		y := randVec(rows, rng)
		if e := relErr(p.MulVecT(make([]float64, cols), y), m.MulVecT(make([]float64, cols), y)); !(e <= 1e-14) {
			t.Fatalf("trial %d: MulVecT relative error %v", trial, e)
		}
	}
}

// TestPlateauCompensatedWindow pins the compensated window sums: with a
// plateau 1e12 times the floor and x concentrated in one column, the rows
// the peak's run has left must come back to the floor to a few ulps, not
// to the ~1e-4 relative error an uncompensated running sum leaves there.
func TestPlateauCompensatedWindow(t *testing.T) {
	const rows, cols = 512, 512
	p, m := wavePlateau(rows, cols, 1e-12, 1, 20, randx.New(3))
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1e-9 * float64(i%7+1)
	}
	x[100] = 1
	if e := relErr(p.MulVec(make([]float64, rows), x), m.MulVec(make([]float64, rows), x)); !(e <= 1e-13) {
		t.Errorf("MulVec relative error %v", e)
	}
	y := make([]float64, rows)
	for j := range y {
		y[j] = 1e-9 * float64(j%5+1)
	}
	y[300] = 1
	if e := relErr(p.MulVecT(make([]float64, cols), y), m.MulVecT(make([]float64, cols), y)); !(e <= 1e-13) {
		t.Errorf("MulVecT relative error %v", e)
	}
}

func TestBandedConstantMatrix(t *testing.T) {
	// Empty runs and no edges: every entry is the floor.
	p := NewPlateau(8, 8, 0.125, 0.5)
	for i := 0; i < 8; i++ {
		p.AddColumn(i, i, nil, nil)
	}
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for j, v := range p.MulVec(make([]float64, 8), x) {
		if v != 4.5 {
			t.Errorf("row %d = %v, want 4.5", j, v)
		}
	}
	for i, v := range p.MulVecT(make([]float64, 8), x) {
		if v != 4.5 {
			t.Errorf("column %d = %v, want 4.5", i, v)
		}
	}
}

func TestBandedDimensionPanics(t *testing.T) {
	p, _ := wavePlateau(8, 8, 0.01, 0.1, 1, randx.New(4))
	partial := NewPlateau(8, 8, 0.01, 0.1)
	partial.AddColumn(2, 3, []float64{0.5}, nil)
	cases := []func(){
		func() { p.MulVec(make([]float64, 7), make([]float64, 8)) },
		func() { p.MulVecT(make([]float64, 7), make([]float64, 8)) },
		func() { EStep(p, make([]float64, 8), make([]float64, 7), make([]float64, 8), make([]float64, 8)) },
		func() { partial.MulVec(make([]float64, 8), make([]float64, 8)) }, // columns missing
		func() { partial.AddColumn(2, 2, nil, nil) },                      // run end moves back
		func() { partial.AddColumn(1, 4, nil, nil) },                      // edge start moves back
		func() { partial.AddColumn(7, 8, nil, []float64{0.5}) },           // edge past the last row
		func() { partial.AddColumn(4, 3, nil, nil) },                      // run ends before it starts
		func() { NewPlateau(0, 8, 0, 0) },
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

func BenchmarkDenseMulVec1024Narrow(b *testing.B) {
	_, m := wavePlateau(1024, 1024, 0.0005, 0.02, 30, randx.New(1))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = 1.0 / 1024
	}
	dst := make([]float64, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkPlateauMulVec1024Narrow(b *testing.B) {
	p, _ := wavePlateau(1024, 1024, 0.0005, 0.02, 30, randx.New(1))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = 1.0 / 1024
	}
	dst := make([]float64, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.MulVec(dst, x)
	}
}
