// Package matrixx provides the transition channels the EM reconstruction
// runs on, behind one interface (Channel: M·x and Mᵀ·y, plus the fused
// E-step of RatioChannel):
//
//   - Matrix, a dense row-major matrix: the reference every structured
//     channel is tested against, and the production channel of the General
//     Wave shapes (ρ < 1). Its products are blocked, can be partitioned
//     across a worker pool (Parallelize), and are bit-identical to the
//     textbook one-accumulator loops under any partition.
//   - Plateau, the Square Wave's structure — a floor, one plateau run and a
//     few edge cells per column — whose products are linear-time sliding
//     window sweeps with compensated sums. They add in a different order
//     than the dense loops, so they match the dense products within a
//     tested bound (1e-12 relative per element), not bit for bit.
package matrixx

import (
	"fmt"

	"repro/internal/mathx"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero matrix with the given shape. It panics on non-positive
// dimensions.
func New(rows, cols int) *Matrix {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("matrixx: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be non-empty and of
// equal length. The data is copied.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrixx: FromRows needs non-empty data")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("matrixx: FromRows with ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes dst = M·x. dst must have length Rows and x length Cols;
// dst must not alias x. It returns dst for chaining.
func (m *Matrix) MulVec(dst, x []float64) []float64 {
	if len(x) != m.cols || len(dst) != m.rows {
		panic("matrixx: MulVec dimension mismatch")
	}
	m.MulVecRows(dst, x, 0, m.rows)
	return dst
}

// MulVecRows computes the dst[lo:hi] rows of M·x, leaving the rest of dst
// untouched. Disjoint row ranges are independent, so a row partition across
// goroutines reproduces MulVec bit for bit (each dst entry is accumulated in
// the same order as the serial product).
//
// Rows are processed four at a time: each row keeps its own accumulator and
// adds its terms in exactly the serial left-to-right order, so the result is
// bit-identical to the one-row loop — but the four independent accumulator
// chains hide the floating-point add latency that a single dependent chain
// is bound by, which is where the dense product's time actually goes.
func (m *Matrix) MulVecRows(dst, x []float64, lo, hi int) {
	if len(x) != m.cols || len(dst) != m.rows || lo < 0 || hi > m.rows || lo > hi {
		panic("matrixx: MulVecRows dimension mismatch")
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0, d1, d2, d3 := m.dot4(x, i)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < hi; i++ {
		dst[i] = dotRow(m.Row(i), x)
	}
}

// dot4 computes the dot products of rows i..i+3 against x, each accumulated
// in serial order on its own chain.
func (m *Matrix) dot4(x []float64, i int) (d0, d1, d2, d3 float64) {
	c := m.cols
	r0 := m.data[(i+0)*c : (i+1)*c : (i+1)*c]
	r1 := m.data[(i+1)*c : (i+2)*c : (i+2)*c]
	r2 := m.data[(i+2)*c : (i+3)*c : (i+3)*c]
	r3 := m.data[(i+3)*c : (i+4)*c : (i+4)*c]
	// Reslicing to len(x) lets the compiler drop the bounds checks in the
	// inner loop (len(x) == cols == len(rk) is established by the caller).
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for j, xj := range x {
		d0 += r0[j] * xj
		d1 += r1[j] * xj
		d2 += r2[j] * xj
		d3 += r3[j] * xj
	}
	return d0, d1, d2, d3
}

// dotRow is the single-row serial dot product.
func dotRow(row, x []float64) float64 {
	var acc float64
	for j, v := range row {
		acc += v * x[j]
	}
	return acc
}

// MulVecT computes dst = Mᵀ·x (x over rows, dst over columns) without
// materializing the transpose. dst must not alias x.
func (m *Matrix) MulVecT(dst, x []float64) []float64 {
	if len(x) != m.rows || len(dst) != m.cols {
		panic("matrixx: MulVecT dimension mismatch")
	}
	m.MulVecTCols(dst, x, 0, m.cols)
	return dst
}

// MulVecTCols computes the dst[lo:hi] columns of Mᵀ·x, leaving the rest of
// dst untouched. Each output column still accumulates over rows in
// increasing order, so a column partition across goroutines reproduces
// MulVecT bit for bit.
//
// Rows are consumed four at a time when all four weights are non-zero: each
// output entry receives its four contributions as separate adds in the same
// increasing-row order the one-row loop uses (bit-identical), but one pass
// over the output segment replaces four. Blocks containing a zero weight
// fall back to the one-row loop so the serial skip-zero semantics are
// preserved exactly.
func (m *Matrix) MulVecTCols(dst, x []float64, lo, hi int) {
	if len(x) != m.rows || len(dst) != m.cols || lo < 0 || hi > m.cols || lo > hi {
		panic("matrixx: MulVecTCols dimension mismatch")
	}
	seg := dst[lo:hi]
	for j := range seg {
		seg[j] = 0
	}
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			m.scatterRows(seg, x, i, i+4, lo, hi)
			continue
		}
		c := m.cols
		r0 := m.data[(i+0)*c+lo : (i+0)*c+hi : (i+0)*c+hi]
		r1 := m.data[(i+1)*c+lo : (i+1)*c+hi : (i+1)*c+hi]
		r2 := m.data[(i+2)*c+lo : (i+2)*c+hi : (i+2)*c+hi]
		r3 := m.data[(i+3)*c+lo : (i+3)*c+hi : (i+3)*c+hi]
		r0, r1, r2, r3 = r0[:len(seg)], r1[:len(seg)], r2[:len(seg)], r3[:len(seg)]
		for j := range seg {
			s := seg[j]
			s += r0[j] * x0
			s += r1[j] * x1
			s += r2[j] * x2
			s += r3[j] * x3
			seg[j] = s
		}
	}
	m.scatterRows(seg, x, i, m.rows, lo, hi)
}

// scatterRows adds rows [i0, i1) of the transpose product into seg one row
// at a time — the serial loop, with its skip of zero weights.
func (m *Matrix) scatterRows(seg, x []float64, i0, i1, lo, hi int) {
	for i := i0; i < i1; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols+lo : i*m.cols+hi : i*m.cols+hi]
		row = row[:len(seg)]
		for j, v := range row {
			seg[j] += v * xi
		}
	}
}

// ColSums returns the sum of each column, compensated (Neumaier) so that a
// column of thousands of near-equal entries sums to within an ulp or two.
func (m *Matrix) ColSums() []float64 {
	sums := make([]float64, m.cols)
	comp := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j], comp[j] = mathx.AddCompensated(sums[j], comp[j], v)
		}
	}
	for j, c := range comp {
		sums[j] += c
	}
	return sums
}

// NormalizeCols scales each column to sum to 1. Columns that sum to zero are
// left untouched. This is used to squash residual quadrature error in
// transition matrices, whose columns are probability distributions.
func (m *Matrix) NormalizeCols() {
	sums := m.ColSums()
	for j, s := range sums {
		if s == 0 {
			continue
		}
		sums[j] = 1 / s
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= sums[j]
		}
	}
}

// IsColumnStochastic reports whether every entry is non-negative and every
// column sums to 1 within tol.
func (m *Matrix) IsColumnStochastic(tol float64) bool {
	for _, v := range m.data {
		if v < -tol {
			return false
		}
	}
	for _, s := range m.ColSums() {
		if !mathx.AlmostEqual(s, 1, tol) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute entry-wise difference between m
// and other, which must have the same shape.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.rows != other.rows || m.cols != other.cols {
		panic("matrixx: MaxAbsDiff shape mismatch")
	}
	var worst float64
	for i, v := range m.data {
		d := v - other.data[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
