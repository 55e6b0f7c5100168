package matrixx

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Channel is the minimal matrix surface the EM reconstruction needs: the
// forward map (distribution → expected report histogram) and its transpose.
// Both *Matrix and *Plateau satisfy it.
type Channel interface {
	Rows() int
	Cols() int
	// MulVec computes dst = M·x (len(dst) = Rows, len(x) = Cols).
	MulVec(dst, x []float64) []float64
	// MulVecT computes dst = Mᵀ·x (len(dst) = Cols, len(x) = Rows).
	MulVecT(dst, x []float64) []float64
}

// Plateau is the structured form of a Square Wave transition matrix. Column
// i is a constant floor, a constant plateau excess on one run of rows
// [a_i, c_i), and edge cells with their own excess on the rows [lo_i, a_i)
// just before the run and [c_i, hi_i) just after it, all scaled by a
// per-column normalization s_i:
//
//	M[j][i] = s_i·(floor + plat)       for a_i ≤ j < c_i,
//	M[j][i] = s_i·(floor + excess_ij)  for lo_i ≤ j < a_i or c_i ≤ j < hi_i,
//	M[j][i] = s_i·floor                otherwise.
//
// lo_i, a_i, c_i and hi_i never decrease with i, so the run part of M·x is
// a sliding-window sum over x and that of Mᵀ·y a sliding-window sum over y:
// every product costs O(rows + cols + edge cells) instead of O(rows·cols).
// The window sums add and remove terms, so they are compensated (Neumaier):
// the floor rows far from a concentrated x stay accurate to a few ulps
// whatever the plateau/floor ratio e^ε.
//
// A Plateau keeps no scratch state: once its last column is added it is
// read-only and safe for concurrent products.
type Plateau struct {
	rows, cols   int
	floor, plat  float64
	added        int // columns added so far
	lo, a, c, hi []int
	scale        []float64
	// The edge excesses of column i, rows [lo_i, a_i) then [c_i, hi_i),
	// are ev[eoff[i]:eoff[i+1]], on the rows erow[eoff[i]:eoff[i+1]].
	eoff []int
	ev   []float64
	erow []int32
}

// NewPlateau returns a rows×cols plateau channel with the given floor and
// plateau excess and no columns yet: add them in order with AddColumn before
// using the channel.
func NewPlateau(rows, cols int, floor, plat float64) *Plateau {
	if rows < 1 || cols < 1 || rows > math.MaxInt32 {
		panic(fmt.Sprintf("matrixx: invalid plateau shape %dx%d", rows, cols))
	}
	mk := func() []int { return make([]int, cols) }
	return &Plateau{rows: rows, cols: cols, floor: floor, plat: plat,
		lo: mk(), a: mk(), c: mk(), hi: mk(), scale: make([]float64, cols),
		eoff: make([]int, cols+1), ev: make([]float64, 0, 4*cols)}
}

// AddColumn appends the next column, with scale 1: plateau run [a, c), and
// edge excesses left for the rows just before a and right for the rows from
// c on. Every bound must be monotone across columns.
func (p *Plateau) AddColumn(a, c int, left, right []float64) {
	n := p.added
	lo, hi := a-len(left), c+len(right)
	if n == p.cols || lo < 0 || a > c || hi > p.rows ||
		(n > 0 && (lo < p.lo[n-1] || a < p.a[n-1] || c < p.c[n-1] || hi < p.hi[n-1])) {
		panic(fmt.Sprintf("matrixx: plateau column %d [%d,%d,%d,%d) is not monotone in %d rows",
			n, lo, a, c, hi, p.rows))
	}
	// The bounds are written by index and erow is built once, with the last
	// column: storing a slice header in p runs a GC write barrier.
	p.lo[n], p.a[n], p.c[n], p.hi[n] = lo, a, c, hi
	p.scale[n] = 1
	p.ev = append(append(p.ev, left...), right...)
	p.eoff[n+1] = len(p.ev)
	if p.added++; p.added < p.cols {
		return
	}
	rows := make([]int32, 0, len(p.ev))
	for i := range p.a {
		for j := p.lo[i]; j < p.a[i]; j++ {
			rows = append(rows, int32(j))
		}
		for j := p.c[i]; j < p.hi[i]; j++ {
			rows = append(rows, int32(j))
		}
	}
	p.erow = rows
}

// NormalizeCols scales each column to sum to 1, from its closed-form sum
// rows·floor + (c−a)·plat + Σ edge excess: O(1 + edge cells) per column.
func (p *Plateau) NormalizeCols() {
	for i := range p.added {
		sum := float64(p.rows)*p.floor + float64(p.c[i]-p.a[i])*p.plat
		for _, e := range p.ev[p.eoff[i]:p.eoff[i+1]] {
			sum += e
		}
		p.scale[i] = 1 / sum
	}
}

// Rows implements Channel.
func (p *Plateau) Rows() int { return p.rows }

// Cols implements Channel.
func (p *Plateau) Cols() int { return p.cols }

// At returns the (j, i) entry (tests and diagnostics).
func (p *Plateau) At(j, i int) float64 {
	v := p.floor
	switch {
	case j >= p.lo[i] && j < p.a[i]:
		v += p.ev[p.eoff[i]+j-p.lo[i]]
	case j >= p.a[i] && j < p.c[i]:
		v += p.plat
	case j >= p.c[i] && j < p.hi[i]:
		v += p.ev[p.eoff[i]+p.a[i]-p.lo[i]+j-p.c[i]]
	}
	return p.scale[i] * v
}

// MaxEdges returns the largest number of edge cells any column stores.
func (p *Plateau) MaxEdges() int {
	var m int
	for i := 0; i < p.cols; i++ {
		m = max(m, p.eoff[i+1]-p.eoff[i])
	}
	return m
}

func (p *Plateau) check(what string, dst, x, wantDst, wantX int) {
	if p.added != p.cols || dst != wantDst || x != wantX {
		panic(fmt.Sprintf("matrixx: Plateau.%s dimension mismatch (%d,%d) vs (%d,%d) with %d/%d columns",
			what, dst, x, wantDst, wantX, p.added, p.cols))
	}
}

// MulVec implements Channel.
func (p *Plateau) MulVec(dst, x []float64) []float64 {
	p.check("MulVec", len(dst), len(x), p.rows, p.cols)
	p.scatterEdges(dst, x)
	p.sweep(dst, x)
	return dst
}

// scatterEdges sets dst to the edge-cell part of M·x. (Scattering per
// column beats gathering per row: the gather's short data-dependent loops
// mispredict.)
func (p *Plateau) scatterEdges(dst, x []float64) {
	clear(dst)
	for i, xi := range x {
		u := p.scale[i] * xi
		k0, k1 := p.eoff[i], p.eoff[i+1]
		rows := p.erow[k0:k1]
		for k, e := range p.ev[k0:k1] {
			dst[rows[k]] += e * u
		}
	}
}

// sweep completes M·x row by row: on entry dst holds the edge part, and row
// j becomes floor·Σu + plat·W_j + dst[j], where u_i = s_i·x_i and W_j is the
// sliding sum of u_i over the columns whose run covers j.
func (p *Plateau) sweep(dst, x []float64) {
	var sum, sc float64
	for i, xi := range x {
		sum, sc = mathx.AddCompensated(sum, sc, p.scale[i]*xi)
	}
	floor := p.floor * (sum + sc)
	var w, wc float64
	wlo, whi := 0, 0 // the columns whose run covers j
	for j := range dst {
		for ; whi < p.cols && p.a[whi] <= j; whi++ {
			w, wc = mathx.AddCompensated(w, wc, p.scale[whi]*x[whi])
		}
		for ; wlo < whi && p.c[wlo] <= j; wlo++ {
			w, wc = mathx.AddCompensated(w, wc, -(p.scale[wlo] * x[wlo]))
		}
		if wlo == whi {
			w, wc = 0, 0
		}
		dst[j] = floor + p.plat*(w+wc) + dst[j]
	}
}

// MulVecT implements Channel: column i is s_i·(floor·Σy + plat·Σ_run y +
// Σ_edges excess·y), the run sums sliding down y with the monotone runs.
func (p *Plateau) MulVecT(dst, y []float64) []float64 {
	p.check("MulVecT", len(dst), len(y), p.cols, p.rows)
	floor := p.floor * mathx.Sum(y)
	var w, wc float64
	wlo, whi := 0, 0
	for i := range dst {
		a, c := p.a[i], p.c[i]
		if whi <= a {
			wlo, whi, w, wc = a, a, 0, 0
		}
		for ; whi < c; whi++ {
			w, wc = mathx.AddCompensated(w, wc, y[whi])
		}
		for ; wlo < a; wlo++ {
			w, wc = mathx.AddCompensated(w, wc, -y[wlo])
		}
		acc := floor + p.plat*(w+wc)
		k0, k1 := p.eoff[i], p.eoff[i+1]
		rows := p.erow[k0:k1]
		for k, e := range p.ev[k0:k1] {
			acc += e * y[rows[k]]
		}
		dst[i] = p.scale[i] * acc
	}
	return dst
}

// Compile-time interface checks.
var (
	_ Channel = (*Matrix)(nil)
	_ Channel = (*Plateau)(nil)
)
