package matrixx

import (
	"fmt"

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
	lo, a, c, hi []int
	scale        []float64
	// The edge excesses of column i, rows [lo_i, a_i) then [c_i, hi_i),
	// are ev[eoff[i]:eoff[i+1]].
	eoff []int
	ev   []float64
}

// NewPlateau returns a rows×cols plateau channel with the given floor and
// plateau excess and no columns yet: add them in order with AddColumn before
// using the channel.
func NewPlateau(rows, cols int, floor, plat float64) *Plateau {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("matrixx: invalid plateau shape %dx%d", rows, cols))
	}
	mk := func() []int { return make([]int, 0, cols) }
	return &Plateau{rows: rows, cols: cols, floor: floor, plat: plat,
		lo: mk(), a: mk(), c: mk(), hi: mk(), scale: make([]float64, 0, cols),
		eoff: append(make([]int, 0, cols+1), 0), ev: make([]float64, 0, 4*cols)}
}

// AddColumn appends the next column, with scale 1: plateau run [a, c), and
// edge excesses left for the rows just before a and right for the rows from
// c on. Every bound must be monotone across columns.
func (p *Plateau) AddColumn(a, c int, left, right []float64) {
	n := len(p.a)
	lo, hi := a-len(left), c+len(right)
	if n == p.cols || lo < 0 || a > c || hi > p.rows ||
		(n > 0 && (lo < p.lo[n-1] || a < p.a[n-1] || c < p.c[n-1] || hi < p.hi[n-1])) {
		panic(fmt.Sprintf("matrixx: plateau column %d [%d,%d,%d,%d) is not monotone in %d rows",
			n, lo, a, c, hi, p.rows))
	}
	p.lo, p.a, p.c, p.hi = append(p.lo, lo), append(p.a, a), append(p.c, c), append(p.hi, hi)
	p.scale = append(p.scale, 1)
	p.ev = append(append(p.ev, left...), right...)
	p.eoff = append(p.eoff, len(p.ev))
}

// NormalizeCols scales each column to sum to 1, from its closed-form sum
// rows·floor + (c−a)·plat + Σ edge excess: O(1 + edge cells) per column.
func (p *Plateau) NormalizeCols() {
	for i := range p.scale {
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
	if len(p.a) != p.cols || dst != wantDst || x != wantX {
		panic(fmt.Sprintf("matrixx: Plateau.%s dimension mismatch (%d,%d) vs (%d,%d) with %d/%d columns",
			what, dst, x, wantDst, wantX, len(p.a), p.cols))
	}
}

// MulVec implements Channel.
func (p *Plateau) MulVec(dst, x []float64) []float64 {
	p.check("MulVec", len(dst), len(x), p.rows, p.cols)
	p.scatterEdges(dst, x)
	p.sweep(dst, nil, x, nil)
	return dst
}

// MulVecRatio implements RatioChannel: the denominators are accumulated
// exactly as MulVec accumulates them, in ratio itself, and each row's ratio
// and log-likelihood term are finished in the same row sweep.
func (p *Plateau) MulVecRatio(ratio, ll, x, counts []float64) {
	p.check("MulVecRatio", len(ratio), len(x), p.rows, p.cols)
	if len(ll) != p.rows || len(counts) != p.rows {
		panic("matrixx: Plateau.MulVecRatio dimension mismatch")
	}
	p.scatterEdges(ratio, x)
	p.sweep(ratio, ll, x, counts)
}

// scatterEdges sets dst to the edge-cell part of M·x. (Scattering per
// column beats gathering per row: the gather's short data-dependent loops
// mispredict.)
func (p *Plateau) scatterEdges(dst, x []float64) {
	clear(dst)
	for i, xi := range x {
		u := p.scale[i] * xi
		ev := p.ev[p.eoff[i]:p.eoff[i+1]]
		lo, a := p.lo[i], p.a[i]
		for k, e := range ev[:a-lo] {
			dst[lo+k] += e * u
		}
		c := p.c[i]
		for k, e := range ev[a-lo:] {
			dst[c+k] += e * u
		}
	}
}

// sweep completes M·x row by row: on entry dst holds the edge part, and row
// j becomes floor·Σu + plat·W_j + dst[j], where u_i = s_i·x_i and W_j is the
// sliding sum of u_i over the columns whose run covers j. With counts set,
// row j's E-step ratio goes to dst[j] and its ll term to ll[j] instead.
func (p *Plateau) sweep(dst, ll, x, counts []float64) {
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
		den := floor + p.plat*(w+wc) + dst[j]
		if counts == nil {
			dst[j] = den
		} else {
			ratioRow(dst, ll, counts, j, den)
		}
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
		ev := p.ev[p.eoff[i]:p.eoff[i+1]]
		for k, v := range y[p.lo[i]:a] {
			acc += ev[k] * v
		}
		ev = ev[a-p.lo[i]:]
		for k, v := range y[c:p.hi[i]] {
			acc += ev[k] * v
		}
		dst[i] = p.scale[i] * acc
	}
	return dst
}

// Compile-time interface checks.
var (
	_ Channel      = (*Matrix)(nil)
	_ Channel      = (*Plateau)(nil)
	_ RatioChannel = (*Plateau)(nil)
)
