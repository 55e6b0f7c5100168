package matrixx

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/randx"
)

// The plateau products walk each column's edge cells as one run, through a
// per-cell row index, and the E-step finishes its rows after MulVec instead
// of inside the row sweep. Every bit of every product is pinned against the
// kernels they replaced, kept below verbatim on oraclePlateau (only the
// receiver changed), over random monotone plateaus here and over the Square
// Wave channels in oracle_sw_test.go.

// oraclePlateau runs the replaced kernels on a Plateau's fields.
type oraclePlateau struct{ *Plateau }

// scatterEdges sets dst to the edge-cell part of M·x. (Scattering per
// column beats gathering per row: the gather's short data-dependent loops
// mispredict.)
func (p oraclePlateau) scatterEdges(dst, x []float64) {
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
func (p oraclePlateau) sweep(dst, ll, x, counts []float64) {
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
func (p oraclePlateau) MulVecT(dst, y []float64) []float64 {
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

// ratioRow finishes one fused E-step row from its accumulated denominator.
func ratioRow(ratio, ll, counts []float64, j int, denom float64) {
	c := counts[j]
	if c == 0 {
		ratio[j] = 0
		ll[j] = 0
		return
	}
	if denom < DenomFloor {
		denom = DenomFloor
	}
	ratio[j] = c / denom
	ll[j] = c * math.Log(denom)
}

// CheckPlateauOracle compares p's MulVec and MulVecT, and EStep on p with
// and without its log-likelihood, with the replaced kernels bit for bit, on
// vectors drawn from seed: a random x with a zero, an x concentrated on one
// column, a y spanning 16 decades and counts with zeros. It returns the
// first difference. (Exported for oracle_sw_test.go, which runs in package
// matrixx_test so that it can build the Square Wave channels.)
func CheckPlateauOracle(p *Plateau, seed uint64) error {
	o := oraclePlateau{p}
	rng := randx.New(seed)
	rows, cols := p.Rows(), p.Cols()
	conc := make([]float64, cols)
	conc[cols/3] = 1
	counts, y := make([]float64, rows), make([]float64, rows)
	for j := range counts {
		counts[j] = float64(rng.IntN(5))
		y[j] = math.Exp(rng.Uniform(-18, 18))
	}
	same := func(what string, got, want []float64) error {
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				return fmt.Errorf("%s[%d] = %v, want %v", what, k, got[k], want[k])
			}
		}
		return nil
	}
	for _, x := range [][]float64{randVec(cols, rng), conc} {
		want := make([]float64, rows)
		o.scatterEdges(want, x)
		o.sweep(want, nil, x, nil)
		if err := same("MulVec", p.MulVec(make([]float64, rows), x), want); err != nil {
			return err
		}

		wantR, wantL := make([]float64, rows), make([]float64, rows)
		o.scatterEdges(wantR, x)
		o.sweep(wantR, wantL, x, counts)
		var wantLL float64
		for _, t := range wantL {
			wantLL += t
		}
		r, l := make([]float64, rows), make([]float64, rows)
		ll := EStep(p, r, l, x, counts)
		if err := same("EStep ratio", r, wantR); err != nil {
			return err
		}
		if err := same("EStep ll", l, wantL); err != nil {
			return err
		}
		if math.Float64bits(ll) != math.Float64bits(wantLL) {
			return fmt.Errorf("EStep log-likelihood %v, want %v", ll, wantLL)
		}
		r = make([]float64, rows)
		if ll := EStep(p, r, nil, x, counts); ll != 0 {
			return fmt.Errorf("EStep without ll returned %v, want 0", ll)
		}
		if err := same("EStep ratio without ll", r, wantR); err != nil {
			return err
		}
	}
	for _, v := range [][]float64{y, counts} {
		want := o.MulVecT(make([]float64, cols), v)
		if err := same("MulVecT", p.MulVecT(make([]float64, cols), v), want); err != nil {
			return err
		}
	}
	return nil
}

// randomPlateau returns a rows×cols plateau whose runs advance by 0–2 rows
// per column (some empty) with 0–3 edge cells on either side, clipped to
// the rows and kept monotone.
func randomPlateau(rows, cols int, rng *randx.Rand) *Plateau {
	p := NewPlateau(rows, cols, 0.3/float64(rows), 2/float64(rows))
	var lo, a, c, hi int
	for i := 0; i < cols; i++ {
		a = min(a+rng.IntN(3), rows)
		c = min(max(c+rng.IntN(3), a), rows)
		lo = max(lo, a-rng.IntN(4))
		hi = min(max(hi, c+rng.IntN(4)), rows)
		edges := make([]float64, a-lo+hi-c)
		for k := range edges {
			edges[k] = rng.Float64() / float64(rows)
		}
		p.AddColumn(a, c, edges[:a-lo], edges[a-lo:])
	}
	p.NormalizeCols()
	return p
}

func TestPlateauMatchesOracle(t *testing.T) {
	rng := randx.New(28)
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.IntN(300)
		rows := max(1, cols+rng.IntN(cols+1)-cols/2)
		p := randomPlateau(rows, cols, rng)
		if err := CheckPlateauOracle(p, uint64(trial)); err != nil {
			t.Fatalf("trial %d (%d×%d): %v", trial, rows, cols, err)
		}
	}
	p, _ := wavePlateau(257, 255, 0.001, 0.01, 20, rng)
	if err := CheckPlateauOracle(p, 1); err != nil {
		t.Fatalf("wave plateau: %v", err)
	}
}
