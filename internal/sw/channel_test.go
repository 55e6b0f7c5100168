package sw

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matrixx"
	"repro/internal/randx"
)

// The linear-time channels are pinned against the dense TransitionMatrix —
// the quadrature/closed-form reference the EM used before — entry by entry
// and product by product, over the ε and granularity grid the collector
// serves.

var (
	channelEps     = []float64{0.1, 0.5, 1, 2, 4, 8, 16}
	channelBuckets = []int{256, 1024, 4096}
)

// channelCase is one plateau channel, its dense reference and the entry
// tolerance between the two; build constructs both (in the subtest, so only
// the running subtests hold a dense matrix).
type channelCase struct {
	name     string
	build    func() (*matrixx.Plateau, *matrixx.Matrix)
	tol      float64
	maxEdges int // 0: output cells finer than input buckets, any count
}

func channelCases(t *testing.T) []channelCase {
	t.Helper()
	buckets := channelBuckets
	if testing.Short() {
		buckets = buckets[:2]
	}
	var cases []channelCase
	for _, eps := range channelEps {
		for _, d := range buckets {
			w := NewSquare(eps)
			dts := []int{d}
			switch d {
			case 256:
				dts = append(dts, 4*d) // output cells finer than input buckets
			case 1024:
				dts = append(dts, 3*d/4) // output cells coarser
			}
			// Where buckets fit inside the band (2b > 1/d), the dense grid
			// rounds each plateau cell's width: its uhi−ulo is outW give or
			// take half an ulp of 1+b, which TransitionMatrix scales by p−q
			// (and which shifts that column's normalization by at most as
			// much again, since the plateau holds mass 2bp < 1). The plateau
			// uses outW itself.
			tol := 1e-15
			if 2*w.B() > 1/float64(d) {
				tol += (w.P() - w.Q()) * (math.Nextafter(w.OutHi(), 3) - w.OutHi())
			}
			for _, dt := range dts {
				// A ramp is one input bucket wide, so it crosses at most
				// two output cells unless those are the narrower.
				maxEdges := 4
				if float64(dt) > float64(d)*(1+2*w.B()) {
					maxEdges = 0
				}
				cases = append(cases, channelCase{fmt.Sprintf("sw/eps=%v/d=%d/dt=%d", eps, d, dt),
					func() (*matrixx.Plateau, *matrixx.Matrix) {
						return w.Channel(d, dt).(*matrixx.Plateau), w.TransitionMatrix(d, dt)
					}, tol, maxEdges})
			}
			s := NewDiscrete(d, eps)
			cases = append(cases, channelCase{fmt.Sprintf("sw-discrete/eps=%v/d=%d", eps, d),
				func() (*matrixx.Plateau, *matrixx.Matrix) { return s.Channel(), s.TransitionMatrix() }, 1e-15, 4})
		}
	}
	return cases
}

// TestChannelMatchesDense pins the plateau channels to the dense reference:
// entries within 1e-15 absolute (plus the reference's own cell-width
// rounding on plateau cells, see channelCases), products within 1e-12
// relative per element.
func TestChannelMatchesDense(t *testing.T) {
	for _, tc := range channelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkChannel(t, tc)
		})
	}
}

func checkChannel(t *testing.T, tc channelCase) {
	ch, dense := tc.build()
	rows, cols := dense.Rows(), dense.Cols()
	if ch.Rows() != rows || ch.Cols() != cols {
		t.Fatalf("plateau is %dx%d, dense %dx%d", ch.Rows(), ch.Cols(), rows, cols)
	}
	if e := ch.MaxEdges(); tc.maxEdges > 0 && e > tc.maxEdges {
		t.Errorf("a column stores %d edge cells, want ≤ %d", e, tc.maxEdges)
	}
	var worst float64
	for i := 0; i < cols; i++ {
		for j := 0; j < rows; j++ {
			worst = math.Max(worst, math.Abs(ch.At(j, i)-dense.At(j, i)))
		}
	}
	if !(worst <= tc.tol) { // NaN fails too
		t.Errorf("max entry deviation %.3g, want ≤ %.3g", worst, tc.tol)
	}
	t.Logf("max entry deviation %.3g (tolerance %.3g), %d edge cells at most", worst, tc.tol, ch.MaxEdges())
	checkProducts(t, ch, dense)
}

// checkProducts compares MulVec, MulVecT and MulVecRatio with the dense
// products on a smooth x, a concentrated x and a y spanning 16 decades.
func checkProducts(t *testing.T, ch *matrixx.Plateau, dense *matrixx.Matrix) {
	t.Helper()
	rows, cols := dense.Rows(), dense.Cols()
	rng := randx.New(uint64(rows*cols) + 5)
	smooth := make([]float64, cols)
	for i := range smooth {
		smooth[i] = 0.5 + rng.Float64()
	}
	conc := make([]float64, cols)
	conc[cols/3] = 1
	conc[cols/3+1] = 1e-9
	wide := make([]float64, rows)
	counts := make([]float64, rows)
	for j := range wide {
		wide[j] = math.Exp(rng.Uniform(-18, 18))
		counts[j] = float64(rng.IntN(5))
	}
	worst := 0.0
	rel := func(got, want []float64) {
		for k := range want {
			worst = math.Max(worst, math.Abs(got[k]-want[k])/math.Abs(want[k]))
		}
	}
	for _, x := range [][]float64{smooth, conc} {
		want := dense.MulVec(make([]float64, rows), x)
		rel(ch.MulVec(make([]float64, rows), x), want)
		ratio, ll := make([]float64, rows), make([]float64, rows)
		ch.MulVecRatio(ratio, ll, x, counts)
		for j, c := range counts {
			if c == 0 {
				if ratio[j] != 0 || ll[j] != 0 {
					t.Fatalf("row %d has no reports but ratio %v, ll %v", j, ratio[j], ll[j])
				}
				continue
			}
			den := math.Max(want[j], matrixx.DenomFloor)
			worst = math.Max(worst, math.Abs(ratio[j]-c/den)/(c/den))
			// ll is c·ln(den): its error is c times den's relative error,
			// so it is compared against c + |ll| (ln den may be near 0).
			worst = math.Max(worst, math.Abs(ll[j]-c*math.Log(den))/(c+math.Abs(c*math.Log(den))))
		}
	}
	for _, y := range [][]float64{wide, counts} {
		rel(ch.MulVecT(make([]float64, cols), y), dense.MulVecT(make([]float64, cols), y))
	}
	if !(worst <= 1e-12) { // NaN fails too
		t.Errorf("max relative product deviation %.3g, want ≤ 1e-12", worst)
	}
	t.Logf("max relative product deviation %.3g", worst)
}
