package matrixx

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// plainChannel exposes only the Channel methods of the channel it wraps, as
// a channel defined outside this package (grr's) does.
type plainChannel struct{ Channel }

func TestEStepMatchesTwoPass(t *testing.T) {
	rng := randx.New(10)
	for _, shape := range [][2]int{{64, 64}, {200, 128}, {257, 255}} {
		rows, cols := shape[0], shape[1]
		dense := waveMatrix(rows, cols, max(rows/4, 1))
		plateau, _ := wavePlateau(rows, cols, 0.2/float64(rows), 0.8/float64(rows/4), rows/8, rng)
		x := randVec(cols, rng)
		counts := make([]float64, rows)
		for j := range counts {
			counts[j] = float64((j * 13) % 17)
		}
		for _, tc := range []struct {
			name string
			ch   Channel
		}{{"dense", dense}, {"plateau", plateau}} {
			// Reference: the two-pass E-step, a product pass and then a
			// pass over its result that sums the log-likelihood as it goes.
			denom := tc.ch.MulVec(make([]float64, rows), x)
			wantR, wantL := make([]float64, rows), make([]float64, rows)
			var wantLL float64
			for j := range denom {
				if counts[j] == 0 {
					continue
				}
				dj := denom[j]
				if dj < DenomFloor {
					dj = DenomFloor
				}
				wantR[j] = counts[j] / dj
				wantL[j] = counts[j] * math.Log(dj)
				wantLL += counts[j] * math.Log(dj)
			}

			// EStep produces the same bits on the channel itself and
			// behind a wrapper that shows only its Channel methods; its
			// serial fold of ll reproduces the two-pass accumulation, and
			// without ll it leaves the same ratios and returns 0.
			for _, ec := range []struct {
				name string
				ch   Channel
			}{{"direct", tc.ch}, {"wrapped", plainChannel{tc.ch}}} {
				label := tc.name + " EStep " + ec.name
				r, l := make([]float64, rows), make([]float64, rows)
				ll := EStep(ec.ch, r, l, x, counts)
				bitsEqual(t, label+" ratio", r, wantR)
				bitsEqual(t, label+" ll", l, wantL)
				if math.Float64bits(ll) != math.Float64bits(wantLL) {
					t.Fatalf("%s: log-likelihood %v vs %v", label, ll, wantLL)
				}
				r = make([]float64, rows)
				if ll := EStep(ec.ch, r, nil, x, counts); ll != 0 {
					t.Fatalf("%s without ll: returned %v, want 0", label, ll)
				}
				bitsEqual(t, label+" ratio without ll", r, wantR)
			}
		}
	}
}

func TestEStepDimensionPanics(t *testing.T) {
	m := waveMatrix(8, 6, 2)
	vec := func(n int) []float64 { return make([]float64, n) }
	cases := []func(){
		func() { EStep(m, vec(8), vec(7), vec(6), vec(8)) },
		func() { EStep(m, vec(8), vec(8), vec(5), vec(8)) },
		func() { EStep(m, vec(8), nil, vec(5), vec(8)) },
		func() { EStep(plainChannel{m}, vec(8), vec(7), vec(6), vec(8)) },
		func() { EStep(plainChannel{m}, vec(8), vec(8), vec(6), vec(7)) },
		func() { EStep(plainChannel{m}, vec(7), vec(7), vec(6), vec(7)) },
		func() { EStep(plainChannel{m}, vec(8), nil, vec(6), vec(7)) },
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
