package matrixx

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// plainChannel exposes only the Channel methods of the channel it wraps, so
// EStep cannot see a fused kernel and takes its unfused path.
type plainChannel struct{ Channel }

func TestFusedRatioMatchesUnfused(t *testing.T) {
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
			ch   RatioChannel
		}{{"dense", dense}, {"plateau", plateau}} {
			// Reference: the two-pass E-step package em used to run for
			// channels without a fused kernel.
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
			gotR, gotL := make([]float64, rows), make([]float64, rows)
			tc.ch.MulVecRatio(gotR, gotL, x, counts)
			bitsEqual(t, tc.name+" fused ratio", gotR, wantR)
			bitsEqual(t, tc.name+" fused ll", gotL, wantL)

			// EStep produces the fused kernel's bits whether it runs that
			// kernel or, behind a wrapper that hides it, MulVec and then
			// ratioRow per row; its serial fold of ll reproduces the
			// two-pass accumulation.
			for _, ec := range []struct {
				name string
				ch   Channel
			}{{"fused", tc.ch}, {"unfused", plainChannel{tc.ch}}} {
				label := tc.name + " EStep " + ec.name
				r, l := make([]float64, rows), make([]float64, rows)
				ll := EStep(ec.ch, r, l, x, counts)
				bitsEqual(t, label+" ratio", r, wantR)
				bitsEqual(t, label+" ll", l, wantL)
				if math.Float64bits(ll) != math.Float64bits(wantLL) {
					t.Fatalf("%s: log-likelihood %v vs %v", label, ll, wantLL)
				}
			}
		}
	}
}

func TestEStepDimensionPanics(t *testing.T) {
	m := waveMatrix(8, 6, 2)
	vec := func(n int) []float64 { return make([]float64, n) }
	cases := []func(){
		func() { m.MulVecRatio(vec(8), vec(7), vec(6), vec(8)) },
		func() { m.MulVecRatio(vec(8), vec(8), vec(5), vec(8)) },
		func() { EStep(plainChannel{m}, vec(8), vec(7), vec(6), vec(8)) },
		func() { EStep(plainChannel{m}, vec(8), vec(8), vec(6), vec(7)) },
		func() { EStep(plainChannel{m}, vec(7), vec(7), vec(6), vec(7)) },
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
