package matrixx

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// waveMatrix builds a column-stochastic wave-shaped dense matrix (constant
// floor plus a contiguous per-column band).
func waveMatrix(rows, cols, band int) *Matrix {
	m := New(rows, cols)
	base := 0.2 / float64(rows)
	for i := 0; i < cols; i++ {
		lo := i * (rows - band) / maxInt(cols-1, 1)
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

func TestRangeKernelsMatchSerialDense(t *testing.T) {
	rng := randx.New(7)
	for _, shape := range [][2]int{{64, 64}, {200, 128}, {128, 200}, {257, 255}} {
		rows, cols := shape[0], shape[1]
		m := waveMatrix(rows, cols, maxInt(rows/4, 1))
		x := randVec(cols, rng)
		y := randVec(rows, rng)

		want := m.MulVec(make([]float64, rows), x)
		got := make([]float64, rows)
		for _, pieces := range []int{1, 2, 3, 5} {
			for p := 0; p < pieces; p++ {
				lo, hi := rows*p/pieces, rows*(p+1)/pieces
				m.MulVecRows(got, x, lo, hi)
			}
			bitsEqual(t, "dense MulVecRows", got, want)
		}

		wantT := m.MulVecT(make([]float64, cols), y)
		gotT := make([]float64, cols)
		for _, pieces := range []int{1, 2, 3, 5} {
			for p := 0; p < pieces; p++ {
				lo, hi := cols*p/pieces, cols*(p+1)/pieces
				m.MulVecTCols(gotT, y, lo, hi)
			}
			bitsEqual(t, "dense MulVecTCols", gotT, wantT)
		}
	}
}

func TestParallelizeBitIdentical(t *testing.T) {
	rng := randx.New(9)
	rows, cols := 1024, 1024 // above parallelMinWork
	dense := waveMatrix(rows, cols, 600)
	x := randVec(cols, rng)
	y := randVec(rows, rng)
	counts := make([]float64, rows)
	for j := range counts {
		counts[j] = float64((j * 7) % 23) // zeros included: the ll skip path
	}

	for _, tc := range []struct {
		name   string
		serial RatioChannel
	}{{"dense", dense}} {
		if rows*cols < parallelMinWork {
			t.Fatalf("%s: test channel under parallelMinWork; grow it", tc.name)
		}
		for _, workers := range []int{2, 3, 8, -1} {
			par := Parallelize(tc.serial, workers)
			if _, ok := par.(*ParallelChannel); !ok && workers != -1 {
				t.Fatalf("%s: Parallelize(workers=%d) did not wrap", tc.name, workers)
			}
			bitsEqual(t, tc.name+" parallel MulVec",
				par.MulVec(make([]float64, rows), x),
				tc.serial.MulVec(make([]float64, rows), x))
			bitsEqual(t, tc.name+" parallel MulVecT",
				par.MulVecT(make([]float64, cols), y),
				tc.serial.MulVecT(make([]float64, cols), y))
			if rc, ok := par.(RatioChannel); ok {
				wantR, wantL := make([]float64, rows), make([]float64, rows)
				gotR, gotL := make([]float64, rows), make([]float64, rows)
				tc.serial.MulVecRatio(wantR, wantL, x, counts)
				rc.MulVecRatio(gotR, gotL, x, counts)
				bitsEqual(t, tc.name+" parallel MulVecRatio ratio", gotR, wantR)
				bitsEqual(t, tc.name+" parallel MulVecRatio ll", gotL, wantL)
			} else {
				t.Fatalf("%s: Parallelize result lost the fused kernel", tc.name)
			}
		}
	}
}

func TestFusedRatioMatchesUnfused(t *testing.T) {
	rng := randx.New(10)
	for _, shape := range [][2]int{{64, 64}, {200, 128}, {257, 255}} {
		rows, cols := shape[0], shape[1]
		dense := waveMatrix(rows, cols, maxInt(rows/4, 1))
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
			// Reference: the unfused E-step exactly as package em ran it.
			denom := tc.ch.MulVec(make([]float64, rows), x)
			wantR, wantL := make([]float64, rows), make([]float64, rows)
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
			}
			gotR, gotL := make([]float64, rows), make([]float64, rows)
			tc.ch.MulVecRatio(gotR, gotL, x, counts)
			bitsEqual(t, tc.name+" fused ratio", gotR, wantR)
			bitsEqual(t, tc.name+" fused ll", gotL, wantL)

			// Partitioned fused rows reproduce the one-shot fused pass.
			rc, ok := tc.ch.(RangeChannel)
			if !ok {
				continue
			}
			gotR2, gotL2 := make([]float64, rows), make([]float64, rows)
			for p := 0; p < 5; p++ {
				lo, hi := rows*p/5, rows*(p+1)/5
				rc.MulVecRatioRows(gotR2, gotL2, x, counts, lo, hi)
			}
			bitsEqual(t, tc.name+" fused ratio rows", gotR2, wantR)
			bitsEqual(t, tc.name+" fused ll rows", gotL2, wantL)
		}
	}
}

func TestParallelizeDegenerate(t *testing.T) {
	m := waveMatrix(32, 32, 8)
	if Parallelize(m, 0) != Channel(m) {
		t.Error("workers=0 should return the channel unchanged")
	}
	if Parallelize(m, 1) != Channel(m) {
		t.Error("workers=1 should return the channel unchanged")
	}
	// A channel under the flops threshold comes back unwrapped: the serial
	// kernel IS its fast path, whatever the requested parallelism.
	if Parallelize(m, 4) != Channel(m) {
		t.Error("small matrix should be returned unwrapped")
	}
}

func TestParallelizeWorkThreshold(t *testing.T) {
	// The dense channel wraps above the flops threshold; a plateau of the
	// same shape has no range kernels — its products are linear sweeps — so
	// it always comes back unwrapped.
	rows, cols := 1024, 1024
	dense := waveMatrix(rows, cols, 16)
	plateau, _ := wavePlateau(rows, cols, 0.0005, 0.02, 8, randx.New(11))
	if rows*cols < parallelMinWork {
		t.Fatalf("dense work %d unexpectedly under threshold", rows*cols)
	}
	if _, ok := Parallelize(dense, 4).(*ParallelChannel); !ok {
		t.Error("dense channel above threshold should wrap")
	}
	if Parallelize(plateau, 4) != Channel(plateau) {
		t.Error("plateau channel should be returned unwrapped")
	}
}
