package em

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/matrixx"
	"repro/internal/randx"
	"repro/internal/sw"
)

// swCounts returns the Square Wave at eps with the optimal bandwidth and a
// plausible aggregated report histogram over d output buckets.
func swCounts(d int, eps float64, seed uint64) (sw.Wave, []float64) {
	w := sw.NewWave(eps, sw.BOpt(eps), 1)
	rng := randx.New(seed)
	counts := make([]float64, d)
	for r := 0; r < 20*d; r++ {
		v := w.Sample(rng.Beta(5, 2), rng)
		j := int((v - w.OutLo()) / (w.OutHi() - w.OutLo()) * float64(d))
		if j < 0 {
			j = 0
		}
		if j >= d {
			j = d - 1
		}
		counts[j]++
	}
	return w, counts
}

// swChannel builds the dense Square Wave transition matrix at granularity d
// and a plausible aggregated report histogram for it.
func swChannel(d int, eps float64, seed uint64) (*matrixx.Matrix, []float64) {
	w, counts := swCounts(d, eps, seed)
	return w.TransitionMatrix(d, d), counts
}

func TestParallelReconstructBitIdenticalDense(t *testing.T) {
	m, counts := swChannel(200, 1.0, 11)
	for _, smoothing := range []bool{false, true} {
		serial := Reconstruct(m, counts, Options{MaxIters: 200, Smoothing: smoothing})
		for _, workers := range []int{2, 3, 7, -1} {
			par := Reconstruct(m, counts, Options{MaxIters: 200, Smoothing: smoothing, Workers: workers})
			if par.Iterations != serial.Iterations || par.Converged != serial.Converged {
				t.Fatalf("smoothing=%v workers=%d: iterations %d/%v vs %d/%v",
					smoothing, workers, par.Iterations, par.Converged,
					serial.Iterations, serial.Converged)
			}
			if par.LogLikelihood != serial.LogLikelihood {
				t.Fatalf("smoothing=%v workers=%d: log-likelihood %v vs %v",
					smoothing, workers, par.LogLikelihood, serial.LogLikelihood)
			}
			for i := range serial.Estimate {
				if math.Float64bits(par.Estimate[i]) != math.Float64bits(serial.Estimate[i]) {
					t.Fatalf("smoothing=%v workers=%d: estimate[%d] = %v vs %v",
						smoothing, workers, i, par.Estimate[i], serial.Estimate[i])
				}
			}
		}
	}
}

// The Square Wave's plateau channel has no range kernels, so Workers leaves
// it serial: any worker count reproduces the serial reconstruction exactly.
func TestParallelReconstructBitIdenticalBanded(t *testing.T) {
	w, counts := swCounts(256, 0.5, 12)
	ch := w.Channel(256, 256)
	serial := Reconstruct(ch, counts, Options{MaxIters: 300, Smoothing: true})
	for _, workers := range []int{2, 4, -1} {
		par := Reconstruct(ch, counts, Options{MaxIters: 300, Smoothing: true, Workers: workers})
		if par.Iterations != serial.Iterations {
			t.Fatalf("workers=%d: %d iterations vs %d", workers, par.Iterations, serial.Iterations)
		}
		for i := range serial.Estimate {
			if math.Float64bits(par.Estimate[i]) != math.Float64bits(serial.Estimate[i]) {
				t.Fatalf("workers=%d: estimate[%d] = %v vs %v",
					workers, i, par.Estimate[i], serial.Estimate[i])
			}
		}
	}
}

// TestConcurrentReconstructSharedChannel runs reconstructions on one shared
// channel from several goroutines, each with its own workspace — the
// collector's refresh pool and the bootstrap CI do exactly this. Channels
// are read-only, so every run must match the serial one (and -race must
// find no write to the channel).
func TestConcurrentReconstructSharedChannel(t *testing.T) {
	w, counts := swCounts(256, 1, 14)
	disc := sw.NewDiscrete(256, 1)
	dcounts := make([]float64, disc.Dt())
	for j := range dcounts {
		dcounts[j] = float64(j % 9)
	}
	opts := Options{MaxIters: 30, MinIters: 30, Smoothing: true}
	for _, tc := range []struct {
		name   string
		ch     matrixx.Channel
		counts []float64
	}{
		{"dense", w.TransitionMatrix(256, 256), counts},
		{"sw", w.Channel(256, 256), counts},
		{"sw-discrete", disc.Channel(), dcounts},
	} {
		want := Reconstruct(tc.ch, tc.counts, opts)
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ws Workspace
				for rep := 0; rep < 3; rep++ {
					got := ws.Reconstruct(tc.ch, tc.counts, opts)
					for i := range want.Estimate {
						if math.Float64bits(got.Estimate[i]) != math.Float64bits(want.Estimate[i]) {
							errs <- fmt.Sprintf("%s: estimate[%d] = %v vs %v", tc.name, i, got.Estimate[i], want.Estimate[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

func TestParallelWarmStartMatchesSerialWarmStart(t *testing.T) {
	m, counts := swChannel(128, 1.0, 13)
	cold := Reconstruct(m, counts, Options{Smoothing: true})
	serial := Reconstruct(m, counts, Options{Smoothing: true, Init: cold.Estimate})
	par := Reconstruct(m, counts, Options{Smoothing: true, Init: cold.Estimate, Workers: 4})
	if serial.Iterations != par.Iterations {
		t.Fatalf("warm-start iterations diverge: %d vs %d", serial.Iterations, par.Iterations)
	}
	if serial.Iterations > cold.Iterations {
		t.Errorf("warm start took %d iterations, cold start %d", serial.Iterations, cold.Iterations)
	}
	for i := range serial.Estimate {
		if math.Float64bits(par.Estimate[i]) != math.Float64bits(serial.Estimate[i]) {
			t.Fatalf("estimate[%d] = %v vs %v", i, par.Estimate[i], serial.Estimate[i])
		}
	}
}
