package em

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/matrixx"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sw"
)

// The Square Wave channel is banded — a floor plus one plateau band per
// column — and is stored as a matrixx.Plateau; these tests run the
// reconstruction on it end to end.

func TestReconstructBandedMatchesDense(t *testing.T) {
	// The plateau form of the SW channel must produce numerically
	// near-identical reconstructions at a fraction of the cost.
	w := sw.NewSquare(2)
	const d = 128
	dense := w.TransitionMatrix(d, d)
	banded := w.Channel(d, d).(*matrixx.Plateau)
	if banded.MaxEdges() > 4 {
		t.Fatalf("a column stores %d edge cells", banded.MaxEdges())
	}

	rng := randx.New(1)
	values := make([]float64, 20000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	counts := w.Collect(values, d, rng)

	a := Reconstruct(dense, counts, EMSOptions())
	b := Reconstruct(banded, counts, EMSOptions())
	if got := mathx.L1(a.Estimate, b.Estimate); got > 1e-6 {
		t.Errorf("dense vs banded reconstruction L1 = %v", got)
	}
	if a.Iterations != b.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", a.Iterations, b.Iterations)
	}
}

func TestSmoothWidth5RunsAndIsSmoother(t *testing.T) {
	w := sw.NewSquare(0.5)
	const d = 128
	m := w.TransitionMatrix(d, d)
	rng := randx.New(2)
	values := make([]float64, 10000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	counts := w.Collect(values, d, rng)

	opts3 := EMSOptions()
	opts5 := EMSOptions()
	opts5.SmoothWidth = 5
	r3 := Reconstruct(m, counts, opts3)
	r5 := Reconstruct(m, counts, opts5)
	if !mathx.IsDistribution(r5.Estimate, 1e-9) {
		t.Error("width-5 estimate not a distribution")
	}
	if totalVariation(r5.Estimate) >= totalVariation(r3.Estimate) {
		t.Errorf("width-5 TV %v should be below width-3 TV %v",
			totalVariation(r5.Estimate), totalVariation(r3.Estimate))
	}
}

func TestSmoothWidthEvenPanics(t *testing.T) {
	m := identity(4)
	defer func() {
		if recover() == nil {
			t.Error("even SmoothWidth should panic")
		}
	}()
	Reconstruct(m, []float64{1, 1, 1, 1}, Options{Smoothing: true, SmoothWidth: 4})
}

func TestBandedEndToEndAccuracy(t *testing.T) {
	// The plateau pipeline must retain reconstruction quality at ε = 4
	// (where the band is narrow).
	const d = 256
	const eps = 4.0
	w := sw.NewSquare(eps)
	banded := w.Channel(d, d)
	rng := randx.New(3)
	values := make([]float64, 50000)
	truth := make([]float64, d)
	for i := range values {
		v := rng.Beta(5, 2)
		values[i] = v
		truth[int(math.Min(v*float64(d), float64(d-1)))]++
	}
	mathx.Normalize(truth)
	counts := w.Collect(values, d, rng)
	res := Reconstruct(banded, counts, EMSOptions())
	if got := metrics.Wasserstein(truth, res.Estimate); got > 0.01 {
		t.Errorf("banded SW+EMS W1 = %v at eps=4, n=50k", got)
	}
}

func BenchmarkReconstructDense1024Eps4(b *testing.B) {
	w := sw.NewSquare(4)
	const d = 1024
	m := w.TransitionMatrix(d, d)
	rng := randx.New(1)
	values := make([]float64, 20000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	counts := w.Collect(values, d, rng)
	opts := EMSOptions()
	opts.MaxIters = 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reconstruct(m, counts, opts)
	}
}

func BenchmarkReconstructPlateau1024Eps4(b *testing.B) {
	w := sw.NewSquare(4)
	const d = 1024
	m := w.Channel(d, d)
	rng := randx.New(1)
	values := make([]float64, 20000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	counts := w.Collect(values, d, rng)
	opts := EMSOptions()
	opts.MaxIters = 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reconstruct(m, counts, opts)
	}
}
