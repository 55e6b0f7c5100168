package em

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/matrixx"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sw"
)

// identity returns the d×d identity channel.
func identity(d int) *matrixx.Matrix {
	m := matrixx.New(d, d)
	for i := 0; i < d; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestReconstructIdentityChannel(t *testing.T) {
	// With a noiseless identity channel the MLE is the normalized counts.
	m := identity(4)
	counts := []float64{10, 20, 30, 40}
	res := Reconstruct(m, counts, Options{Tau: 1e-12, MaxIters: 5000})
	want := []float64{0.1, 0.2, 0.3, 0.4}
	for i := range want {
		if !mathx.AlmostEqual(res.Estimate[i], want[i], 1e-6) {
			t.Errorf("estimate[%d] = %v, want %v", i, res.Estimate[i], want[i])
		}
	}
	if !res.Converged {
		t.Error("identity reconstruction did not converge")
	}
}

func TestReconstructExactChannelInversion(t *testing.T) {
	// Feed EM the *expected* counts n·M·x of a known distribution through
	// a Square Wave channel; the MLE equals x, so EM must approach it.
	w := sw.NewSquare(2)
	const d = 32
	m := w.TransitionMatrix(d, d)
	x := make([]float64, d)
	for i := range x {
		x[i] = float64(i + 1)
	}
	mathx.Normalize(x)
	counts := make([]float64, d)
	m.MulVec(counts, x)
	for j := range counts {
		counts[j] *= 1e6
	}
	res := Reconstruct(m, counts, Options{Tau: 1e-9, MaxIters: 20000})
	if got := metrics.Wasserstein(x, res.Estimate); got > 1e-3 {
		t.Errorf("exact-channel reconstruction W1 = %v", got)
	}
}

func TestReconstructOutputIsDistribution(t *testing.T) {
	w := sw.NewSquare(1)
	const d = 64
	m := w.TransitionMatrix(d, d)
	rng := randx.New(1)
	counts := make([]float64, d)
	for j := range counts {
		counts[j] = math.Floor(rng.Float64() * 100)
	}
	for _, smoothing := range []bool{false, true} {
		res := Reconstruct(m, counts, Options{Smoothing: smoothing, MaxIters: 200})
		if !mathx.IsDistribution(res.Estimate, 1e-9) {
			t.Errorf("smoothing=%v: estimate is not a distribution", smoothing)
		}
	}
}

func TestEMLogLikelihoodMonotone(t *testing.T) {
	// Plain EM must increase the log-likelihood at every step
	// (fundamental EM property; concave L by Theorem 5.6).
	w := sw.NewSquare(1)
	const d = 32
	m := w.TransitionMatrix(d, d)
	rng := randx.New(2)
	values := make([]float64, 20000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	counts := w.Collect(values, d, rng)

	x := make([]float64, d)
	for i := range x {
		x[i] = 1.0 / d
	}
	prev := LogLikelihood(m, counts, x)
	for step := 0; step < 50; step++ {
		res := Reconstruct(m, counts, Options{Init: x, MaxIters: 1, MinIters: 1, Tau: 1e-300})
		copy(x, res.Estimate)
		ll := LogLikelihood(m, counts, x)
		if ll < prev-1e-6 {
			t.Fatalf("EM decreased log-likelihood at step %d: %v -> %v", step, prev, ll)
		}
		prev = ll
	}
}

func TestEMConvergesToSameLLFromDifferentInits(t *testing.T) {
	// Concavity (Theorem 5.6): the MLE is unique in likelihood value, so
	// different initializations must converge to the same L.
	w := sw.NewSquare(1)
	const d = 16
	m := w.TransitionMatrix(d, d)
	rng := randx.New(3)
	values := make([]float64, 10000)
	for i := range values {
		values[i] = rng.Beta(2, 5)
	}
	counts := w.Collect(values, d, rng)

	uniform := Reconstruct(m, counts, Options{Tau: 1e-8, MaxIters: 50000})

	skew := make([]float64, d)
	for i := range skew {
		skew[i] = float64(d - i)
	}
	fromSkew := Reconstruct(m, counts, Options{Tau: 1e-8, MaxIters: 50000, Init: skew})

	if math.Abs(uniform.LogLikelihood-fromSkew.LogLikelihood) > 1e-2 {
		t.Errorf("different inits reached different LL: %v vs %v",
			uniform.LogLikelihood, fromSkew.LogLikelihood)
	}
}

func totalVariation(x []float64) float64 {
	var tv float64
	for i := 1; i < len(x); i++ {
		tv += math.Abs(x[i] - x[i-1])
	}
	return tv
}

func TestEMSProducesSmootherEstimates(t *testing.T) {
	// Under heavy LDP noise, EMS output must be smoother (lower total
	// variation) than plain EM run to convergence.
	w := sw.NewSquare(0.5)
	const d = 64
	m := w.TransitionMatrix(d, d)
	rng := randx.New(4)
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	counts := w.Collect(values, d, rng)

	emRes := Reconstruct(m, counts, EMOptions(0.5))
	emsRes := Reconstruct(m, counts, EMSOptions())
	if totalVariation(emsRes.Estimate) >= totalVariation(emRes.Estimate) {
		t.Errorf("EMS TV %v should be below EM TV %v",
			totalVariation(emsRes.Estimate), totalVariation(emRes.Estimate))
	}
}

func TestEMSBeatsEMOnNoisySmoothData(t *testing.T) {
	// The paper's headline: with a smooth underlying distribution, EMS
	// tracks the truth better than EM (which fits the noise). The gap is
	// widest at fine granularities, where EM has many parameters to
	// overfit with; average over several runs to keep the test stable.
	const d = 256
	const eps = 1.0
	w := sw.NewSquare(eps)
	m := w.TransitionMatrix(d, d)

	var emW1, emsW1 float64
	const runs = 5
	for run := 0; run < runs; run++ {
		rng := randx.New(uint64(100 + run))
		values := make([]float64, 10000)
		truthHist := make([]float64, d)
		for i := range values {
			v := rng.Beta(5, 2)
			values[i] = v
			truthHist[int(math.Min(v*float64(d), float64(d-1)))]++
		}
		mathx.Normalize(truthHist)
		counts := w.Collect(values, d, rng)

		emRes := Reconstruct(m, counts, EMOptions(eps))
		emsRes := Reconstruct(m, counts, EMSOptions())
		emW1 += metrics.Wasserstein(truthHist, emRes.Estimate)
		emsW1 += metrics.Wasserstein(truthHist, emsRes.Estimate)
	}
	if emsW1 >= emW1 {
		t.Errorf("EMS avg W1 %v should beat EM avg W1 %v", emsW1/runs, emW1/runs)
	}
}

func TestReconstructPanics(t *testing.T) {
	m := identity(3)
	cases := []func(){
		func() { Reconstruct(m, []float64{1, 2}, Options{}) },
		func() { Reconstruct(m, []float64{1, -1, 0}, Options{}) },
		func() { Reconstruct(m, []float64{1, 2, 3}, Options{Init: []float64{1}}) },
		func() { LogLikelihood(m, []float64{1, 2}, []float64{1, 0, 0}) },
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

func TestReconstructRespectsMaxIters(t *testing.T) {
	w := sw.NewSquare(1)
	m := w.TransitionMatrix(16, 16)
	counts := make([]float64, 16)
	for i := range counts {
		counts[i] = 100
	}
	res := Reconstruct(m, counts, Options{MaxIters: 3, MinIters: 1, Tau: 1e-300})
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3", res.Iterations)
	}
	if res.Converged {
		t.Error("should not report convergence when stopped by MaxIters")
	}
}

func TestReconstructNegativeInitClipped(t *testing.T) {
	m := identity(3)
	res := Reconstruct(m, []float64{1, 1, 1}, Options{
		Init: []float64{-1, 1, 1}, MaxIters: 200, MinIters: 1,
	})
	if !mathx.IsDistribution(res.Estimate, 1e-9) {
		t.Errorf("estimate not a distribution: %v", res.Estimate)
	}
}

func TestEndToEndSWEMSPipeline(t *testing.T) {
	// Full pipeline on a realistic scale: 50k users, ε=1, d=128. The
	// reconstruction must land well below the trivial baseline (uniform).
	const d = 128
	const eps = 1.0
	w := sw.NewSquare(eps)
	m := w.TransitionMatrix(d, d)
	rng := randx.New(7)
	values := make([]float64, 50000)
	truthHist := make([]float64, d)
	for i := range values {
		v := rng.Beta(5, 2)
		values[i] = v
		truthHist[int(math.Min(v*float64(d), float64(d-1)))]++
	}
	mathx.Normalize(truthHist)
	counts := w.Collect(values, d, rng)
	res := Reconstruct(m, counts, EMSOptions())

	uniform := make([]float64, d)
	for i := range uniform {
		uniform[i] = 1.0 / d
	}
	gotW1 := metrics.Wasserstein(truthHist, res.Estimate)
	baseW1 := metrics.Wasserstein(truthHist, uniform)
	if gotW1 > baseW1/5 {
		t.Errorf("SW+EMS W1 = %v, uniform baseline %v; expected ≥5x improvement", gotW1, baseW1)
	}
	if gotW1 > 0.02 {
		t.Errorf("SW+EMS W1 = %v, expected < 0.02 at n=50k, ε=1", gotW1)
	}
}

func BenchmarkReconstructEMS256(b *testing.B) {
	w := sw.NewSquare(1)
	const d = 256
	m := w.TransitionMatrix(d, d)
	rng := randx.New(1)
	values := make([]float64, 20000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	counts := w.Collect(values, d, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reconstruct(m, counts, EMSOptions())
	}
}

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
