package binning

import (
	"testing"

	"repro/internal/histogram"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/randx"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1, _) should panic")
		}
	}()
	New(1, 1)
}

func TestCollectShapeAndValidity(t *testing.T) {
	m := New(16, 1)
	rng := randx.New(1)
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.Float64()
	}
	dist := m.Collect(values, 256, rng)
	if len(dist) != 256 {
		t.Fatalf("len = %d, want 256", len(dist))
	}
	if !mathx.IsDistribution(dist, 1e-9) {
		t.Error("output is not a valid distribution")
	}
	// Uniform within each bin: all 16 sub-buckets of a bin are equal.
	for b := 0; b < 16; b++ {
		for j := 1; j < 16; j++ {
			if dist[b*16+j] != dist[b*16] {
				t.Fatalf("bin %d not uniformly spread", b)
			}
		}
	}
}

func TestCollectPanicsOnBadGranularity(t *testing.T) {
	m := New(16, 1)
	rng := randx.New(2)
	defer func() {
		if recover() == nil {
			t.Error("non-multiple granularity should panic")
		}
	}()
	m.Collect([]float64{0.5}, 100, rng)
}

func TestOracleSelection(t *testing.T) {
	// c=16 at eps=2.5: 14 < 3e^2.5 → GRR. c=64 at eps=0.5: OLH.
	if got := New(16, 2.5).oracle.Name(); got != "grr" {
		t.Errorf("c=16 eps=2.5 oracle = %s, want grr", got)
	}
	if got := New(64, 0.5).oracle.Name(); got != "olh" {
		t.Errorf("c=64 eps=0.5 oracle = %s, want olh", got)
	}
}

func TestCollectRecoverseDistribution(t *testing.T) {
	// At a generous budget the binned estimate must be close to the bin-
	// averaged truth.
	const d = 256
	rng := randx.New(3)
	values := make([]float64, 100000)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	truth := histogram.Distribution(values, d)
	m := New(32, 2.5)
	dist := m.Collect(values, d, rng)
	if got := metrics.Wasserstein(truth, dist); got > 0.02 {
		t.Errorf("W1 = %v, want < 0.02 at eps=2.5, n=100k", got)
	}
}

func TestBiasNoiseTradeoff(t *testing.T) {
	// The paper's Section 4.1 story, averaged over seeds: at tiny ε few
	// bins beat many bins (noise dominates); at large ε many bins beat few
	// (bias dominates). Use a sharply peaked distribution so 8 bins carry
	// real bias.
	const d = 256
	sample := func(r *randx.Rand) float64 { return mathx.Clamp(r.Normal(0.31, 0.02), 0, 1) }
	avgW1 := func(c int, eps float64) float64 {
		var acc float64
		const runs = 8
		for run := 0; run < runs; run++ {
			rng := randx.New(uint64(100*run + 7))
			values := make([]float64, 20000)
			for i := range values {
				values[i] = sample(rng)
			}
			truth := histogram.Distribution(values, d)
			acc += metrics.Wasserstein(truth, New(c, eps).Collect(values, d, rng))
		}
		return acc / runs
	}
	if w8, w64 := avgW1(8, 0.25), avgW1(64, 0.25); w8 >= w64 {
		t.Errorf("at eps=0.25 coarse bins should win: W1(8)=%v, W1(64)=%v", w8, w64)
	}
	if w8, w64 := avgW1(8, 4.0), avgW1(64, 4.0); w64 >= w8 {
		t.Errorf("at eps=4 fine bins should win: W1(8)=%v, W1(64)=%v", w8, w64)
	}
}

func BenchmarkCollect(b *testing.B) {
	m := New(32, 1)
	rng := randx.New(1)
	values := make([]float64, 10000)
	for i := range values {
		values[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Collect(values, 256, rng)
	}
}
