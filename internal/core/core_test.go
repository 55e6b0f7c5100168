package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/em"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/randx"
)

func TestConfigDefaults(t *testing.T) {
	cfg := NewConfig(1)
	p := NewAggregator(cfg).Mechanism().Params()
	if p.Buckets != 1024 || p.OutputBuckets != 1024 {
		t.Errorf("defaults: d=%d, dt=%d", p.Buckets, p.OutputBuckets)
	}
	if !cfg.Smoothing {
		t.Error("NewConfig should enable smoothing")
	}
	if math.Abs(p.Bandwidth-0.256) > 0.002 {
		t.Errorf("default bandwidth = %v, want BOpt(1) ≈ 0.256", p.Bandwidth)
	}
	if p.PlateauRatio != 1 {
		t.Errorf("default plateau ratio = %v, want 1 (square)", p.PlateauRatio)
	}
}

// TestConfigKeepsEMOptions: a zero Tau takes the mode's default τ and
// nothing else — the caller's other EM fields survive, and Smoothing always
// follows the Config.
func TestConfigKeepsEMOptions(t *testing.T) {
	ems := NewAggregator(Config{Epsilon: 1, Buckets: 64, Smoothing: true, EM: em.Options{SmoothWidth: 7, MaxIters: 40}}).em
	if ems.SmoothWidth != 7 || ems.MaxIters != 40 || ems.Tau != em.EMSOptions().Tau || !ems.Smoothing {
		t.Errorf("EMS options = %+v, want SmoothWidth 7, MaxIters 40, τ = %v, smoothing", ems, em.EMSOptions().Tau)
	}
	plain := NewAggregator(Config{Epsilon: 2, Buckets: 64, EM: em.Options{MaxIters: 40}}).em
	if plain.MaxIters != 40 || plain.Tau != em.EMOptions(2).Tau || plain.Smoothing {
		t.Errorf("EM options = %+v, want MaxIters 40, τ = %v, no smoothing", plain, em.EMOptions(2).Tau)
	}
	set := NewAggregator(Config{Epsilon: 1, Buckets: 64, EM: em.Options{Tau: 1e-6, Smoothing: true}}).em
	if set.Tau != 1e-6 || set.Smoothing {
		t.Errorf("explicit options = %+v, want τ = 1e-6 and Smoothing from the Config (off)", set)
	}
}

func TestConfigPanicsOnBadEpsilon(t *testing.T) {
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%v should panic", eps)
				}
			}()
			NewClient(Config{Epsilon: eps})
		}()
	}
}

func TestClientReportInRange(t *testing.T) {
	client := NewClient(NewConfig(1))
	rng := randx.New(1)
	b := client.Bandwidth()
	for i := 0; i < 10000; i++ {
		r := client.Report(rng.Float64(), rng)
		if r < -b-1e-9 || r > 1+b+1e-9 {
			t.Fatalf("report %v outside [−b, 1+b]", r)
		}
	}
	// Out-of-domain values are clamped, not rejected.
	if r := client.Report(5, rng); r < -b || r > 1+b {
		t.Errorf("clamped report %v out of range", r)
	}
}

func TestClientAggregatorRoundTrip(t *testing.T) {
	cfg := NewConfig(1)
	cfg.Buckets = 128
	client := NewClient(cfg)
	agg := NewAggregator(cfg)
	rng := randx.New(2)

	ds := dataset.Beta52(30000, 3)
	counts := make([]float64, agg.OutputBuckets())
	for _, v := range ds.Values {
		counts[agg.Bucket(client.Report(v, rng))]++
	}
	if got := mathx.Sum(counts); got != 30000 {
		t.Errorf("counts sum = %v", got)
	}
	res := agg.EstimateInto(nil, counts, nil)
	if !mathx.IsDistribution(res.Estimate, 1e-9) {
		t.Error("estimate is not a distribution")
	}
	truth := ds.TrueDistributionAt(128)
	if got := metrics.Wasserstein(truth, res.Estimate); got > 0.02 {
		t.Errorf("round-trip W1 = %v", got)
	}
}

func TestRunMatchesClientAggregator(t *testing.T) {
	cfg := NewConfig(1)
	cfg.Buckets = 64
	ds := dataset.Beta52(5000, 4)

	got := Run(cfg, ds.Values, randx.New(7))

	client := NewClient(cfg)
	agg := NewAggregator(cfg)
	rng := randx.New(7)
	counts := make([]float64, agg.OutputBuckets())
	for _, v := range ds.Values {
		counts[agg.Bucket(client.Report(v, rng))]++
	}
	want := agg.EstimateInto(nil, counts, nil).Estimate
	if mathx.L1(got, want) > 1e-12 {
		t.Error("Run and manual client/aggregator disagree under the same seed")
	}
}

func TestEstimatorRegistryNamesAndValidity(t *testing.T) {
	valid := map[string]bool{
		"SW-EMS": true, "SW-EM": true, "SW-BR-EMS": true, "HH-ADMM": true,
		"CFO-bin-16": true, "CFO-bin-32": true, "CFO-bin-64": true,
		"HH": false, "HaarHRR": false,
	}
	all := append(RangeQueryEstimators(), SWDiscreteEMS())
	seen := map[string]bool{}
	for _, e := range all {
		want, ok := valid[e.Name()]
		if !ok {
			t.Errorf("unexpected estimator %q", e.Name())
			continue
		}
		if e.ValidDistribution() != want {
			t.Errorf("%s: ValidDistribution = %v, want %v", e.Name(), e.ValidDistribution(), want)
		}
		seen[e.Name()] = true
	}
	if len(seen) != len(valid) {
		t.Errorf("registry covers %d methods, want %d", len(seen), len(valid))
	}
}

func TestAllEstimatorsProduceSaneOutput(t *testing.T) {
	ds := dataset.Beta52(20000, 5)
	const d = 64
	truth := ds.TrueDistributionAt(d)
	uniform := make([]float64, d)
	for i := range uniform {
		uniform[i] = 1.0 / d
	}
	baseline := metrics.Wasserstein(truth, uniform)

	for _, e := range append(RangeQueryEstimators(), SWDiscreteEMS()) {
		rng := randx.New(6)
		est := e.Estimate(ds.Values, d, 1.5, rng)
		if len(est) != d {
			t.Errorf("%s: estimate length %d, want %d", e.Name(), len(est), d)
			continue
		}
		if e.ValidDistribution() && !mathx.IsDistribution(est, 1e-6) {
			t.Errorf("%s: claims valid distribution but is not", e.Name())
		}
		// Every method must beat the uniform baseline on W1 at ε=1.5
		// with 20k users (sanity, not a utility claim).
		if got := metrics.Wasserstein(truth, est); got > baseline {
			t.Errorf("%s: W1 %v worse than uniform baseline %v", e.Name(), got, baseline)
		}
	}
}

func TestSWEMSBeatsBinningOnSmoothData(t *testing.T) {
	// The paper's central claim, in miniature, averaged over seeds. At
	// this budget one binning run's W1 ranges over 0.005–0.025, so the
	// average needs ten runs to compare expectations rather than draws.
	const d = 256
	const eps = 1.0
	var swW1, binW1 float64
	const runs = 10
	for run := 0; run < runs; run++ {
		ds := dataset.Beta52(30000, uint64(10+run))
		truth := ds.TrueDistributionAt(d)
		rng := randx.New(uint64(20 + run))
		swW1 += metrics.Wasserstein(truth, SWEMS().Estimate(ds.Values, d, eps, rng))
		binW1 += metrics.Wasserstein(truth, Binning(16).Estimate(ds.Values, d, eps, rng))
	}
	if swW1 >= binW1 {
		t.Errorf("SW-EMS avg W1 %v should beat CFO-bin-16 %v", swW1/runs, binW1/runs)
	}
}

func TestGeneralWaveEstimator(t *testing.T) {
	ds := dataset.Beta52(10000, 8)
	rng := randx.New(9)
	est := GeneralWaveEMS(0.5, 0.25).Estimate(ds.Values, 64, 1, rng)
	if !mathx.IsDistribution(est, 1e-9) {
		t.Error("GW estimate not a distribution")
	}
	tri := GeneralWaveEMS(0, 0.25)
	if tri.Name() != "Triangle-EMS" {
		t.Errorf("triangle name = %q", tri.Name())
	}
}

func TestSWEMSWithBandwidth(t *testing.T) {
	e := SWEMSWithBandwidth(0.1)
	ds := dataset.Beta52(10000, 10)
	rng := randx.New(11)
	est := e.Estimate(ds.Values, 64, 1, rng)
	if !mathx.IsDistribution(est, 1e-9) {
		t.Error("estimate not a distribution")
	}
}

func BenchmarkRunSWEMS(b *testing.B) {
	cfg := NewConfig(1)
	cfg.Buckets = 256
	ds := dataset.Beta52(20000, 1)
	rng := randx.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, ds.Values, rng)
	}
}
