package repro_test

import (
	"math"
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/randx"
)

func TestEstimateDistributionQuickstart(t *testing.T) {
	ds := dataset.Beta52(20000, 1)
	opts := repro.DefaultOptions(1.0)
	opts.Buckets = 128
	res, err := repro.EstimateDistribution(ds.Values, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distribution) != 128 {
		t.Fatalf("got %d buckets", len(res.Distribution))
	}
	if !mathx.IsDistribution(res.Distribution, 1e-9) {
		t.Error("result is not a distribution")
	}
	// Statistics should be near Beta(5,2): mean 5/7 ≈ 0.714.
	if math.Abs(res.Mean()-5.0/7.0) > 0.03 {
		t.Errorf("mean = %v, want ≈ 0.714", res.Mean())
	}
	if math.Abs(res.Quantile(0.5)-0.736) > 0.05 {
		t.Errorf("median = %v, want ≈ 0.736", res.Quantile(0.5))
	}
	if res.Variance() < 0 || res.Variance() > 0.1 {
		t.Errorf("variance = %v", res.Variance())
	}
	if full := res.Range(0, 1); math.Abs(full-1) > 1e-6 {
		t.Errorf("Range(0,1) = %v", full)
	}
	if res.CDF(1) < 0.999 {
		t.Errorf("CDF(1) = %v", res.CDF(1))
	}
}

func TestEstimateValidation(t *testing.T) {
	values := []float64{0.5}
	cases := []struct {
		name string
		fn   func() (*repro.Result, error)
	}{
		{"zero epsilon", func() (*repro.Result, error) {
			return repro.EstimateDistribution(values, repro.Options{})
		}},
		{"negative epsilon", func() (*repro.Result, error) {
			return repro.EstimateDistribution(values, repro.Options{Epsilon: -1})
		}},
		{"no values", func() (*repro.Result, error) {
			return repro.EstimateDistribution(nil, repro.DefaultOptions(1))
		}},
		{"unknown method", func() (*repro.Result, error) {
			return repro.Estimate(values, "bogus", repro.DefaultOptions(1))
		}},
		{"bad bandwidth", func() (*repro.Result, error) {
			return repro.EstimateDistribution(values, repro.Options{Epsilon: 1, Bandwidth: 5})
		}},
		{"one bucket", func() (*repro.Result, error) {
			return repro.EstimateDistribution(values, repro.Options{Epsilon: 1, Buckets: 1})
		}},
		{"buckets over the cap", func() (*repro.Result, error) {
			return repro.EstimateDistribution(values, repro.Options{Epsilon: 1, Buckets: 1<<16 + 1})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.fn(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestEstimateAllMethods(t *testing.T) {
	ds := dataset.Beta52(10000, 2)
	opts := repro.DefaultOptions(1.5)
	opts.Buckets = 64
	valid := map[repro.Method]bool{
		repro.SWEMS: true, repro.SWEM: true, repro.HHADMM: true,
		repro.Binning16: true, repro.Binning32: true, repro.Binning64: true,
		repro.HHist: false, repro.HaarHRR: false,
	}
	for m, wantValid := range valid {
		res, err := repro.Estimate(ds.Values, m, opts)
		if err != nil {
			t.Errorf("%s: %v", m, err)
			continue
		}
		if got := mathx.IsDistribution(res.Distribution, 1e-6); got != wantValid {
			t.Errorf("%s: IsDistribution = %v, want %v", m, got, wantValid)
		}
		if res.Method != m || res.Epsilon != 1.5 {
			t.Errorf("%s: result metadata %+v", m, res)
		}
	}
}

func TestEstimateBadBucketsForHierarchy(t *testing.T) {
	// 100 is not a power of 4: the hierarchy method must surface an error,
	// not a panic.
	opts := repro.Options{Epsilon: 1, Buckets: 100}
	if _, err := repro.Estimate([]float64{0.5, 0.6}, repro.HHADMM, opts); err == nil {
		t.Error("expected an error for non-power-of-4 buckets")
	}
}

func TestClientAggregatorStreaming(t *testing.T) {
	ds := dataset.Beta52(20000, 3)
	opts := repro.DefaultOptions(1.0)
	opts.Buckets = 128

	client, err := repro.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := repro.NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Estimate(); err == nil {
		t.Error("empty aggregator should error")
	}
	b := client.Bandwidth()
	for _, v := range ds.Values {
		r := client.Report(v)
		if r < -b-1e-9 || r > 1+b+1e-9 {
			t.Fatalf("report %v outside [−b, 1+b]", r)
		}
		agg.Ingest(r)
	}
	if agg.N() != ds.N() {
		t.Errorf("N = %d", agg.N())
	}
	res, err := agg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.TrueDistributionAt(128)
	if w1 := metrics.Wasserstein(truth, res.Distribution); w1 > 0.02 {
		t.Errorf("streaming W1 = %v", w1)
	}
}

func TestSeedReproducibility(t *testing.T) {
	ds := dataset.Beta52(5000, 4)
	opts := repro.DefaultOptions(1)
	opts.Buckets = 64
	opts.Seed = 99
	a, err := repro.EstimateDistribution(ds.Values, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.EstimateDistribution(ds.Values, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mathx.L1(a.Distribution, b.Distribution) != 0 {
		t.Error("same seed produced different estimates")
	}
	opts.Seed = 100
	c, err := repro.EstimateDistribution(ds.Values, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mathx.L1(a.Distribution, c.Distribution) == 0 {
		t.Error("different seeds produced identical estimates")
	}
}

func TestConfidenceIntervalAPI(t *testing.T) {
	ds := dataset.Beta52(15000, 6)
	opts := repro.DefaultOptions(1)
	opts.Buckets = 64
	client, _ := repro.NewClient(opts)
	agg, _ := repro.NewAggregator(opts)
	for _, v := range ds.Values {
		agg.Ingest(client.Report(v))
	}
	ci, err := agg.ConfidenceInterval(repro.MeanStatistic(), 0.9, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !(ci.Lo <= ci.Point && ci.Point <= ci.Hi) {
		t.Errorf("CI does not bracket its point estimate: %+v", ci)
	}
	if ci.Hi-ci.Lo <= 0 || ci.Hi-ci.Lo > 0.1 {
		t.Errorf("CI width %v out of sane bounds", ci.Hi-ci.Lo)
	}
	// Beta(5,2) mean ≈ 0.714 should be near (usually inside) the interval.
	if ci.Lo > 0.76 || ci.Hi < 0.67 {
		t.Errorf("CI [%v, %v] far from the true mean 0.714", ci.Lo, ci.Hi)
	}
	// Quantile and range statistics work too.
	if _, err := agg.ConfidenceInterval(repro.QuantileStatistic(0.5), 0.8, 20); err != nil {
		t.Error(err)
	}
	if _, err := agg.ConfidenceInterval(repro.RangeStatistic(0.5, 1), 0.8, 20); err != nil {
		t.Error(err)
	}
	// Errors: bad level, empty aggregator.
	if _, err := agg.ConfidenceInterval(repro.MeanStatistic(), 1.5, 10); err == nil {
		t.Error("bad level accepted")
	}
	empty, _ := repro.NewAggregator(opts)
	if _, err := empty.ConfidenceInterval(repro.MeanStatistic(), 0.9, 10); err == nil {
		t.Error("empty aggregator accepted")
	}
}

func TestAggregatorConcurrentIngestion(t *testing.T) {
	opts := repro.DefaultOptions(1.0)
	opts.Buckets = 64
	agg, err := repro.NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each goroutine owns its Client (clients are not shared);
			// the Aggregator is shared by all of them.
			client, err := repro.NewClient(repro.Options{Epsilon: 1, Buckets: 64, Seed: uint64(id + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			rng := randx.New(uint64(1000 + id))
			batch := make([]float64, 0, 16)
			for i := 0; i < perWorker; i++ {
				r := client.Report(rng.Beta(5, 2))
				if i%2 == 0 {
					agg.Ingest(r)
				} else {
					batch = append(batch, r)
					if len(batch) == cap(batch) {
						agg.IngestBatch(batch)
						batch = batch[:0]
					}
				}
			}
			agg.IngestBatch(batch)
		}(w)
	}
	// Estimating mid-ingestion must not block writers or corrupt counts.
	for i := 0; i < 3; i++ {
		if _, err := agg.Estimate(); err != nil && err != repro.ErrNoValues {
			t.Errorf("mid-ingestion estimate: %v", err)
		}
	}
	wg.Wait()
	if agg.N() != workers*perWorker {
		t.Fatalf("N = %d, want %d (reports lost)", agg.N(), workers*perWorker)
	}
	res, err := agg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.IsDistribution(res.Distribution, 1e-9) {
		t.Error("concurrent-ingestion estimate is not a distribution")
	}
	if math.Abs(res.Mean()-5.0/7.0) > 0.05 {
		t.Errorf("mean = %v, want ≈ 0.714", res.Mean())
	}
}
