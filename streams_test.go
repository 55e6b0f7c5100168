package repro_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/snapshot"
)

// ingestStream runs n client reports of a fixed value-generator through a
// stream's aggregator.
func ingestStream(t *testing.T, agg *repro.Aggregator, opts repro.Options, n int, gen func(i int) float64) {
	t.Helper()
	client, err := repro.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		agg.Ingest(client.Report(gen(i)))
	}
}

func TestStreamsDeclareAndQuery(t *testing.T) {
	s := repro.NewStreams()
	ageOpts := repro.Options{Epsilon: 1, Buckets: 64, Seed: 3}
	incomeOpts := repro.Options{Epsilon: 2, Buckets: 32, Seed: 4}

	age, err := s.Declare("age", ageOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Declare("income", incomeOpts); err != nil {
		t.Fatal(err)
	}

	// Redeclaring identically hands back the same aggregator; a mismatch
	// and an invalid name are errors.
	again, err := s.Declare("age", ageOpts)
	if err != nil || again != age {
		t.Fatalf("idempotent redeclare: agg=%p (want %p), err=%v", again, age, err)
	}
	if _, err := s.Declare("age", repro.Options{Epsilon: 9, Buckets: 64}); err == nil {
		t.Error("conflicting redeclare succeeded")
	}
	if _, err := s.Declare("ctrl\x00char", ageOpts); err == nil {
		t.Error("invalid stream name accepted")
	}
	if got := s.Names(); len(got) != 2 || got[0] != "age" || got[1] != "income" {
		t.Errorf("Names() = %v", got)
	}

	// Two distinct populations: ages around 0.7, incomes around 0.2.
	ingestStream(t, age, ageOpts, 4000, func(i int) float64 { return 0.7 + 0.1*math.Sin(float64(i)) })
	income, _ := s.Get("income")
	ingestStream(t, income, incomeOpts, 4000, func(i int) float64 { return 0.2 + 0.05*math.Cos(float64(i)) })

	med, err := s.Query("age", repro.QueryRequest{Type: repro.QueryQuantile, Qs: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med.Values[0]-0.7) > 0.1 {
		t.Errorf("age median = %v, want ≈ 0.7", med.Values[0])
	}
	rng, err := s.Query("income", repro.QueryRequest{Type: repro.QueryRange, Lo: 0, Hi: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if rng.Value < 0.8 {
		t.Errorf("income mass on [0, 0.4] = %v, want most of it", rng.Value)
	}
	top, err := s.Query("age", repro.QueryRequest{Type: repro.QueryTopK, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Bins) != 3 {
		t.Fatalf("topk bins = %d", len(top.Bins))
	}
	if c := (top.Bins[0].Lo + top.Bins[0].Hi) / 2; math.Abs(c-0.7) > 0.15 {
		t.Errorf("age top bin centered at %v, want near 0.7", c)
	}
	if top.Bins[0].PValue <= 0 || top.Bins[0].PValue > 0.01 {
		t.Errorf("dominant bin significance = %v, want tiny positive", top.Bins[0].PValue)
	}

	// Unknown streams and queries on empty streams error cleanly.
	if _, err := s.Query("nope", repro.QueryRequest{Type: repro.QueryMean}); err == nil {
		t.Error("query on unknown stream succeeded")
	}
	if _, err := s.Estimate("nope"); err == nil {
		t.Error("estimate on unknown stream succeeded")
	}
	if _, err := s.Declare("empty", ageOpts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("empty", repro.QueryRequest{Type: repro.QueryMean}); err == nil {
		t.Error("query on empty stream succeeded")
	}
}

func TestStreamsSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "streams.snap")
	opts := repro.Options{Epsilon: 1, Buckets: 32, Seed: 9}

	s1 := repro.NewStreams()
	agg, err := s1.Declare("age", opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestStream(t, agg, opts, 3000, func(i int) float64 { return 0.6 })
	res1, err := s1.Estimate("age")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(path); err != nil {
		t.Fatal(err)
	}

	// A fresh registry restores the stream — options, histogram and all —
	// and reconstructs the identical estimate (EM is deterministic on
	// identical counts).
	s2 := repro.NewStreams()
	if err := s2.Load(path); err != nil {
		t.Fatal(err)
	}
	restored, ok := s2.Get("age")
	if !ok {
		t.Fatal("restored registry is missing the stream")
	}
	if restored.N() != 3000 {
		t.Errorf("restored N = %d, want 3000", restored.N())
	}
	res2, err := s2.Estimate("age")
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Distribution {
		if res1.Distribution[i] != res2.Distribution[i] {
			t.Fatalf("bucket %d: %v != %v (estimates not bit-identical)",
				i, res1.Distribution[i], res2.Distribution[i])
		}
	}

	// Loading into a registry whose declared options conflict fails and
	// merges nothing.
	s3 := repro.NewStreams()
	if _, err := s3.Declare("age", repro.Options{Epsilon: 5, Buckets: 32}); err != nil {
		t.Fatal(err)
	}
	if err := s3.Load(path); err == nil {
		t.Error("option-mismatched load succeeded")
	}
	if agg3, _ := s3.Get("age"); agg3.N() != 0 {
		t.Error("rejected load still merged counts")
	}

	// Bandwidth is compared by its effective value, as the HTTP collector
	// does: the record's declared 0 (the optimum) loads into a stream that
	// declared the optimum explicitly.
	client, err := repro.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	explicit := opts
	explicit.Bandwidth = client.Bandwidth()
	s4 := repro.NewStreams()
	agg4, err := s4.Declare("age", explicit)
	if err != nil {
		t.Fatal(err)
	}
	if err := s4.Load(path); err != nil {
		t.Errorf("load into a stream declaring the optimum bandwidth explicitly: %v", err)
	}
	if agg4.N() != 3000 {
		t.Errorf("explicit-bandwidth stream N = %d after load, want 3000", agg4.N())
	}

	// A record whose name Declare would refuse is rejected, and nothing
	// is registered.
	for _, name := range []string{"bad\nname", strings.Repeat("n", 65)} {
		bad := filepath.Join(t.TempDir(), "badname.snap")
		if err := snapshot.Save(bad, []snapshot.Stream{
			{Name: name, Epsilon: 1, Buckets: 32, Counts: make([]uint64, 32)},
		}); err != nil {
			t.Fatal(err)
		}
		s6 := repro.NewStreams()
		if err := s6.Load(bad); err == nil {
			t.Errorf("restored stream name %q", name)
		}
		if got := s6.Names(); len(got) != 0 {
			t.Errorf("name %q: failed load registered %v", name, got)
		}
	}
}

func TestResultQueryHelpers(t *testing.T) {
	values := make([]float64, 3000)
	for i := range values {
		values[i] = 0.3
	}
	res, err := repro.EstimateDistribution(values, repro.Options{Epsilon: 2, Buckets: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.Quantiles(0.1, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if math.Abs(q-0.3) > 0.1 {
			t.Errorf("quantile = %v, want ≈ 0.3 for a point mass", q)
		}
	}
	top, err := res.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if c := (top[0].Lo + top[0].Hi) / 2; math.Abs(c-0.3) > 0.1 {
		t.Errorf("top bin centered at %v, want ≈ 0.3", c)
	}
	if _, err := res.Query(repro.QueryRequest{Type: "bogus"}); err == nil {
		t.Error("bogus query type succeeded")
	}
	cdf, err := res.Query(repro.QueryRequest{Type: repro.QueryCDF, Qs: []float64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cdf.Values[0]) > 1e-9 || math.Abs(cdf.Values[1]-1) > 1e-9 {
		t.Errorf("cdf endpoints = %v", cdf.Values)
	}
}
