package repro

// Public-API coverage of the pluggable mechanism layer: Options.Mechanism
// through Client/Aggregator round trips, the Streams registry, and snapshot
// persistence of non-SW streams.

import (
	"path/filepath"
	"testing"
)

func TestMechanismRoundTrips(t *testing.T) {
	// The sw default's bandwidth, BOpt(2): sw-discrete resolves the same
	// optimum, and the categorical oracles have no bandwidth.
	ref, err := NewClient(Options{Epsilon: 2, Buckets: 32})
	if err != nil || ref.Bandwidth() <= 0 {
		t.Fatalf("sw client bandwidth %v, err %v", ref.Bandwidth(), err)
	}
	for _, mech := range []string{"sw", "sw-discrete", "grr", "oue", "sue", "olh", "hrr"} {
		opts := Options{Epsilon: 2, Buckets: 32, Seed: 9, Mechanism: mech}
		client, err := NewClient(opts)
		if err != nil {
			t.Fatalf("%s: NewClient: %v", mech, err)
		}
		if client.Mechanism() != mech {
			t.Errorf("client mechanism = %q, want %q", client.Mechanism(), mech)
		}
		wantBand := 0.0
		if mech == "sw" || mech == "sw-discrete" {
			wantBand = ref.Bandwidth()
		}
		if got := client.Bandwidth(); got != wantBand {
			t.Errorf("%s: client bandwidth = %v, want %v", mech, got, wantBand)
		}
		agg, err := NewAggregator(opts)
		if err != nil {
			t.Fatalf("%s: NewAggregator: %v", mech, err)
		}
		const n = 3000
		for i := 0; i < n; i++ {
			if err := agg.IngestReport(client.Perturb(float64(i%100) / 100)); err != nil {
				t.Fatalf("%s: IngestReport: %v", mech, err)
			}
		}
		if agg.N() != n {
			t.Errorf("%s: N = %d, want %d", mech, agg.N(), n)
		}
		res, err := agg.Estimate()
		if err != nil {
			t.Fatalf("%s: Estimate: %v", mech, err)
		}
		if len(res.Distribution) != 32 {
			t.Errorf("%s: estimate has %d buckets", mech, len(res.Distribution))
		}
		var sum float64
		for _, p := range res.Distribution {
			if p < 0 {
				t.Errorf("%s: negative probability %v", mech, p)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: distribution sums to %v", mech, sum)
		}
	}
}

func TestMechanismAutoResolves(t *testing.T) {
	agg, err := NewAggregator(Options{Epsilon: 1, Buckets: 1024, Mechanism: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mechanism() != "olh" { // 1022 ≥ 3e
		t.Errorf("auto at (ε=1, d=1024) resolved to %q, want olh", agg.Mechanism())
	}
	agg, err = NewAggregator(Options{Epsilon: 1, Buckets: 8, Mechanism: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mechanism() != "grr" { // 6 < 3e
		t.Errorf("auto at (ε=1, d=8) resolved to %q, want grr", agg.Mechanism())
	}
}

func TestMechanismOptionErrors(t *testing.T) {
	if _, err := NewAggregator(Options{Epsilon: 1, Buckets: 32, Mechanism: "rappor"}); err == nil {
		t.Error("unknown mechanism accepted")
	}
	if _, err := NewAggregator(Options{Epsilon: 1, Buckets: 32, Mechanism: "grr", Bandwidth: 0.2}); err == nil {
		t.Error("bandwidth on a categorical mechanism accepted")
	}
	// Bad wire reports are errors, not panics.
	agg, err := NewAggregator(Options{Epsilon: 1, Buckets: 32, Mechanism: "grr"})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.IngestReport([]float64{99}); err == nil {
		t.Error("out-of-domain grr report accepted")
	}
	// ConfidenceInterval needs a channel; matrix-free oracles must refuse.
	oue, err := NewAggregator(Options{Epsilon: 1, Buckets: 32, Mechanism: "oue"})
	if err != nil {
		t.Fatal(err)
	}
	if err := oue.IngestReport([]float64{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := oue.ConfidenceInterval(MeanStatistic(), 0.9, 10); err == nil {
		t.Error("ConfidenceInterval on a matrix-free oracle accepted")
	}
}

func TestStreamsRegistryWithMechanisms(t *testing.T) {
	reg := NewStreams()
	agg, err := reg.Declare("os", Options{Epsilon: 2, Buckets: 16, Mechanism: "oue", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(Options{Epsilon: 2, Buckets: 16, Mechanism: "oue", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := agg.IngestReport(client.Perturb(0.25)); err != nil {
			t.Fatal(err)
		}
	}
	// Redeclaring with the same options returns the same aggregator;
	// "auto"-style zero mechanism ("") resolves to sw and must mismatch.
	if _, err := reg.Declare("os", Options{Epsilon: 2, Buckets: 16, Mechanism: "oue", Seed: 4}); err != nil {
		t.Errorf("identical redeclare: %v", err)
	}
	if _, err := reg.Declare("os", Options{Epsilon: 2, Buckets: 16, Seed: 4}); err == nil {
		t.Error("mechanism mismatch on redeclare accepted")
	}

	res, err := reg.Estimate("os")
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Quantile(0.5); m < 0.1 || m > 0.4 {
		t.Errorf("median %v far from the 0.25 point mass", m)
	}

	// Save → Load into a fresh registry keeps the mechanism.
	path := filepath.Join(t.TempDir(), "reg.snap")
	if err := reg.Save(path); err != nil {
		t.Fatal(err)
	}
	reg2 := NewStreams()
	if err := reg2.Load(path); err != nil {
		t.Fatal(err)
	}
	agg2, ok := reg2.Get("os")
	if !ok {
		t.Fatal("restored registry lost the stream")
	}
	if agg2.Mechanism() != "oue" {
		t.Errorf("restored mechanism = %q, want oue", agg2.Mechanism())
	}
	if agg2.N() != 2000 {
		t.Errorf("restored N = %d, want 2000", agg2.N())
	}
	// A registry that declared the stream with a different mechanism must
	// refuse the restore.
	reg3 := NewStreams()
	if _, err := reg3.Declare("os", Options{Epsilon: 2, Buckets: 16, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if err := reg3.Load(path); err == nil {
		t.Error("restore over a mismatched mechanism accepted")
	}
}
