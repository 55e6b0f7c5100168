package mechanism

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/em"
	"repro/internal/metrics"
	"repro/internal/postprocess"
	"repro/internal/randx"
)

func TestResolveAndValid(t *testing.T) {
	if got, _ := Resolve("", 1, 64); got != SW {
		t.Errorf("Resolve(\"\") = %q, want sw", got)
	}
	for _, name := range Names() {
		got, err := Resolve(name, 1, 64)
		if err != nil || got != name {
			t.Errorf("Resolve(%q) = %q, %v", name, got, err)
		}
	}
	if _, err := Resolve("rappor", 1, 64); err == nil {
		t.Error("Resolve(rappor) accepted")
	}
}

func TestAutoSelection(t *testing.T) {
	// Small domain or large ε → GRR; large domain at small ε → OLH, the
	// Section 4.1 variance rule.
	if got := Auto(1, 4); got != GRR {
		t.Errorf("Auto(1, 4) = %q, want grr", got)
	}
	if got := Auto(4, 64); got != GRR { // 62 < 3e^4 ≈ 163.8
		t.Errorf("Auto(4, 64) = %q, want grr", got)
	}
	if got := Auto(1, 1024); got != OLH {
		t.Errorf("Auto(1, 1024) = %q, want olh", got)
	}
	if got, _ := Resolve(AutoName, 1, 1024); got != OLH {
		t.Errorf("Resolve(auto, 1, 1024) = %q, want olh", got)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Name: SW, Epsilon: 0, Buckets: 64},
		{Name: SW, Epsilon: math.NaN(), Buckets: 64},
		{Name: SW, Epsilon: 1, Buckets: 1},
		{Name: SW, Epsilon: 1, Buckets: 64, Bandwidth: -0.1},
		{Name: SW, Epsilon: 1, Buckets: 64, Bandwidth: 3},
		{Name: SW, Epsilon: 1, Buckets: 64, Bandwidth: math.NaN()},
		{Name: SWDiscrete, Epsilon: math.Inf(1), Buckets: 64},
		{Name: "nope", Epsilon: 1, Buckets: 64},
		{Name: GRR, Epsilon: 1, Buckets: 64, OutputBuckets: 128},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew on a bad config did not panic")
		}
	}()
	MustNew(Params{Name: SW, Epsilon: -1, Buckets: 64})
}

// TestParamsCodecRoundTrip: Params must rebuild an equivalent mechanism
// through a JSON round-trip — the codec streams, snapshots and /config use.
func TestParamsCodecRoundTrip(t *testing.T) {
	for _, name := range Names() {
		m := MustNew(Params{Name: name, Epsilon: 1.5, Buckets: 32})
		blob, err := json.Marshal(m.Params())
		if err != nil {
			t.Fatalf("%s: marshal params: %v", name, err)
		}
		var p Params
		if err := json.Unmarshal(blob, &p); err != nil {
			t.Fatalf("%s: unmarshal params: %v", name, err)
		}
		m2, err := New(p)
		if err != nil {
			t.Fatalf("%s: rebuild from %s: %v", name, blob, err)
		}
		if m2.Name() != m.Name() || m2.Epsilon() != m.Epsilon() ||
			m2.Buckets() != m.Buckets() || m2.OutputBuckets() != m.OutputBuckets() ||
			m2.Params() != m.Params() {
			t.Errorf("%s: round-trip changed the mechanism: %+v vs %+v", name, m2.Params(), m.Params())
		}
	}
}

func TestScalarFlagsAndBucketOf(t *testing.T) {
	rng := randx.New(11)
	for _, name := range Names() {
		m := MustNew(Params{Name: name, Epsilon: 1, Buckets: 16})
		rep := m.Perturb(0.4, rng)
		cells, err := m.Bucketize(nil, rep)
		if err != nil {
			t.Fatalf("%s: own report rejected: %v", name, err)
		}
		if m.Scalar() {
			if len(rep) != 1 {
				t.Fatalf("%s: scalar mechanism produced %d components", name, len(rep))
			}
			j, err := m.BucketOf(rep[0])
			if err != nil {
				t.Fatalf("%s: BucketOf: %v", name, err)
			}
			if len(cells) != 1 || cells[0] != j {
				t.Errorf("%s: Bucketize %v != BucketOf %d", name, cells, j)
			}
		} else {
			if _, err := m.BucketOf(0); err == nil {
				t.Errorf("%s: BucketOf accepted on a non-scalar mechanism", name)
			}
		}
		if m.FanOut() != (len(cells) != 1 || name == OUE || name == SUE || name == OLH) {
			// fan-out mechanisms may coincidentally emit one support cell +
			// marker; just pin the expected classification.
			t.Errorf("%s: FanOut() = %v with %d cells", name, m.FanOut(), len(cells))
		}
		for _, cell := range cells {
			if cell < 0 || cell >= m.OutputBuckets() {
				t.Errorf("%s: cell %d outside [0, %d)", name, cell, m.OutputBuckets())
			}
		}
	}
}

func TestWireValidation(t *testing.T) {
	cases := map[string][]Report{
		SW:         {{}, {0.1, 0.2}, {math.NaN()}},
		SWDiscrete: {{}, {1.5}, {-1}, {1e9}},
		GRR:        {{}, {0.5}, {-1}, {16}, {1, 2}},
		OUE:        {{-1}, {16}, {3, 3}, {5, 2}, {0.5}},
		OLH:        {{}, {1}, {1, 2, 3}, {-1, 0}, {0.5, 0}, {0, 99}, {math.Pow(2, 60), 0}},
		HRR:        {{}, {0}, {1, 0}, {1, 2}, {-1, 1}, {99, 1}, {0.5, 1}},
	}
	for name, reps := range cases {
		m := MustNew(Params{Name: name, Epsilon: 1, Buckets: 16})
		for _, rep := range reps {
			if _, err := m.Bucketize(nil, rep); err == nil {
				t.Errorf("%s: Bucketize(%v) accepted", name, rep)
			}
		}
	}
	// Valid edge: an OUE report with no set bits still counts its user.
	oue := MustNew(Params{Name: OUE, Epsilon: 1, Buckets: 16})
	cells, err := oue.Bucketize(nil, Report{})
	if err != nil || len(cells) != 1 || cells[0] != 16 {
		t.Errorf("oue empty report: cells %v, err %v (want just the marker)", cells, err)
	}
}

func TestUsersCounting(t *testing.T) {
	rng := randx.New(3)
	const n = 500
	for _, name := range Names() {
		m := MustNew(Params{Name: name, Epsilon: 1, Buckets: 16})
		counts := make([]float64, m.OutputBuckets())
		increments := 0
		var cells []int
		for i := 0; i < n; i++ {
			cells, _ = m.Bucketize(cells[:0], m.Perturb(rng.Float64(), rng))
			for _, c := range cells {
				counts[c]++
				increments++
			}
		}
		if got := m.Users(counts, increments); got != n {
			t.Errorf("%s: Users = %d, want %d", name, got, n)
		}
		if !m.FanOut() {
			// Non-fan-out mechanisms must count users without the histogram.
			if got := m.Users(nil, increments); got != n {
				t.Errorf("%s: Users(nil) = %d, want %d", name, got, n)
			}
		}
	}
}

// TestEndToEndAccuracy runs every mechanism through its full serving-shape
// pipeline — Perturb, Bucketize, histogram, EM/EMS or debias+NormSub — and
// requires the reconstruction to land near the truth.
func TestEndToEndAccuracy(t *testing.T) {
	const (
		d   = 32
		n   = 40000
		eps = 3.0
	)
	for _, name := range Names() {
		m := MustNew(Params{Name: name, Epsilon: eps, Buckets: d})
		rng := randx.New(0xACC)
		truth := make([]float64, d)
		counts := make([]float64, m.OutputBuckets())
		var cells []int
		for i := 0; i < n; i++ {
			v := 0.5 + 0.15*rng.Normal(0, 1)
			truth[discretize(v, d)]++
			cells, _ = m.Bucketize(cells[:0], m.Perturb(v, rng))
			for _, c := range cells {
				counts[c]++
			}
		}
		for i := range truth {
			truth[i] /= n
		}
		var est []float64
		if ch := m.Channel(); ch != nil {
			est = em.Reconstruct(ch, counts, em.EMSOptions()).Estimate
		} else {
			est = postprocess.NormSub(m.EstimateInto(nil, counts))
		}
		w1 := metrics.Wasserstein(truth, est)
		ks := metrics.KS(truth, est)
		if w1 > 0.03 || ks > 0.08 {
			t.Errorf("%s: W1 = %.4f, KS = %.4f (bounds 0.03/0.08)", name, w1, ks)
		}
	}
}

// TestOLHSeedsSurviveJSON pins the 53-bit seed contract: every OLH report
// must round-trip through float64 JSON without changing its support set.
func TestOLHSeedsSurviveJSON(t *testing.T) {
	m := MustNew(Params{Name: OLH, Epsilon: 1, Buckets: 64})
	rng := randx.New(99)
	for i := 0; i < 200; i++ {
		rep := m.Perturb(rng.Float64(), rng)
		blob, _ := json.Marshal(rep)
		var back Report
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		a, err1 := m.Bucketize(nil, rep)
		b, err2 := m.Bucketize(nil, back)
		if err1 != nil || err2 != nil {
			t.Fatalf("bucketize: %v / %v", err1, err2)
		}
		if len(a) != len(b) {
			t.Fatalf("support set changed over JSON: %v vs %v", a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("support set changed over JSON: %v vs %v", a, b)
			}
		}
	}
}

func TestSWAdapterMatchesWave(t *testing.T) {
	m := MustNew(Params{Name: SW, Epsilon: 1, Buckets: 64}).(*swMech)
	if b := m.Params().Bandwidth; b <= 0 {
		t.Fatalf("sw bandwidth not resolved: %v", b)
	}
	if m.Wave().Epsilon() != 1 {
		t.Errorf("wave epsilon = %v", m.Wave().Epsilon())
	}
	// Out-of-range reports clamp rather than error (ingestion contract).
	lo, err := m.BucketOf(-99)
	if err != nil || lo != 0 {
		t.Errorf("BucketOf(-99) = %d, %v", lo, err)
	}
	hi, err := m.BucketOf(99)
	if err != nil || hi != 63 {
		t.Errorf("BucketOf(99) = %d, %v", hi, err)
	}
}

func TestErrorsMentionMechanism(t *testing.T) {
	m := MustNew(Params{Name: OLH, Epsilon: 1, Buckets: 16})
	_, err := m.Bucketize(nil, Report{1})
	if err == nil || !strings.Contains(err.Error(), "olh") {
		t.Errorf("olh error %v does not name the mechanism", err)
	}
}
