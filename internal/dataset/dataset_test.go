package dataset

import (
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/mathx"
)

func TestAllGeneratorsBasicInvariants(t *testing.T) {
	const n = 20000
	for _, name := range Names() {
		ds, err := ByName(name, n, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if ds.N() != n {
			t.Errorf("%s: N = %d, want %d", name, ds.N(), n)
		}
		for i, v := range ds.Values {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s: value[%d] = %v outside [0,1]", name, i, v)
			}
		}
		dist := ds.TrueDistributionAt(ds.Buckets)
		if len(dist) != ds.Buckets {
			t.Errorf("%s: distribution has %d buckets, want %d", name, len(dist), ds.Buckets)
		}
		if !mathx.IsDistribution(dist, 1e-9) {
			t.Errorf("%s: TrueDistributionAt(Buckets) is not a distribution", name)
		}
	}
}

func TestDeterministicInSeed(t *testing.T) {
	a := Taxi(1000, 42)
	b := Taxi(1000, 42)
	c := Taxi(1000, 43)
	if mathx.L1(a.Values, b.Values) != 0 {
		t.Error("same seed produced different datasets")
	}
	if mathx.L1(a.Values, c.Values) == 0 {
		t.Error("different seeds produced identical datasets")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 10, 1); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestBucketsMatchPaper(t *testing.T) {
	want := map[string]int{"beta": 256, "taxi": 1024, "income": 1024, "retirement": 1024}
	for name, buckets := range want {
		ds, _ := ByName(name, 10, 1)
		if ds.Buckets != buckets {
			t.Errorf("%s buckets = %d, want %d", name, ds.Buckets, buckets)
		}
	}
}

func TestBeta52Moments(t *testing.T) {
	ds := Beta52(200000, 7)
	dist := ds.TrueDistributionAt(ds.Buckets)
	if got := histogram.Mean(dist); math.Abs(got-5.0/7.0) > 0.01 {
		t.Errorf("Beta(5,2) mean = %v, want %v", got, 5.0/7.0)
	}
	if got := histogram.Variance(dist); math.Abs(got-10.0/392.0) > 0.003 {
		t.Errorf("Beta(5,2) variance = %v, want %v", got, 10.0/392.0)
	}
}

func TestTaxiShape(t *testing.T) {
	ds := Taxi(300000, 8)
	dist := ds.TrueDistributionAt(24) // hour-of-day histogram
	// Overnight trough: 03:00 bucket far below the 08:00 and 19:00 peaks.
	trough := dist[3]
	morning := dist[8]
	evening := dist[19]
	if morning < 2*trough || evening < 2*trough {
		t.Errorf("taxi shape wrong: trough %v, morning %v, evening %v", trough, morning, evening)
	}
	// Bimodal rush structure: both peaks above the midday value at 11:00.
	if morning <= dist[11] {
		t.Errorf("morning peak %v not above midday %v", morning, dist[11])
	}
	if evening <= dist[11] {
		t.Errorf("evening peak %v not above midday %v", evening, dist[11])
	}
}

func TestIncomeIsSpiky(t *testing.T) {
	const n = 300000
	income := Income(n, 9).TrueDistributionAt(1024)
	taxi := Taxi(n, 9).TrueDistributionAt(1024)
	beta := Beta52(n, 9).TrueDistributionAt(1024)
	si, st, sb := Spikiness(income), Spikiness(taxi), Spikiness(beta)
	if si < 0.3 {
		t.Errorf("income spikiness = %v, expected substantial", si)
	}
	if si <= st+0.1 || si <= sb+0.1 {
		t.Errorf("income (%v) should be much spikier than taxi (%v) and beta (%v)", si, st, sb)
	}
}

func TestIncomeRoundingSpikes(t *testing.T) {
	// Values at exact $1000 multiples must dominate: at least 60% of
	// reports (48% + 22% rounded, plus ties from the body).
	ds := Income(100000, 10)
	round := 0
	for _, v := range ds.Values {
		dollars := v * incomeScale
		if math.Abs(dollars-math.Round(dollars/1000)*1000) < 1e-6 {
			round++
		}
	}
	frac := float64(round) / float64(ds.N())
	if frac < 0.6 {
		t.Errorf("round-dollar fraction = %v, want >= 0.6", frac)
	}
}

func TestRetirementShape(t *testing.T) {
	ds := Retirement(300000, 11)
	dist := ds.TrueDistributionAt(64)
	// Heavy head: the first few buckets (near-zero balances) carry a lot
	// of mass.
	var head float64
	for i := 0; i < 4; i++ {
		head += dist[i]
	}
	if head < 0.15 {
		t.Errorf("retirement head mass = %v, expected >= 0.15", head)
	}
	// Mass is not concentrated at the head only: the body holds the bulk.
	if head > 0.6 {
		t.Errorf("retirement head mass = %v, expected < 0.6", head)
	}
}

func TestDiscreteValuesConsistentWithDistribution(t *testing.T) {
	ds := Beta52(50000, 12)
	disc := ds.DiscreteValuesAt(ds.Buckets)
	counts := make([]float64, ds.Buckets)
	for _, v := range disc {
		if v < 0 || v >= ds.Buckets {
			t.Fatalf("discrete value %d out of range", v)
		}
		counts[v]++
	}
	mathx.Normalize(counts)
	if got := mathx.L1(counts, ds.TrueDistributionAt(ds.Buckets)); got > 1e-9 {
		t.Errorf("discrete values disagree with TrueDistributionAt(Buckets): L1 = %v", got)
	}
}

func TestSpikiness(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if got := Spikiness(uniform); got != 0 {
		t.Errorf("uniform spikiness = %v, want 0", got)
	}
	point := []float64{1, 0, 0, 0}
	if got := Spikiness(point); got != 1 {
		t.Errorf("point-mass spikiness = %v, want 1", got)
	}
	if got := Spikiness(nil); got != 0 {
		t.Errorf("empty spikiness = %v", got)
	}
}

func TestCheckNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=0 should panic")
		}
	}()
	Beta52(0, 1)
}

func BenchmarkIncomeGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Income(10000, uint64(i))
	}
}
