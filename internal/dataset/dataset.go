// Package dataset provides the four evaluation workloads of Section 6.1.
// The Beta(5,2) dataset is generated exactly as in the paper. The three
// real-world datasets (NYC taxi pickup times, ACS income, SF retirement
// compensation) are not redistributable, so seeded synthetic generators
// reproduce the shape properties the paper's analysis depends on — see
// DESIGN.md §2 for the substitution rationale:
//
//   - Taxi: a smooth multi-modal daily cycle (overnight trough, morning and
//     evening rush peaks);
//   - Income: a heavy-tailed lognormal body with point-mass spikes at round
//     amounts (people report $3000, not $3050), the property that makes
//     HH-ADMM competitive on KS/quantile metrics;
//   - Retirement: a large mass near zero plus a skewed body and a small
//     secondary bump.
//
// All values are mapped into [0,1]. Generators are deterministic given the
// seed.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/histogram"
	"repro/internal/mathx"
	"repro/internal/randx"
)

// Dataset is a named collection of private values in [0,1] with the
// histogram granularity the paper uses for it.
type Dataset struct {
	// Name identifies the workload ("beta", "taxi", "income",
	// "retirement").
	Name string
	// Values holds the private values, each in [0,1].
	Values []float64
	// Buckets is the histogram granularity the paper evaluates this
	// dataset at (256 for Beta, 1024 for the others).
	Buckets int
}

// TrueDistributionAt returns the exact bucketized distribution at an
// explicit granularity.
func (d *Dataset) TrueDistributionAt(buckets int) []float64 {
	return histogram.Distribution(d.Values, buckets)
}

// DiscreteValuesAt bucketizes at an explicit granularity.
func (d *Dataset) DiscreteValuesAt(buckets int) []int {
	out := make([]int, len(d.Values))
	for i, v := range d.Values {
		out[i] = histogram.BucketOf(v, buckets)
	}
	return out
}

// N returns the number of users.
func (d *Dataset) N() int { return len(d.Values) }

func checkN(n int) {
	if n < 1 {
		panic(fmt.Sprintf("dataset: need at least one sample, got %d", n))
	}
}

// Beta52 generates the synthetic Beta(5,2) dataset (paper: n = 100,000,
// 256 buckets).
func Beta52(n int, seed uint64) *Dataset {
	checkN(n)
	rng := randx.New(seed)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Beta(5, 2)
	}
	return &Dataset{Name: "beta", Values: values, Buckets: 256}
}

// Taxi generates the synthetic stand-in for the NYC taxi pickup-time
// dataset (paper: n = 2,189,968, 1024 buckets): time-of-day in [0,1] with an
// overnight trough, a sharp morning rush, a broad midday plateau and a heavy
// evening peak.
func Taxi(n int, seed uint64) *Dataset {
	checkN(n)
	rng := randx.New(seed)
	mix := randx.NewMixture(
		// Morning rush around 08:00.
		randx.MixtureComponent{Weight: 0.22, Sample: func(r *randx.Rand) float64 {
			return r.Normal(8.0/24, 1.2/24)
		}},
		// Broad midday/afternoon traffic.
		randx.MixtureComponent{Weight: 0.33, Sample: func(r *randx.Rand) float64 {
			return r.Normal(14.0/24, 3.0/24)
		}},
		// Evening peak around 19:30.
		randx.MixtureComponent{Weight: 0.30, Sample: func(r *randx.Rand) float64 {
			return r.Normal(19.5/24, 1.8/24)
		}},
		// Late-night long tail past midnight.
		randx.MixtureComponent{Weight: 0.08, Sample: func(r *randx.Rand) float64 {
			return r.Normal(23.0/24, 1.5/24)
		}},
		// Thin uniform base load (overnight trips, shift changes).
		randx.MixtureComponent{Weight: 0.07, Sample: func(r *randx.Rand) float64 {
			return r.Float64()
		}},
	)
	values := make([]float64, n)
	for i := range values {
		v := mix.Sample(rng)
		// Wrap around midnight rather than clamping, preserving the
		// overnight trough shape.
		v = v - math.Floor(v)
		values[i] = v
	}
	return &Dataset{Name: "taxi", Values: values, Buckets: 1024}
}

// incomeScale is the upper bound the paper uses for incomes (2^19 dollars);
// round-number spikes are planted relative to it.
const incomeScale = 524288.0

// Income generates the synthetic stand-in for the ACS income dataset
// (paper: n = 2,308,374, 1024 buckets): a lognormal body truncated to
// [0, 2^19) with strong point-mass spikes at round dollar amounts — 48% of
// reports rounded to the nearest $1000, a further 22% to the nearest $5000 —
// making the bucketized distribution spiky the way the paper describes.
func Income(n int, seed uint64) *Dataset {
	checkN(n)
	rng := randx.New(seed)
	values := make([]float64, n)
	for i := range values {
		// Median ≈ $38k, heavy right tail.
		dollars := rng.LogNormal(math.Log(38000), 0.75)
		for dollars >= incomeScale {
			dollars = rng.LogNormal(math.Log(38000), 0.75)
		}
		switch u := rng.Float64(); {
		case u < 0.48:
			dollars = math.Round(dollars/1000) * 1000
		case u < 0.70:
			dollars = math.Round(dollars/5000) * 5000
		}
		if dollars >= incomeScale {
			dollars = incomeScale - 1
		}
		values[i] = dollars / incomeScale
	}
	return &Dataset{Name: "income", Values: values, Buckets: 1024}
}

// retirementScale is the upper bound (60,000) of the retained range of the
// SF retirement dataset.
const retirementScale = 60000.0

// Retirement generates the synthetic stand-in for the SF employee
// retirement dataset (paper: n = 178,012 after keeping [0, 60000), 1024
// buckets): a large mass of small balances near zero, a skewed main body,
// and a modest secondary bump of long-tenure plans.
func Retirement(n int, seed uint64) *Dataset {
	checkN(n)
	rng := randx.New(seed)
	mix := randx.NewMixture(
		// Near-zero balances (new or briefly-enrolled employees).
		randx.MixtureComponent{Weight: 0.30, Sample: func(r *randx.Rand) float64 {
			return r.Exponential(1.0/2500) / retirementScale
		}},
		// Main skewed body.
		randx.MixtureComponent{Weight: 0.55, Sample: func(r *randx.Rand) float64 {
			return r.LogNormal(math.Log(14000), 0.6) / retirementScale
		}},
		// Long-tenure bump.
		randx.MixtureComponent{Weight: 0.15, Sample: func(r *randx.Rand) float64 {
			return r.Normal(38000, 7000) / retirementScale
		}},
	)
	values := make([]float64, n)
	for i := range values {
		v := mix.Sample(rng)
		for v < 0 || v >= 1 {
			v = mix.Sample(rng)
		}
		values[i] = v
	}
	return &Dataset{Name: "retirement", Values: values, Buckets: 1024}
}

// ByName generates the named dataset with n samples. Recognized names:
// "beta", "taxi", "income", "retirement".
func ByName(name string, n int, seed uint64) (*Dataset, error) {
	switch name {
	case "beta":
		return Beta52(n, seed), nil
	case "taxi":
		return Taxi(n, seed), nil
	case "income":
		return Income(n, seed), nil
	case "retirement":
		return Retirement(n, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q (want beta, taxi, income or retirement)", name)
	}
}

// Names lists the four datasets in the paper's presentation order.
func Names() []string { return []string{"beta", "taxi", "income", "retirement"} }

// Spikiness quantifies how spiky a distribution is: the fraction of
// probability mass carried by buckets holding more than twice the uniform
// share. The Income dataset scores far above the smooth datasets, which is
// the property behind HH-ADMM's KS-distance advantage there (Section 6.2).
func Spikiness(dist []float64) float64 {
	d := len(dist)
	if d == 0 {
		return 0
	}
	threshold := 2.0 / float64(d)
	var mass float64
	for _, p := range dist {
		if p > threshold {
			mass += p
		}
	}
	return mathx.Clamp(mass, 0, 1)
}
