package ldptest

import (
	"strings"
	"testing"

	"repro/internal/histogram"
	"repro/internal/mechanism"
	"repro/internal/randx"
	"repro/internal/sw"
)

// grrAdapter adapts the grr mechanism to DiscreteMechanism: input bucket v
// is perturbed through its center, and the report is the output bucket.
type grrAdapter struct{ m mechanism.Mechanism }

func newGRR(d int, eps float64) grrAdapter {
	return grrAdapter{mechanism.MustNew(mechanism.Params{Name: mechanism.GRR, Epsilon: eps, Buckets: d})}
}

func (a grrAdapter) OutputSize() int { return a.m.OutputBuckets() }
func (a grrAdapter) Sample(v int, rng *randx.Rand) int {
	return int(a.m.Perturb(histogram.BucketCenter(v, a.m.Buckets()), rng)[0])
}

// discreteSWAdapter adapts sw.Discrete.
type discreteSWAdapter struct{ s sw.Discrete }

func (a discreteSWAdapter) OutputSize() int                   { return a.s.Dt() }
func (a discreteSWAdapter) Sample(v int, rng *randx.Rand) int { return a.s.Perturb(v, rng) }

// waveAdapter adapts sw.Wave to ContinuousMechanism.
type waveAdapter struct{ w sw.Wave }

func (a waveAdapter) OutputRange() (float64, float64) { return a.w.OutLo(), a.w.OutHi() }
func (a waveAdapter) Sample(v float64, rng *randx.Rand) float64 {
	return a.w.Sample(v, rng)
}

// brokenMechanism deliberately violates LDP: it reports the truth with 99%
// probability.
type brokenMechanism struct{ d int }

func (b brokenMechanism) OutputSize() int { return b.d }
func (b brokenMechanism) Sample(v int, rng *randx.Rand) int {
	if rng.Bernoulli(0.99) {
		return v
	}
	return rng.IntN(b.d)
}

func TestGRRPasses(t *testing.T) {
	g := newGRR(6, 1.0)
	if err := CheckDiscrete(g, 6, 1.0, Options{Samples: 100000}); err != nil {
		t.Errorf("GRR flagged: %v", err)
	}
}

func TestDiscreteSWPasses(t *testing.T) {
	s := sw.NewDiscreteWithB(12, 1.0, 2)
	if err := CheckDiscrete(discreteSWAdapter{s}, 12, 1.0, Options{Samples: 100000}); err != nil {
		t.Errorf("discrete SW flagged: %v", err)
	}
}

func TestContinuousWavesPass(t *testing.T) {
	for _, rho := range []float64{0, 0.5, 1} {
		w := sw.NewWave(1.0, 0.25, rho)
		if err := CheckContinuous(waveAdapter{w}, 1.0, Options{Samples: 150000}); err != nil {
			t.Errorf("wave rho=%v flagged: %v", rho, err)
		}
	}
}

func TestBrokenMechanismCaught(t *testing.T) {
	err := CheckDiscrete(brokenMechanism{d: 6}, 6, 1.0, Options{Samples: 100000})
	if err == nil {
		t.Fatal("broken mechanism passed the check")
	}
	v, ok := err.(Violation)
	if !ok {
		t.Fatalf("error is %T, want Violation", err)
	}
	if v.Ratio <= v.Bound {
		t.Errorf("violation ratio %v should exceed bound %v", v.Ratio, v.Bound)
	}
	if !strings.Contains(v.Error(), "exceeds bound") {
		t.Errorf("violation message = %q", v.Error())
	}
}

func TestWrongEpsilonCaught(t *testing.T) {
	// A mechanism calibrated for ε=3 must fail a check against ε=1.
	g := newGRR(6, 3.0)
	if err := CheckDiscrete(g, 6, 1.0, Options{Samples: 200000}); err == nil {
		t.Error("ε=3 mechanism passed an ε=1 check")
	}
}

func TestCheckContinuousBadRange(t *testing.T) {
	if err := CheckContinuous(badRange{}, 1, Options{Samples: 10}); err == nil {
		t.Error("empty output range should error")
	}
}

type badRange struct{}

func (badRange) OutputRange() (float64, float64)         { return 1, 1 }
func (badRange) Sample(v float64, r *randx.Rand) float64 { return 0 }

func TestInputSubset(t *testing.T) {
	// Restricting the input grid is honored (only two inputs sampled).
	g := newGRR(64, 1.0)
	err := CheckDiscrete(g, 64, 1.0, Options{
		Samples: 50000,
		Inputs:  []float64{0, 63},
	})
	if err != nil {
		t.Errorf("subset check flagged: %v", err)
	}
}
