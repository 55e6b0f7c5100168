package mechanism

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
	"repro/internal/matrixx"
	"repro/internal/randx"
	"repro/internal/sw"
)

// swMech adapts the continuous Square Wave / General Wave mechanism. Wire
// reports are single continuous values in [−b, 1+b]; bucketization
// reproduces the pre-mechanism core.Aggregator bit for bit (same wave, same
// bucket arithmetic), and the channel is sw.Wave.Channel.
type swMech struct {
	p    Params // resolved: Bandwidth > 0, PlateauRatio set
	wave sw.Wave
	dt   int

	chOnce sync.Once
	ch     matrixx.Channel
}

func newSW(p Params) *swMech {
	if !p.ExplicitShape {
		p.PlateauRatio = 1
	}
	if p.OutputBuckets <= 0 {
		p.OutputBuckets = p.Buckets
	}
	return &swMech{
		p:    p,
		wave: sw.NewWave(p.Epsilon, p.Bandwidth, p.PlateauRatio),
		dt:   p.OutputBuckets,
	}
}

func (m *swMech) Name() string       { return SW }
func (m *swMech) Epsilon() float64   { return m.p.Epsilon }
func (m *swMech) Buckets() int       { return m.p.Buckets }
func (m *swMech) OutputBuckets() int { return m.dt }
func (m *swMech) Scalar() bool       { return true }
func (m *swMech) FanOut() bool       { return false }
func (m *swMech) Params() Params     { return m.p }

// Wave exposes the underlying wave (used by conformance tests and the
// bandwidth echo of /config).
func (m *swMech) Wave() sw.Wave { return m.wave }

func (m *swMech) Perturb(v float64, rng *randx.Rand) Report {
	return Report{m.wave.Sample(mathx.Clamp(v, 0, 1), rng)}
}

// BucketOf maps a continuous report to its histogram cell, clamping
// out-of-range values exactly as the pre-mechanism ingestion kernel did.
func (m *swMech) BucketOf(report float64) (int, error) {
	if math.IsNaN(report) {
		return 0, fmt.Errorf("mechanism: sw report is NaN")
	}
	span := m.wave.OutHi() - m.wave.OutLo()
	j := int((report - m.wave.OutLo()) / span * float64(m.dt))
	return mathx.ClampInt(j, 0, m.dt-1), nil
}

func (m *swMech) Bucketize(dst []int, rep Report) ([]int, error) {
	if len(rep) != 1 {
		return dst, fmt.Errorf("mechanism: sw report wants 1 component, got %d", len(rep))
	}
	j, err := m.BucketOf(rep[0])
	if err != nil {
		return dst, err
	}
	return append(dst, j), nil
}

func (m *swMech) Users(counts []float64, increments int) int { return increments }

func (m *swMech) Channel() matrixx.Channel {
	m.chOnce.Do(func() { m.ch = m.wave.Channel(m.p.Buckets, m.dt) })
	return m.ch
}

func (m *swMech) EstimateInto(dst, counts []float64) []float64 { return nil }

// discreteSW adapts the bucketize-before-randomize Square Wave of Section
// 5.4. Wire reports are output bucket indices in {0..d+2b−1}; Params.
// Bandwidth is the half-width as a fraction of the domain (the integer
// half-width is ⌊Bandwidth·d⌋, defaulting to ⌊BOpt(ε)·d⌋).
type discreteSW struct {
	p    Params
	mech sw.Discrete

	chOnce sync.Once
	ch     matrixx.Channel
}

func newDiscreteSW(p Params) *discreteSW {
	b := int(math.Floor(p.Bandwidth * float64(p.Buckets)))
	return &discreteSW{p: p, mech: sw.NewDiscreteWithB(p.Buckets, p.Epsilon, b)}
}

func (m *discreteSW) Name() string       { return SWDiscrete }
func (m *discreteSW) Epsilon() float64   { return m.p.Epsilon }
func (m *discreteSW) Buckets() int       { return m.p.Buckets }
func (m *discreteSW) OutputBuckets() int { return m.mech.Dt() }
func (m *discreteSW) Scalar() bool       { return true }
func (m *discreteSW) FanOut() bool       { return false }
func (m *discreteSW) Params() Params     { return m.p }

func (m *discreteSW) Perturb(v float64, rng *randx.Rand) Report {
	return Report{float64(m.mech.Perturb(discretize(v, m.p.Buckets), rng))}
}

func (m *discreteSW) BucketOf(report float64) (int, error) {
	return intComponent(report, m.mech.Dt(), SWDiscrete, "report")
}

func (m *discreteSW) Bucketize(dst []int, rep Report) ([]int, error) {
	if len(rep) != 1 {
		return dst, fmt.Errorf("mechanism: sw-discrete report wants 1 component, got %d", len(rep))
	}
	j, err := m.BucketOf(rep[0])
	if err != nil {
		return dst, err
	}
	return append(dst, j), nil
}

func (m *discreteSW) Users(counts []float64, increments int) int { return increments }

func (m *discreteSW) Channel() matrixx.Channel {
	m.chOnce.Do(func() { m.ch = m.mech.Channel() })
	return m.ch
}

func (m *discreteSW) EstimateInto(dst, counts []float64) []float64 { return nil }
