package mechanism

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/randx"
)

// writeFloats folds one vector into a digest: its length, then the
// IEEE-754 bits of every component, so a change in any draw, any component
// or any report's shape changes the digest.
func writeFloats(h hash.Hash64, xs []float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
	h.Write(buf[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// TestGoldenReports pins the wire output of every mechanism bit for bit: a
// fixed seed perturbs a fixed value sequence, and the digest of the 2,000
// reports (plus, for the matrix-free oracles, of the debiased estimate of
// their histogram) must never move. A refactor that reorders, adds or drops
// a random draw, or changes an estimate's arithmetic, fails here.
func TestGoldenReports(t *testing.T) {
	const n = 2000
	golden := []struct {
		name              string
		eps               float64
		d                 int
		reports, estimate uint64 // estimate: 0 for channel mechanisms
	}{
		{SW, 1, 64, 0xf20406c763005ead, 0},
		{SWDiscrete, 1, 64, 0xf66fc45f653bbcae, 0},
		{GRR, 1, 64, 0xe1cc07b74a967ce4, 0},
		{OUE, 1, 64, 0x067b9e06f4fac941, 0x7cd9c12af5b903dd},
		{SUE, 1, 64, 0x059b54c013b8e770, 0xca10353e9f268af3},
		{OLH, 1, 64, 0xe99e14f0e8b03cd1, 0xce55db64757125aa},
		{HRR, 1, 64, 0xbca415befee997de, 0xfa30cfb84137dc7e},
		{SW, 3, 10, 0xf6107aa28f1aea83, 0},
		{SWDiscrete, 3, 10, 0x6a7e29f79795b028, 0},
		{GRR, 3, 10, 0xfb42f872760a61c2, 0},
		{OUE, 3, 10, 0xa5b263d907c05bd0, 0x84316123ab8b639c},
		{SUE, 3, 10, 0x77f700bf22ec268a, 0x885bc6a8b9ef46e1},
		{OLH, 3, 10, 0xccc6f81138fa04b4, 0x8861ecb44871ddb7},
		{HRR, 3, 10, 0x72913f7a79b73a19, 0x6ec6aafe048cddc1},
	}
	for _, g := range golden {
		m := MustNew(Params{Name: g.name, Epsilon: g.eps, Buckets: g.d})
		rng := randx.New(0x601DE7)
		counts := make([]float64, m.OutputBuckets())
		reports := fnv.New64a()
		var cells []int
		for i := 0; i < n; i++ {
			rep := m.Perturb(math.Mod(float64(i)*0.6180339887498949, 1), rng)
			writeFloats(reports, rep)
			var err error
			if cells, err = m.Bucketize(cells[:0], rep); err != nil {
				t.Fatalf("%s(ε=%g,d=%d): own report rejected: %v", g.name, g.eps, g.d, err)
			}
			for _, c := range cells {
				counts[c]++
			}
		}
		var estimate uint64
		if m.Channel() == nil {
			h := fnv.New64a()
			writeFloats(h, m.EstimateInto(nil, counts))
			estimate = h.Sum64()
		}
		if got := reports.Sum64(); got != g.reports || estimate != g.estimate {
			t.Errorf("{%s, %g, %d, %#x, %#x}, want reports %#x, estimate %#x",
				g.name, g.eps, g.d, got, estimate, g.reports, g.estimate)
		}
	}
}
