package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
)

// TestGoldenBatchEstimates pins the paper's batch baselines bit for bit on
// configurations whose frequency oracles are GRR or HRR only, and the
// bucketize-before-randomize Square Wave: a fixed population and seed must
// always produce the same estimate digest. OLH-
// backed configurations (large bin counts or hierarchy levels at small ε)
// are deliberately not pinned: their hash seeds are 53-bit draws shared
// with the collector's wire format, so their estimates are covered by the
// statistical tests instead.
func TestGoldenBatchEstimates(t *testing.T) {
	values := dataset.Beta52(5000, 3).Values
	golden := []struct {
		est    Estimator
		d      int
		eps    float64
		digest uint64
	}{
		{HaarHRR(), 64, 2.5, 0x2c1776bc4d636ffa},
		{Binning(16), 64, 2.5, 0x8032b1004a32b395}, // 14 < 3e^2.5: GRR
		{HH(4), 64, 4, 0x15bda764e4b9203d},         // 62 < 3e^4: GRR at every level
		{SWDiscreteEMS(), 64, 1, 0x54ba595bb09fc4eb},
		{SWDiscreteEMS(), 256, 2.5, 0xd59468ca12e76506},
	}
	for _, g := range golden {
		est := g.est.Estimate(values, g.d, g.eps, randx.New(0x601DE7))
		h := fnv.New64a()
		var buf [8]byte
		for _, x := range est {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != g.digest {
			t.Errorf("%s(d=%d, ε=%g): digest %#x, want %#x", g.est.Name(), g.d, g.eps, got, g.digest)
		}
	}
}
