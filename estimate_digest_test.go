package repro_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro"
	"repro/internal/randx"
)

// TestAggregatorEstimateDigest pins the library's cold reconstructions bit
// for bit: Aggregator.Estimate and EstimateWindow on a fixed population and
// seed must always produce the same estimate digest, for a channel mechanism
// (sw, run through EMS) and a matrix-free oracle (oue).
func TestAggregatorEstimateDigest(t *testing.T) {
	golden := []struct {
		mech               string
		full, sealed, live uint64
	}{
		{"sw", 0x9a3e71c4e8545072, 0x876a1a766c1f204a, 0xe80a4ba688efbc07},
		{"oue", 0x9e85f0a6447f7901, 0x640c512ed5c1b864, 0x53c185b80730f674},
	}
	for _, g := range golden {
		opts := repro.Options{Epsilon: 1, Buckets: 32, Seed: 0xD16E57, Mechanism: g.mech,
			Epoch: time.Hour, Retain: 4}
		agg, err := repro.NewAggregator(opts)
		if err != nil {
			t.Fatal(err)
		}
		client, err := repro.NewClient(opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(0x601DE7)
		for epoch, shape := range [][2]float64{{5, 2}, {2, 5}} {
			for i := 0; i < 4000; i++ {
				if err := agg.IngestReport(client.Perturb(rng.Beta(shape[0], shape[1]))); err != nil {
					t.Fatal(err)
				}
			}
			if epoch == 0 {
				if err := agg.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		full, err := agg.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := agg.EstimateWindow("epochs:0..0")
		if err != nil {
			t.Fatal(err)
		}
		live, err := agg.EstimateWindow("last:1")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			dist []float64
			want uint64
		}{
			{"Estimate", full.Distribution, g.full},
			{"EstimateWindow(epochs:0..0)", sealed.Distribution, g.sealed},
			{"EstimateWindow(last:1)", live.Distribution, g.live},
		} {
			if got := digest(c.dist); got != c.want {
				t.Errorf("%s %s: digest %#x, want %#x", g.mech, c.what, got, c.want)
			}
		}
	}
}

// digest hashes a distribution's float64 bit patterns.
func digest(dist []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range dist {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}
