package postprocess

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// FuzzNormSub checks the projection invariants on arbitrary 8-entry inputs:
// output on the simplex, idempotent, monotone in the input ordering.
func FuzzNormSub(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, 0.4, -0.1, 0.0, 1.5, -2.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
	f.Add(-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0)
	f.Add(1e9, -1e9, 1e-9, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		in := []float64{a, b, c, d, e, g, h, i}
		for _, v := range in {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip()
			}
		}
		out := NormSub(in)
		if !mathx.IsDistribution(out, 1e-6) {
			t.Fatalf("NormSub(%v) = %v is not a distribution", in, out)
		}
		twice := NormSub(out)
		if mathx.L1(out, twice) > 1e-6 {
			t.Fatalf("NormSub not idempotent on %v", in)
		}
		for x := range in {
			for y := range in {
				if in[x] > in[y] && out[x] < out[y]-1e-9 {
					t.Fatalf("NormSub not monotone on %v", in)
				}
			}
		}
	})
}
