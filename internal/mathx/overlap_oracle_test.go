package mathx

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// The overlap integrals compare bounds directly and integrate over the
// breakpoints in their known order; oracleIntervalOverlap and
// oracleBandRectOverlapIntegral are the math.Max/math.Min and sorting
// versions they replaced, kept verbatim, and every result must match
// theirs bit for bit.

func oracleIntervalOverlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func oracleBandRectOverlapIntegral(vlo, vhi, ulo, uhi, b float64) float64 {
	if vhi <= vlo || uhi <= ulo || b <= 0 {
		return 0
	}
	pts := []float64{vlo, vhi, ulo - b, ulo + b, uhi - b, uhi + b}
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	f := func(v float64) float64 {
		return oracleIntervalOverlap(v-b, v+b, ulo, uhi)
	}
	var area float64
	for i := 0; i+1 < len(pts); i++ {
		a0 := math.Max(pts[i], vlo)
		a1 := math.Min(pts[i+1], vhi)
		if a1 <= a0 {
			continue
		}
		area += (f(a0) + f(a1)) / 2 * (a1 - a0)
	}
	return area
}

// TestOverlapMatchesOracle draws rectangles and bands at every relative
// position — disjoint, touching, nested, wider and narrower than the band,
// degenerate — and on the grids the Square Wave channel integrates over.
func TestOverlapMatchesOracle(t *testing.T) {
	check := func(vlo, vhi, ulo, uhi, b float64) {
		t.Helper()
		got := BandRectOverlapIntegral(vlo, vhi, ulo, uhi, b)
		want := oracleBandRectOverlapIntegral(vlo, vhi, ulo, uhi, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BandRectOverlapIntegral(%v, %v, %v, %v, %v) = %v, oracle %v", vlo, vhi, ulo, uhi, b, got, want)
		}
		for _, iv := range [][4]float64{{vlo, vhi, ulo, uhi}, {ulo - b, ulo + b, vlo, vhi}, {vhi, vlo, ulo, uhi}} {
			got, want := IntervalOverlap(iv[0], iv[1], iv[2], iv[3]), oracleIntervalOverlap(iv[0], iv[1], iv[2], iv[3])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("IntervalOverlap%v = %v, oracle %v", iv, got, want)
			}
		}
	}
	rng := randx.New(11)
	// A small lattice makes ties between breakpoints and edges common.
	lattice := func() float64 { return float64(rng.IntN(17)-8) / 8 }
	for n := 0; n < 200000; n++ {
		vlo, ulo := lattice(), lattice()
		vhi, uhi := vlo+lattice(), ulo+lattice()
		b := lattice()
		if n%2 == 1 {
			vlo, ulo = rng.Uniform(-2, 2), rng.Uniform(-2, 2)
			vhi, uhi = vlo+rng.Uniform(-0.1, 1.5), ulo+rng.Uniform(-0.1, 1.5)
			b = rng.Uniform(-0.1, 1)
		}
		check(vlo, vhi, ulo, uhi, b)
	}
	for _, b := range []float64{1e-9, 0.01, 0.1, 0.2, 0.37, 0.5, 2} {
		for _, d := range []int{2, 3, 7, 100, 1000} {
			for _, dt := range []int{d/2 + 1, d, d + 3, 2 * d} {
				outW, inW := (1+2*b)/float64(dt), 1/float64(d)
				for i := 0; i < d; i += max(1, d/50) {
					vlo := float64(i) * inW
					for j := 0; j < dt; j++ {
						ulo := -b + float64(j)*outW
						check(vlo, vlo+inW, ulo, ulo+outW, b)
					}
				}
			}
		}
	}
}
