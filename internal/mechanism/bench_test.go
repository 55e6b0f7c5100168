package mechanism

// Serving-path throughput of the mechanism layer: BenchmarkPerturb is the
// client-side randomization cost per report, BenchmarkBucketize the
// server-side ingestion cost per wire report (validation + cell fan-out),
// and BenchmarkEstimate one direct reconstruction of the matrix-free
// oracles from an accumulated histogram (channel mechanisms reconstruct
// through EM — benchmarked in internal/em). Results are recorded in
// BENCH_mech.json and smoke-run by CI on every PR. BenchmarkAblationOLHRange
// sweeps the OLH hash range g and reports the estimate's error.

import (
	"fmt"
	"testing"

	"repro/internal/mathx"
	"repro/internal/randx"
)

var benchDomains = []int{256, 1024, 4096}

const benchEps = 1.0

func benchMech(b *testing.B, name string, d int) Mechanism {
	b.Helper()
	return MustNew(Params{Name: name, Epsilon: benchEps, Buckets: d})
}

func BenchmarkPerturb(b *testing.B) {
	for _, name := range Names() {
		for _, d := range benchDomains {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				m := benchMech(b, name, d)
				rng := randx.New(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Perturb(0.37, rng)
				}
			})
		}
	}
}

func BenchmarkBucketize(b *testing.B) {
	for _, name := range Names() {
		for _, d := range benchDomains {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				m := benchMech(b, name, d)
				rng := randx.New(2)
				// A small rotation of pre-perturbed reports, so the
				// benchmark measures ingestion, not randomization.
				reports := make([]Report, 64)
				for i := range reports {
					reports[i] = m.Perturb(rng.Float64(), rng)
				}
				var cells []int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					cells, err = m.Bucketize(cells[:0], reports[i%len(reports)])
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkEstimate(b *testing.B) {
	for _, name := range []string{OUE, SUE, OLH, HRR} {
		for _, d := range benchDomains {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				m := benchMech(b, name, d)
				rng := randx.New(3)
				counts := make([]float64, m.OutputBuckets())
				var cells []int
				for i := 0; i < 2000; i++ {
					cells, _ = m.Bucketize(cells[:0], m.Perturb(rng.Float64(), rng))
					for _, c := range cells {
						counts[c]++
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.EstimateInto(nil, counts)
				}
			})
		}
	}
}

// BenchmarkAblationOLHRange sweeps the OLH hash range g around the
// variance-optimal ⌊e^ε⌋+1 (= 3 at ε = 1): 20,000 users over a skewed
// 64-value domain, reporting the L2 error of the batch estimate.
func BenchmarkAblationOLHRange(b *testing.B) {
	const d, n = 64, 20000
	values, truth := genValues(n, d, randx.New(1))
	for _, g := range []int{2, 3, 6, 16} {
		b.Run(map[int]string{2: "g2", 3: "g3-optimal", 6: "g6", 16: "g16"}[g], func(b *testing.B) {
			m := newOLHWithG(Params{Name: OLH, Epsilon: benchEps, Buckets: d}, g)
			var l2 float64
			for i := 0; i < b.N; i++ {
				l2 += mathx.L2(truth, Collect(m, values, randx.New(uint64(i+1))))
			}
			b.ReportMetric(l2/float64(b.N), "L2err")
		})
	}
}
