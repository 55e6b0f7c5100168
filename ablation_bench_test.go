package repro_test

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// benchmark reports the relevant utility metric through b.ReportMetric so a
// single `go test -bench Ablation` run shows both the cost and the effect of
// each choice:
//
//   - R-B vs B-R (continuous randomize-before-bucketize vs discrete
//     bucketize-before-randomize, Section 5.4 — paper: "very similar")
//   - population split vs budget split in the hierarchy (Section 4.2)
//   - EMS smoothing kernel width (the (1,2,1) choice of Section 5.5)
//   - dense vs plateau EM channel (implementation ablation)
//   - HH branching factor β (Section 4.2 — optimum near 4–5 in LDP)
//
// The OLH hash-range ablation (Section 2.1 — optimum at g = ⌊e^ε⌋+1) lives
// with the oracle, in internal/mechanism.

import (
	"testing"

	"repro/internal/admm"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/em"
	"repro/internal/hierarchy"
	"repro/internal/matrixx"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sw"
)

const (
	ablN   = 20000
	ablD   = 256
	ablEps = 1.0
)

func ablDataset() (*dataset.Dataset, []float64) {
	ds := dataset.Beta52(ablN, 1)
	return ds, ds.TrueDistributionAt(ablD)
}

// BenchmarkAblationRBvsBR compares the continuous (R-B) and discrete (B-R)
// Square Wave pipelines; the W1 metrics should be close (paper: results
// "very similar", Section 5.4).
func BenchmarkAblationRBvsBR(b *testing.B) {
	ds, truth := ablDataset()
	for _, mode := range []struct {
		name string
		est  core.Estimator
	}{
		{"RB", core.SWEMS()},
		{"BR", core.SWDiscreteEMS()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var w1 float64
			for i := 0; i < b.N; i++ {
				rng := randx.New(uint64(i + 1))
				est := mode.est.Estimate(ds.Values, ablD, ablEps, rng)
				w1 += metrics.Wasserstein(truth, est)
			}
			b.ReportMetric(w1/float64(b.N), "W1")
		})
	}
}

// BenchmarkAblationPopulationVsBudget compares the two privacy-accounting
// strategies for hierarchical histograms (population split must win under
// LDP, Section 4.2).
func BenchmarkAblationPopulationVsBudget(b *testing.B) {
	ds, truth := ablDataset()
	values := ds.DiscreteValuesAt(ablD)
	hh := hierarchy.NewHH(ablD, 4, ablEps)
	for _, mode := range []string{"population", "budget"} {
		b.Run(mode, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				rng := randx.New(uint64(i + 1))
				var est *hierarchy.Estimate
				if mode == "population" {
					est = hh.Collect(values, rng)
				} else {
					est = hh.CollectBudgetSplit(values, rng)
				}
				mae += hierarchy.RangeMAEEstimate(est.ConstrainedInference(), truth, ablD/10)
			}
			b.ReportMetric(mae/float64(b.N), "rangeMAE")
		})
	}
}

// BenchmarkAblationSmoothingKernel sweeps the EMS binomial kernel width
// (1 = plain EM behaviour of the S-step, 3 = the paper's kernel, 5/7 =
// stronger smoothing).
func BenchmarkAblationSmoothingKernel(b *testing.B) {
	ds, truth := ablDataset()
	w := sw.NewSquare(ablEps)
	m := w.TransitionMatrix(ablD, ablD)
	for _, width := range []int{1, 3, 5, 7} {
		b.Run(map[int]string{1: "w1", 3: "w3", 5: "w5", 7: "w7"}[width], func(b *testing.B) {
			var w1 float64
			for i := 0; i < b.N; i++ {
				rng := randx.New(uint64(i + 1))
				counts := w.Collect(ds.Values, ablD, rng)
				opts := em.EMSOptions()
				opts.SmoothWidth = width
				res := em.Reconstruct(m, counts, opts)
				w1 += metrics.Wasserstein(truth, res.Estimate)
			}
			b.ReportMetric(w1/float64(b.N), "W1")
		})
	}
}

// BenchmarkAblationDenseVsPlateau compares EM iteration cost on the dense
// matrix vs the linear-time plateau channel at a large ε; the W1 metric
// confirms the outputs agree.
func BenchmarkAblationDenseVsPlateau(b *testing.B) {
	ds, truth := ablDataset()
	const eps = 4.0
	w := sw.NewSquare(eps)
	dense := w.TransitionMatrix(ablD, ablD)
	plateau := w.Channel(ablD, ablD)
	rng := randx.New(1)
	counts := w.Collect(ds.Values, ablD, rng)
	for _, mode := range []struct {
		name string
		ch   matrixx.Channel
	}{
		{"dense", dense},
		{"plateau", plateau},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var w1 float64
			for i := 0; i < b.N; i++ {
				res := em.Reconstruct(mode.ch, counts, em.EMSOptions())
				w1 += metrics.Wasserstein(truth, res.Estimate)
			}
			b.ReportMetric(w1/float64(b.N), "W1")
		})
	}
}

// BenchmarkAblationBranchingFactor sweeps the HH-ADMM branching factor β
// on a 4096-leaf domain (4096 = 2^12 = 4^6 = 8^4 = 16^3).
func BenchmarkAblationBranchingFactor(b *testing.B) {
	const d = 4096
	ds := dataset.Taxi(ablN, 1)
	truth := ds.TrueDistributionAt(d)
	values := ds.DiscreteValuesAt(d)
	for _, beta := range []int{2, 4, 8, 16} {
		b.Run(map[int]string{2: "beta2", 4: "beta4", 8: "beta8", 16: "beta16"}[beta], func(b *testing.B) {
			var w1 float64
			for i := 0; i < b.N; i++ {
				rng := randx.New(uint64(i + 1))
				raw := hierarchy.NewHH(d, beta, ablEps).Collect(values, rng)
				dist := admm.Distribution(raw, admm.Options{MaxIters: 100})
				w1 += metrics.Wasserstein(truth, dist)
			}
			b.ReportMetric(w1/float64(b.N), "W1")
		})
	}
}
