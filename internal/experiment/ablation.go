package experiment

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/em"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sw"
)

// Ablations measures the design-choice sweeps DESIGN.md calls out, as table
// rows (the bench harness exposes the same sweeps as testing.B benchmarks;
// this variant feeds `cmd/experiments -exp ablations`):
//
//   - R-B vs B-R bucketization order (Section 5.4)
//   - population-split vs budget-split hierarchies (Section 4.2)
//   - EMS smoothing kernel width (Section 5.5)
//   - wave profile shapes beyond the trapezoid family (cosine, parabolic)
func Ablations(cfg Config) []Row {
	cfg = cfg.filled()
	base := randx.New(cfg.Seed)
	name := cfg.Datasets[0] // ablations use one workload
	ds, err := dataset.ByName(name, cfg.N, cfg.Seed)
	if err != nil {
		panic(err)
	}
	d := cfg.Buckets
	if d == 0 {
		d = 256
	}
	truth := ds.TrueDistributionAt(d)
	const eps = 1.0

	var rows []Row
	addW1 := func(method string, samples []float64) {
		m, s := summarize(samples)
		rows = append(rows, Row{Figure: "ablations", Dataset: name, Method: method,
			Metric: "W1", Epsilon: eps, Mean: m, Std: s, Reps: cfg.Reps,
			Samples: cfg.keep(samples)})
	}
	runEst := func(e core.Estimator, key uint64) []float64 {
		var w1s []float64
		for _, est := range runDistribution(e, ds, d, eps, cfg, base, key) {
			w1s = append(w1s, metrics.Wasserstein(truth, est))
		}
		return w1s
	}

	// Bucketization order.
	addW1("order/R-B", runEst(core.SWEMS(), rowKey(90, 1)))
	addW1("order/B-R", runEst(core.SWDiscreteEMS(), rowKey(90, 2)))

	// Smoothing kernel width.
	for wi, width := range []int{1, 3, 5, 7} {
		kcfg := core.Config{Epsilon: eps, Buckets: d, Smoothing: true, EM: em.Options{SmoothWidth: width}}
		var w1s []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			est := core.Run(kcfg, ds.Values, base.Split(rowKey(91, wi, rep)))
			w1s = append(w1s, metrics.Wasserstein(truth, est))
		}
		addW1(map[int]string{1: "kernel/1", 3: "kernel/3", 5: "kernel/5", 7: "kernel/7"}[width], w1s)
	}

	// Profile shapes at the same bandwidth as the square wave.
	b := sw.BOpt(eps)
	for pi, p := range []struct {
		label   string
		profile sw.Profile
	}{
		{"shape/cosine", sw.Cosine},
		{"shape/parabolic", sw.Parabolic},
	} {
		pw := sw.NewProfileWave(eps, b, p.profile)
		pch := pw.TransitionMatrix(d, d)
		var w1s []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			rng := base.Split(rowKey(92, pi, rep))
			counts := make([]float64, d)
			span := pw.OutHi() - pw.OutLo()
			for _, v := range ds.Values {
				vt := pw.Sample(clamp01(v), rng)
				j := int((vt - pw.OutLo()) / span * float64(d))
				if j < 0 {
					j = 0
				}
				if j >= d {
					j = d - 1
				}
				counts[j]++
			}
			res := em.Reconstruct(pch, counts, em.EMSOptions())
			w1s = append(w1s, metrics.Wasserstein(truth, res.Estimate))
		}
		addW1(p.label, w1s)
	}
	addW1("shape/square", runEst(core.SWEMS(), rowKey(92, 9)))

	// Hierarchy accounting (range MAE, width d/10).
	values := ds.DiscreteValuesAt(d)
	hh := hierarchy.NewHH(d, 4, eps)
	for mi, mode := range []string{"hier/population", "hier/budget"} {
		var maes []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			rng := base.Split(rowKey(93, mi, rep))
			var est *hierarchy.Estimate
			if mi == 0 {
				est = hh.Collect(values, rng)
			} else {
				est = hh.CollectBudgetSplit(values, rng)
			}
			maes = append(maes, hierarchy.RangeMAEEstimate(est.ConstrainedInference(), truth, d/10))
		}
		m, s := summarize(maes)
		rows = append(rows, Row{Figure: "ablations", Dataset: name, Method: mode,
			Metric: "range-MAE", Epsilon: eps, Mean: m, Std: s, Reps: cfg.Reps,
			Samples: cfg.keep(maes)})
	}
	return rows
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
