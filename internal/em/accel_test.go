package em

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/mathx"
	"repro/internal/matrixx"
	"repro/internal/mechanism"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sw"
)

var fullContract = flag.Bool("fullcontract", false,
	"run TestWarmAccelerationContract on its full grid (B up to 1024, n up to 10⁶)")

// contractPoint is one grid point of the warm-acceleration contract: the
// stream's report histogram at n and at 0.98·n, and the true histogram of
// its first n values.
type contractPoint struct {
	label        string
	ch           matrixx.Channel
	counts, prev []float64
	truth        []float64
}

// contractOutcome is what the contract compares at one point: the W1 and KS
// of the textbook warm, textbook cold and accelerated warm estimates to the
// true histogram, the accelerated and textbook warm estimates' distances to
// the τ = 1e-9 fixed point, and both warm runs' F evaluations.
type contractOutcome struct {
	label                   string
	w1Warm, w1Cold, w1Acc   float64
	ksWarm, ksCold, ksAcc   float64
	fpW1Acc, fpW1Warm       float64
	fpKSAcc, fpKSWarm       float64
	itersWarm, itersAccWarm int
}

// contractPoints generates one sw stream per (ε, B, dataset) from the
// dataset's values in order and cuts it at 0.98·n and n for every n.
func contractPoints(t *testing.T, epsilons []float64, buckets, ns []int) []contractPoint {
	t.Helper()
	nMax := ns[len(ns)-1]
	var pts []contractPoint
	for di, name := range dataset.Names() {
		ds, err := dataset.ByName(name, nMax, uint64(101+di))
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range epsilons {
			wave := sw.NewSquare(eps)
			for _, b := range buckets {
				mech, err := mechanism.New(mechanism.Params{Name: mechanism.SW, Epsilon: eps, Buckets: b})
				if err != nil {
					t.Fatal(err)
				}
				rng := randx.New(uint64(1000*b) + uint64(eps*16) + uint64(di))
				counts := make([]float64, mech.OutputBuckets())
				truth := make([]float64, b)
				var prev []float64
				next := 0
				for i, v := range ds.Values {
					j, err := mech.BucketOf(wave.Sample(v, rng))
					if err != nil {
						t.Fatal(err)
					}
					counts[j]++
					truth[histogram.BucketOf(v, b)]++
					switch seen := i + 1; {
					case seen == ns[next]*98/100:
						prev = append([]float64(nil), counts...)
					case seen == ns[next]:
						tr := append([]float64(nil), truth...)
						mathx.Normalize(tr)
						pts = append(pts, contractPoint{
							label:  fmt.Sprintf("%s/eps=%g/B=%d/n=%d", name, eps, b, seen),
							ch:     mech.Channel(),
							counts: append([]float64(nil), counts...),
							prev:   prev,
							truth:  tr,
						})
						next++
					}
				}
			}
		}
	}
	return pts
}

// evaluate runs the four reconstructions of one contract point.
func (p contractPoint) evaluate() contractOutcome {
	ems := EMSOptions()
	warmStart := Reconstruct(p.ch, p.prev, ems).Estimate

	cold := Reconstruct(p.ch, p.counts, ems)
	wopts := ems
	wopts.Init = warmStart
	warm := Reconstruct(p.ch, p.counts, wopts)
	aopts := wopts
	aopts.AccelerateWarm = true
	acc := Reconstruct(p.ch, p.counts, aopts)

	fopts := ems
	fopts.Tau, fopts.Init = 1e-9, warm.Estimate
	fp := Reconstruct(p.ch, p.counts, fopts).Estimate

	return contractOutcome{
		label:  p.label,
		w1Warm: metrics.Wasserstein(p.truth, warm.Estimate), w1Cold: metrics.Wasserstein(p.truth, cold.Estimate),
		w1Acc:  metrics.Wasserstein(p.truth, acc.Estimate),
		ksWarm: metrics.KS(p.truth, warm.Estimate), ksCold: metrics.KS(p.truth, cold.Estimate),
		ksAcc:   metrics.KS(p.truth, acc.Estimate),
		fpW1Acc: metrics.Wasserstein(fp, acc.Estimate), fpW1Warm: metrics.Wasserstein(fp, warm.Estimate),
		fpKSAcc: metrics.KS(fp, acc.Estimate), fpKSWarm: metrics.KS(fp, warm.Estimate),
		itersWarm: warm.Iterations, itersAccWarm: acc.Iterations,
	}
}

func relDiff(got, ref float64) float64 { return (got - ref) / ref }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// TestWarmAccelerationContract is the fidelity contract of
// Options.AccelerateWarm. Each grid point is an sw stream over one of the
// four datasets at (ε, B, n), warm-started from the textbook EMS estimate of
// the same stream at 0.98·n, as a serving refresh is. Over the grid:
//
//	(a) at every point the accelerated estimate's W1 and KS to the true
//	    histogram differ from the textbook warm estimate's, relatively, by
//	    no more than the largest relative difference between the textbook's
//	    own warm and cold estimates anywhere on the grid;
//	(b) the median over the grid of accelerated ÷ textbook distance (W1
//	    and KS) to the τ = 1e-9 EMS fixed point is at most 1;
//	(c) the accelerated runs take at least 1.3× fewer F evaluations in
//	    total than the textbook runs take iterations.
//
// The default grid is B = 256 and n ≤ 10⁵; -fullcontract adds B = 1024 and
// n = 10⁶ (about a minute and a half on two cores, so it is not meant to
// run under -race).
func TestWarmAccelerationContract(t *testing.T) {
	epsilons := []float64{0.5, 1, 2, 4}
	buckets, ns := []int{256}, []int{1e4, 1e5}
	switch {
	case *fullContract:
		buckets, ns = []int{256, 1024}, []int{1e4, 1e5, 1e6}
	case testing.Short():
		ns = []int{1e4}
	}
	pts := contractPoints(t, epsilons, buckets, ns)
	out := make([]contractOutcome, len(pts))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range pts {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			out[i] = p.evaluate()
			<-sem
		}()
	}
	wg.Wait()

	var spreadW1, spreadKS float64
	var fpW1, fpKS []float64
	var itersWarm, itersAcc int
	for _, o := range out {
		spreadW1 = math.Max(spreadW1, math.Abs(relDiff(o.w1Warm, o.w1Cold)))
		spreadKS = math.Max(spreadKS, math.Abs(relDiff(o.ksWarm, o.ksCold)))
		fpW1 = append(fpW1, o.fpW1Acc/o.fpW1Warm)
		fpKS = append(fpKS, o.fpKSAcc/o.fpKSWarm)
		itersWarm += o.itersWarm
		itersAcc += o.itersAccWarm
	}
	var worstW1, worstKS float64
	for _, o := range out {
		dW1, dKS := relDiff(o.w1Acc, o.w1Warm), relDiff(o.ksAcc, o.ksWarm)
		worstW1 = math.Max(worstW1, math.Abs(dW1))
		worstKS = math.Max(worstKS, math.Abs(dKS))
		if math.Abs(dW1) > spreadW1 || math.Abs(dKS) > spreadKS {
			t.Errorf("(a) %s: accelerated vs textbook warm W1 %+.2f%%, KS %+.2f%% exceeds the warm-vs-cold spread ±%.2f%% / ±%.2f%%",
				o.label, 100*dW1, 100*dKS, 100*spreadW1, 100*spreadKS)
		}
	}
	medW1, medKS := median(fpW1), median(fpKS)
	if medW1 > 1 || medKS > 1 {
		t.Errorf("(b) median accelerated ÷ textbook distance to the τ=1e-9 fixed point: W1 %.3f, KS %.3f (want ≤ 1)", medW1, medKS)
	}
	speedup := float64(itersWarm) / float64(itersAcc)
	if speedup < 1.3 {
		t.Errorf("(c) textbook warm iterations %d ÷ accelerated F evaluations %d = %.2f (want ≥ 1.3)", itersWarm, itersAcc, speedup)
	}
	t.Logf("%d points: |Δ| vs textbook warm W1 ≤ %.2f%%, KS ≤ %.2f%% (warm-vs-cold spread %.2f%% / %.2f%%); "+
		"median fixed-point distance ratio W1 %.3f, KS %.3f; evaluations %d → %d (%.2f×)",
		len(out), 100*worstW1, 100*worstKS, 100*spreadW1, 100*spreadKS, medW1, medKS, itersWarm, itersAcc, speedup)
}

// TestAccelerateWarmColdIsTextbook pins the warm-only rule: with Init unset
// the field changes nothing, bit for bit, on every channel shape.
func TestAccelerateWarmColdIsTextbook(t *testing.T) {
	for _, name := range []string{"sw", "sw-discrete", "grr"} {
		ch, counts := mechChannel(t, name, 256, 17)
		opts := EMSOptions()
		want := Reconstruct(ch, counts, opts)
		opts.AccelerateWarm = true
		resultsBitEqual(t, name+" cold", Reconstruct(ch, counts, opts), want)
		resultsBitEqual(t, name+" cold workspace", new(Workspace).Reconstruct(ch, counts, opts), want)
	}
}

// TestAccelerateWarmOnIteration pins OnIteration on the accelerated path:
// it is invoked once per F evaluation, numbered 1..Iterations, with a
// distribution; and the τ test never fires before MinIters.
func TestAccelerateWarmOnIteration(t *testing.T) {
	ch, counts := mechChannel(t, "sw", 256, 23)
	opts := EMSOptions()
	init := Reconstruct(ch, counts, opts).Estimate
	for j := range counts {
		counts[j] += float64(j % 3)
	}
	opts.Init, opts.AccelerateWarm, opts.MinIters = init, true, 7
	var calls []int
	opts.OnIteration = func(iter int, est []float64, _ float64) {
		calls = append(calls, iter)
		if !mathx.IsDistribution(est, 1e-9) {
			t.Fatalf("evaluation %d: estimate is not a distribution", iter)
		}
	}
	res := Reconstruct(ch, counts, opts)
	if len(calls) != res.Iterations {
		t.Fatalf("OnIteration ran %d times for %d F evaluations", len(calls), res.Iterations)
	}
	for i, it := range calls {
		if it != i+1 {
			t.Fatalf("call %d reported evaluation %d", i+1, it)
		}
	}
	if !res.Converged || res.Iterations < opts.MinIters {
		t.Fatalf("converged=%v after %d evaluations (MinIters %d)", res.Converged, res.Iterations, opts.MinIters)
	}
	if !mathx.IsDistribution(res.Estimate, 1e-9) || res.LastDelta >= opts.Tau {
		t.Fatalf("final estimate: distribution=%v, LastDelta %v (τ %v)",
			mathx.IsDistribution(res.Estimate, 1e-9), res.LastDelta, opts.Tau)
	}

	opts.OnIteration, opts.MaxIters, opts.Tau = nil, 5, 1e-300
	if capped := Reconstruct(ch, counts, opts); capped.Iterations != 5 || capped.Converged {
		t.Fatalf("MaxIters 5: %d evaluations, converged=%v", capped.Iterations, capped.Converged)
	}
}

// TestAccelerateWarmDegenerateStepIsPlain pins the extrapolation guard: on
// the identity channel plain EM lands on its fixed point in one step, so
// every cycle's α is −1 or 0/0 and each stabilizing step is a plain one —
// the accelerated run is the textbook run, bit for bit.
func TestAccelerateWarmDegenerateStepIsPlain(t *testing.T) {
	m := identity(4)
	counts := []float64{10, 20, 30, 40}
	opts := Options{Init: []float64{0.4, 0.3, 0.2, 0.1}}
	want := Reconstruct(m, counts, opts)
	opts.AccelerateWarm = true
	resultsBitEqual(t, "identity warm", Reconstruct(m, counts, opts), want)
}
