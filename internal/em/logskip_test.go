package em

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/matrixx"
	"repro/internal/mechanism"
	"repro/internal/randx"
	"repro/internal/sw"
)

// An evaluation before min(MinIters, MaxIters) − 2 skips its log-likelihood
// unless OnIteration is set (Options.MinIters). These tests pin that the
// skip changes no bit of any Result.

// skipChannel is one channel of the skip grid with a histogram of n reports
// on it and the histogram of its first 0.9·n, which warm starts come from.
type skipChannel struct {
	name          string
	eps           float64
	ch            matrixx.Channel
	counts, early []float64
}

// skipChannels returns the grid's channels: sw plateaus at ε × B × d̃, the
// dense transition matrix up to B = 64, and grr's flat+diagonal channel.
func skipChannels(t *testing.T) []skipChannel {
	t.Helper()
	var chans []skipChannel
	for _, eps := range []float64{0.5, 1, 2, 4} {
		wave := sw.NewSquare(eps)
		for _, d := range []int{16, 64, 256, 1024} {
			for _, dt := range []int{d, d/2 + 1, 2 * d} {
				span := wave.OutHi() - wave.OutLo()
				counts, early := skipCounts(dt, uint64(1000*d+dt)+uint64(eps*8), func(v float64, rng *randx.Rand) int {
					return min(int((wave.Sample(v, rng)-wave.OutLo())/span*float64(dt)), dt-1)
				})
				label := fmt.Sprintf("eps=%g/d=%d/dt=%d", eps, d, dt)
				chans = append(chans, skipChannel{"sw/" + label, eps, wave.Channel(d, dt), counts, early})
				if d <= 64 {
					chans = append(chans, skipChannel{"dense/" + label, eps, wave.TransitionMatrix(d, dt), counts, early})
				}
			}
			grr, err := mechanism.New(mechanism.Params{Name: mechanism.GRR, Epsilon: eps, Buckets: d})
			if err != nil {
				t.Fatal(err)
			}
			counts, early := skipCounts(d, uint64(7000*d)+uint64(eps*8), func(v float64, rng *randx.Rand) int {
				j, err := grr.BucketOf(grr.Perturb(v, rng)[0])
				if err != nil {
					t.Fatal(err)
				}
				return j
			})
			chans = append(chans, skipChannel{fmt.Sprintf("grr/eps=%g/d=%d", eps, d), eps, grr.Channel(), counts, early})
		}
	}
	return chans
}

// skipCounts draws 8·rows Beta(5,2) values through report and returns the
// histogram of all of them and that of the first 90%.
func skipCounts(rows int, seed uint64, report func(v float64, rng *randx.Rand) int) (counts, early []float64) {
	rng := randx.New(seed)
	n := 8 * rows
	counts = make([]float64, rows)
	for r := 0; r < n; r++ {
		if r == n*9/10 {
			early = append([]float64(nil), counts...)
		}
		counts[report(rng.Beta(5, 2), rng)]++
	}
	return counts, early
}

// skipOption is one option set of the skip grid.
type skipOption struct {
	name string
	opts Options
}

// skipOptions are the grid's option sets: the paper's two, MinIters on
// either side of MaxIters, runs too short for the τ test, and the wider
// smoothing kernel.
func skipOptions(eps float64) []skipOption {
	ems := func(f func(*Options)) Options {
		o := EMSOptions()
		f(&o)
		return o
	}
	return []skipOption{
		{"ems", EMSOptions()},
		{"em", EMOptions(eps)},
		{"min3max50", ems(func(o *Options) { o.MinIters, o.MaxIters = 3, 50 })},
		{"min20max5", ems(func(o *Options) { o.MinIters, o.MaxIters = 20, 5 })},
		{"max1", ems(func(o *Options) { o.MaxIters = 1 })},
		{"max2", ems(func(o *Options) { o.MaxIters = 2 })},
		{"max3", ems(func(o *Options) { o.MaxIters = 3 })},
		{"smoothwidth5", ems(func(o *Options) { o.SmoothWidth = 5 })},
	}
}

// sameResult reports whether two Results are identical bit for bit.
func sameResult(a, b Result) bool {
	if a.Iterations != b.Iterations || a.Converged != b.Converged ||
		math.Float64bits(a.LogLikelihood) != math.Float64bits(b.LogLikelihood) ||
		math.Float64bits(a.LastDelta) != math.Float64bits(b.LastDelta) ||
		len(a.Estimate) != len(b.Estimate) {
		return false
	}
	for i, v := range a.Estimate {
		if math.Float64bits(v) != math.Float64bits(b.Estimate[i]) {
			return false
		}
	}
	return true
}

// TestSkippedLogLikelihoodsChangeNothing runs every channel × option set ×
// start of the grid with and without a no-op OnIteration, which makes every
// evaluation compute its log-likelihood, and demands identical Results. It
// also demands that the grid holds runs whose τ test fired at evaluation
// MinIters against the log-likelihood of evaluation MinIters − 2, because
// the stabilizing step in between was rejected: under a rule that started
// computing log-likelihoods one evaluation later, those runs would not stop
// there.
func TestSkippedLogLikelihoodsChangeNothing(t *testing.T) {
	var runs, twoBack atomic.Int64
	t.Run("grid", func(t *testing.T) {
		for _, sc := range skipChannels(t) {
			t.Run(sc.name, func(t *testing.T) {
				t.Parallel()
				warm := Reconstruct(sc.ch, sc.early, EMSOptions()).Estimate
				for _, so := range skipOptions(sc.eps) {
					for _, start := range []string{"cold", "warm", "accelerated"} {
						o := so.opts
						if start != "cold" {
							o.Init = warm
						}
						o.AccelerateWarm = start == "accelerated"
						got := Reconstruct(sc.ch, sc.counts, o)
						o.OnIteration = func(int, []float64, float64) {}
						want := Reconstruct(sc.ch, sc.counts, o)
						runs.Add(1)
						label := so.name + "/" + start
						if !sameResult(got, want) {
							t.Errorf("%s: skipping log-likelihoods changed the result: %+v vs %+v (estimates aside)",
								label, brief(got), brief(want))
						}
						if o.AccelerateWarm && got.Converged && got.Iterations == minItersOf(o) && readsTwoBack(sc, o) {
							twoBack.Add(1)
							t.Logf("%s: converged at evaluation %d against evaluation %d", label, got.Iterations, got.Iterations-2)
						}
					}
				}
			})
		}
	})
	if twoBack.Load() == 0 {
		t.Errorf("none of %d runs converged at MinIters against the evaluation two back", runs.Load())
	}
	t.Logf("%d runs, %d converged at MinIters against the evaluation two back", runs.Load(), twoBack.Load())
}

// minItersOf returns the MinIters a run of o uses.
func minItersOf(o Options) int {
	o.fillDefaults()
	return o.MinIters
}

// readsTwoBack reports whether, in the accelerated run of o on sc, the
// input of evaluation MinIters is the output of evaluation MinIters − 2 and
// not that of the stabilizing evaluation between them: that step was
// rejected, so the τ test at MinIters read the log-likelihood of evaluation
// MinIters − 2.
func readsTwoBack(sc skipChannel, o Options) bool {
	k := minItersOf(o)
	outs := map[int][]float64{}
	var llK float64
	o.OnIteration = func(iter int, est []float64, ll float64) {
		switch iter {
		case k - 2, k - 1:
			outs[iter] = append([]float64(nil), est...)
		case k:
			llK = ll
		}
	}
	Reconstruct(sc.ch, sc.counts, o)
	before, stab := outs[k-2], outs[k-1]
	if before == nil || stab == nil {
		return false
	}
	same := true
	for i := range before {
		same = same && math.Float64bits(before[i]) == math.Float64bits(stab[i])
	}
	return !same && math.Float64bits(LogLikelihood(sc.ch, sc.counts, before)) == math.Float64bits(llK)
}

// brief is a Result without its estimate, for failure messages.
func brief(r Result) Result {
	r.Estimate = nil
	return r
}
