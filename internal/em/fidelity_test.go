package em

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/matrixx"
	"repro/internal/mechanism"
	"repro/internal/randx"
	"repro/internal/sw"
)

// The fidelity matrix: the optimized reconstruction — blocked kernels, fused
// E-step, reusable workspaces, parallel partitioning — must reproduce the
// pre-optimization serial EM loop over every channel shape the mechanisms
// produce and every benched granularity. On the dense channel and the
// flat+diagonal grr channel it must do so bit for bit. The linear-time
// plateau channels of sw and sw-discrete sum in a different order than the
// dense transition matrix they replace, so there the reference loop runs on
// that dense matrix and the contract is a tested bound: the same iteration
// count and convergence, estimates within 1e-12.

// naiveMulVec is the textbook one-accumulator dense product the original
// implementation ran.
func naiveMulVec(m *matrixx.Matrix, dst, x []float64) {
	for i := 0; i < m.Rows(); i++ {
		var acc float64
		for j, v := range m.Row(i) {
			acc += v * x[j]
		}
		dst[i] = acc
	}
}

// naiveMulVecT is the original transpose product: row scatter in increasing
// row order, skipping zero weights.
func naiveMulVecT(m *matrixx.Matrix, dst, x []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows(); i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range m.Row(i) {
			dst[j] += v * xi
		}
	}
}

// referenceReconstruct is the pre-optimization EM/EMS loop, verbatim: fresh
// buffers, the unfused two-pass E-step, and — for dense channels — naive
// single-chain products instead of the blocked kernels.
func referenceReconstruct(ch matrixx.Channel, counts []float64, opts Options) Result {
	if opts.MaxIters == 0 || opts.MinIters == 0 || opts.Tau == 0 || opts.SmoothWidth == 0 {
		panic("referenceReconstruct: pass fully-resolved options")
	}
	dt, d := ch.Rows(), ch.Cols()
	dense, isDense := ch.(*matrixx.Matrix)
	x := make([]float64, d)
	if opts.Init != nil {
		copy(x, opts.Init)
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			}
		}
		mathx.Normalize(x)
	} else {
		u := 1 / float64(d)
		for i := range x {
			x[i] = u
		}
	}
	denom := make([]float64, dt)
	ratio := make([]float64, dt)
	back := make([]float64, d)
	scratch := make([]float64, d)
	prevLL := math.Inf(-1)
	res := Result{}
	for iter := 1; iter <= opts.MaxIters; iter++ {
		res.Iterations = iter
		if isDense {
			naiveMulVec(dense, denom, x)
		} else {
			ch.MulVec(denom, x)
		}
		ll := 0.0
		for j := 0; j < dt; j++ {
			if counts[j] == 0 {
				ratio[j] = 0
				continue
			}
			dj := denom[j]
			if dj < 1e-300 {
				dj = 1e-300
			}
			ratio[j] = counts[j] / dj
			ll += counts[j] * math.Log(dj)
		}
		if isDense {
			naiveMulVecT(dense, back, ratio)
		} else {
			ch.MulVecT(back, ratio)
		}
		for i := 0; i < d; i++ {
			x[i] *= back[i]
		}
		mathx.Normalize(x)
		if opts.Smoothing {
			if opts.SmoothWidth == 3 {
				mathx.SmoothBinomial(scratch, x)
			} else {
				mathx.SmoothBinomialK(scratch, x, opts.SmoothWidth)
			}
			copy(x, scratch)
		}
		res.LogLikelihood = ll
		if iter >= opts.MinIters && math.Abs(ll-prevLL) < opts.Tau {
			res.Converged = true
			break
		}
		prevLL = ll
	}
	res.Estimate = x
	return res
}

// mechChannel builds the channel of one reporting mechanism at granularity d
// plus a plausible report histogram for it (zeros included, so the ll skip
// path runs).
func mechChannel(t *testing.T, name string, d int, seed uint64) (matrixx.Channel, []float64) {
	t.Helper()
	mech, err := mechanism.New(mechanism.Params{Name: name, Epsilon: 1.0, Buckets: d})
	if err != nil {
		t.Fatalf("mechanism %s/%d: %v", name, d, err)
	}
	ch := mech.Channel()
	if ch == nil {
		t.Fatalf("mechanism %s has no channel", name)
	}
	rng := randx.New(seed)
	counts := make([]float64, ch.Rows())
	for r := 0; r < 4*ch.Rows(); r++ {
		j := int(rng.Float64() * rng.Float64() * float64(ch.Rows()))
		if j >= ch.Rows() {
			j = ch.Rows() - 1
		}
		counts[j]++
	}
	return ch, counts
}

func resultsBitEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	resultsClose(t, label, got, want, 0)
}

// resultsClose checks identical iterations and convergence, and the
// log-likelihood (relative) and every estimate (absolute) within tol; tol 0
// demands identical bits.
func resultsClose(t *testing.T, label string, got, want Result, tol float64) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations %d/%v vs reference %d/%v",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	near := func(a, b, scale float64) bool {
		if tol == 0 {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return math.Abs(a-b) <= tol*scale
	}
	if !near(got.LogLikelihood, want.LogLikelihood, math.Abs(want.LogLikelihood)) {
		t.Fatalf("%s: log-likelihood %v vs reference %v", label, got.LogLikelihood, want.LogLikelihood)
	}
	if len(got.Estimate) != len(want.Estimate) {
		t.Fatalf("%s: estimate length %d vs %d", label, len(got.Estimate), len(want.Estimate))
	}
	for i := range want.Estimate {
		if !near(got.Estimate[i], want.Estimate[i], 1) {
			t.Fatalf("%s: estimate[%d] = %v vs reference %v (Δ=%g)",
				label, i, got.Estimate[i], want.Estimate[i], got.Estimate[i]-want.Estimate[i])
		}
	}
}

// fidelityReference returns the channel the reference loop runs on for a
// mechanism's channel, and the tolerance the optimized run is held to: the
// dense transition matrix (1e-12) for the sw family, the channel itself
// (bit for bit) otherwise. The "dense" row runs on the dense sw matrix.
func fidelityReference(name string, ch matrixx.Channel, denseSW *matrixx.Matrix) (matrixx.Channel, float64) {
	switch name {
	case "sw":
		return denseSW, 1e-12
	case "sw-discrete":
		return sw.NewDiscrete(ch.Cols(), 1.0).TransitionMatrix(), 1e-12
	case "dense":
		return denseSW, 0
	}
	return ch, 0
}

func TestReconstructFidelityMatrix(t *testing.T) {
	sizes := []int{256, 1024, 4096}
	if testing.Short() {
		sizes = []int{256, 1024}
	}
	opts := Options{MaxIters: 8, MinIters: 8, Smoothing: true}
	opts.fillDefaults()
	for _, d := range sizes {
		denseSW := sw.NewSquare(1.0).TransitionMatrix(d, d)
		for _, name := range []string{"sw", "sw-discrete", "grr", "dense"} {
			mech := name
			if name == "dense" {
				mech = "sw"
			}
			ch, counts := mechChannel(t, mech, d, uint64(d)*31+7)
			ref, tol := fidelityReference(name, ch, denseSW)
			if name == "dense" {
				ch = ref
			}
			want := referenceReconstruct(ref, counts, opts)

			label := name + "/" + itoa(d)
			resultsClose(t, label+" serial", Reconstruct(ch, counts, opts), want, tol)

			// A reused workspace must stay within the contract when warm,
			// and a warm start through it must match a warm start without.
			w := new(Workspace)
			resultsClose(t, label+" workspace cold", w.Reconstruct(ch, counts, opts), want, tol)
			resultsClose(t, label+" workspace warm", w.Reconstruct(ch, counts, opts), want, tol)
			wopts := opts
			wopts.Init = want.Estimate
			wantWarm := referenceReconstruct(ref, counts, wopts)
			resultsClose(t, label+" workspace warm-start", w.Reconstruct(ch, counts, wopts), wantWarm, tol)

			popts := opts
			popts.Workers = -1
			resultsClose(t, label+" parallel", Reconstruct(ch, counts, popts), want, tol)
		}
	}
}

func itoa(d int) string {
	if d == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for d > 0 {
		i--
		buf[i] = byte('0' + d%10)
		d /= 10
	}
	return string(buf[i:])
}

// TestWorkspaceReconstructZeroAlloc pins the allocation contract: once a
// workspace is warm for a channel's shape, a full reconstruction allocates
// nothing — on the dense channel and on the sw and sw-discrete plateaus.
func TestWorkspaceReconstructZeroAlloc(t *testing.T) {
	w, counts := swCounts(256, 1.0, 41)
	disc := sw.NewDiscrete(256, 1.0)
	dcounts := make([]float64, disc.Dt())
	for j := range dcounts {
		dcounts[j] = float64(j % 7)
	}
	opts := Options{MaxIters: 5, MinIters: 5, Smoothing: true}
	for _, tc := range []struct {
		name   string
		ch     matrixx.Channel
		counts []float64
	}{
		{"dense", w.TransitionMatrix(256, 256), counts},
		{"sw", w.Channel(256, 256), counts},
		{"sw-discrete", disc.Channel(), dcounts},
	} {
		ws := new(Workspace)
		ws.Reconstruct(tc.ch, tc.counts, opts) // warm the buffers
		allocs := testing.AllocsPerRun(10, func() {
			ws.Reconstruct(tc.ch, tc.counts, opts)
		})
		if allocs != 0 {
			t.Errorf("%s: warm Workspace.Reconstruct allocates %v objects/op, want 0", tc.name, allocs)
		}
	}
}
