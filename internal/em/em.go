// Package em implements the aggregator-side reconstruction of Section 5.5:
// maximum-likelihood estimation of the input distribution from aggregated
// Square Wave reports via Expectation–Maximization (Algorithm 1), and the
// paper's Expectation–Maximization with Smoothing (EMS) variant that
// interleaves a binomial smoothing step after each M step.
//
// The reconstruction consumes the channel's column-stochastic transition
// matrix M (M[j][i] = Pr[output bucket j | input bucket i]) and the vector of
// aggregated report counts n_j, and maximizes the log-likelihood
//
//	L(x) = Σ_j n_j · ln(Σ_i M[j][i]·x_i)
//
// over the probability simplex. L is concave (Theorem 5.6), so plain EM
// converges to the MLE; EMS trades a little likelihood for a smoothness
// prior, which the paper shows is what actually tracks the true distribution
// under LDP noise levels.
//
// Every run takes the paper's loop except a warm start with
// Options.AccelerateWarm, which the collector's refresh engine uses: SQUAREM
// cycles over the EMS map, held to TestWarmAccelerationContract.
package em

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/matrixx"
)

// Options configures a reconstruction run.
type Options struct {
	// MaxIters caps the number of EM iterations. Defaults to 10000.
	MaxIters int
	// Tau is the stopping threshold on the absolute improvement of the
	// count-weighted log-likelihood between consecutive iterations.
	// The paper uses τ = 1e-3·e^ε for EM and τ = 1e-3 for EMS.
	Tau float64
	// MinIters forces at least this many iterations before the stopping
	// rule may fire (smoothing can make the first steps nearly flat).
	// Defaults to 10. Only evaluations from min(MinIters, MaxIters) − 2 on
	// compute their log-likelihood (the τ test of an AccelerateWarm run can
	// read two evaluations back); nothing can read the earlier ones, which
	// skip their logarithms.
	MinIters int
	// Smoothing enables the EMS S-step: binomial (1,2,1)/4 averaging of
	// the estimate after each M step.
	Smoothing bool
	// SmoothWidth is the binomial kernel width of the S-step (odd, >= 1).
	// Defaults to 3, the paper's (1,2,1) kernel; 5 gives stronger
	// smoothing (see the smoothing-kernel ablation benchmark).
	SmoothWidth int
	// Init optionally sets the starting estimate (copied, then projected
	// to the simplex). Defaults to uniform. A warm start from a previous
	// reconstruction typically converges in a fraction of the iterations.
	Init []float64
	// OnIteration, when set, is invoked after every iteration with the
	// iteration number, the current estimate (a live view — copy it if
	// retained) and the current log-likelihood. Used for diagnostics such
	// as tracking estimation error against likelihood (the paper's EM
	// overfitting observation, Section 5.5). On the AccelerateWarm path it
	// is invoked once per EMS map evaluation, with that evaluation's output
	// and the log-likelihood of its input. Setting it makes every
	// evaluation compute its log-likelihood (see MinIters); the Result is
	// the same either way.
	OnIteration func(iter int, estimate []float64, ll float64)
	// AccelerateWarm runs a warm-started reconstruction (Init set) as
	// SQUAREM-S3 cycles (Varadhan & Roland, Scand. J. Statist. 35, 2008)
	// over the EMS map F = S∘M∘E: two F steps x₁ = F(x₀), x₂ = F(x₁), the
	// step length α = −‖r‖/‖v‖ (r = x₁−x₀, v = x₂−2x₁+x₀) clamped to ≤ −1,
	// the extrapolated point x₀ − 2αr + α²v clipped to the simplex and
	// renormalized, and one stabilizing F step from it — replaced by the
	// plain step x₂ whenever the extrapolated point's fixed-point residual
	// ‖F(x′)−x′‖ exceeds x₁'s, ‖x₂−x₁‖. The stopping rule is the
	// textbook τ test, applied only across plain F steps and only after
	// MinIters evaluations; MaxIters caps evaluations and
	// Result.Iterations counts them. Cold runs (Init nil) ignore the field
	// and take the textbook loop bit for bit: from a uniform start the
	// extrapolated estimate lands much farther from the EMS fixed point
	// than the textbook one at the same τ, while from a warm start it
	// lands as close in about half the evaluations. The clip to the
	// simplex can zero buckets, which plain EM (no Smoothing) never leaves
	// again, so the field is meant for EMS.
	AccelerateWarm bool
	// Workers is ignored: every reconstruction runs its products serially.
	//
	// Deprecated: it sized a dense-channel worker pool that no longer
	// exists, and remains only so existing callers compile.
	Workers int
}

// Workspace holds every buffer a reconstruction needs — the estimate, ratio,
// log-likelihood, back-projection and smoothing vectors — so a warm
// (*Workspace).Reconstruct allocates nothing. The zero value is ready to
// use; buffers grow to the largest channel seen and are reused across calls.
// A Workspace is NOT safe for concurrent use: concurrent reconstructions
// need one workspace each (the package-level Reconstruct, which uses a
// private workspace per call, stays safe for concurrent use).
type Workspace struct {
	x, ratio, llv, back, scratch []float64
	// x0 and x1 hold a SQUAREM cycle's first two iterates, then the
	// extrapolated point and its F image (Options.AccelerateWarm only).
	x0, x1 []float64
}

// grow reslices buf to n, reallocating only when the capacity is exceeded.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// OracleBuffers returns two reusable length-n buffers for the matrix-free
// reconstruction path: the estimate target and a scratch (for the simplex
// projection's sort). They alias workspace state the EM path does not use
// concurrently and are valid until the next use of the workspace.
func (w *Workspace) OracleBuffers(n int) (est, scratch []float64) {
	w.x = grow(w.x, n)
	w.scratch = grow(w.scratch, n)
	return w.x, w.scratch
}

// EMOptions returns the paper's EM configuration: τ = 1e-3·e^ε, which scales
// the stopping rule with the noise level (Section 6.1).
func EMOptions(eps float64) Options {
	return Options{Tau: 1e-3 * math.Exp(eps)}
}

// EMSOptions returns the paper's EMS configuration: τ = 1e-3 with smoothing
// enabled; no per-ε tuning is required (that robustness is the point of EMS).
func EMSOptions() Options {
	return Options{Tau: 1e-3, Smoothing: true}
}

// Result reports the outcome of a reconstruction.
type Result struct {
	// Estimate is the reconstructed input distribution over d buckets.
	Estimate []float64
	// Iterations is the number of EM iterations performed — on the
	// AccelerateWarm path, the number of EMS map evaluations.
	Iterations int
	// LogLikelihood is the final count-weighted log-likelihood L(x̂).
	LogLikelihood float64
	// LastDelta is the absolute log-likelihood improvement of the final
	// iteration — the quantity the stopping rule compares against Tau. It
	// stays 0 for runs of a single iteration, where no previous likelihood
	// exists to difference against.
	LastDelta float64
	// Converged reports whether the stopping rule fired before MaxIters.
	Converged bool
}

func (o *Options) fillDefaults() {
	if o.MaxIters <= 0 {
		o.MaxIters = 10000
	}
	if o.MinIters <= 0 {
		o.MinIters = 10
	}
	if o.Tau <= 0 {
		o.Tau = 1e-3
	}
	if o.SmoothWidth <= 0 {
		o.SmoothWidth = 3
	}
	if o.SmoothWidth%2 == 0 {
		panic("em: SmoothWidth must be odd")
	}
}

// Reconstruct runs EM (or EMS) on the aggregated counts. m is the dt×d
// transition channel of the reporting mechanism (a dense *matrixx.Matrix, a
// Square Wave *matrixx.Plateau, or any other matrixx.Channel) and counts the
// length-dt vector of observed report counts. It panics on dimension mismatches or negative counts. The
// returned estimate is freshly allocated; hot paths that reconstruct
// repeatedly should hold a Workspace and call its Reconstruct method
// instead.
func Reconstruct(m matrixx.Channel, counts []float64, opts Options) Result {
	return new(Workspace).Reconstruct(m, counts, opts)
}

// Reconstruct runs EM (or EMS) exactly as the package-level Reconstruct —
// same results, bit for bit — but out of the workspace's reusable buffers:
// once the workspace is warm for the channel's shape, a reconstruction
// allocates nothing. Result.Estimate aliases workspace memory and is only
// valid until the next use of the workspace; callers that retain it must
// copy it out.
func (w *Workspace) Reconstruct(m matrixx.Channel, counts []float64, opts Options) Result {
	opts.fillDefaults()
	dt, d := m.Rows(), m.Cols()
	if len(counts) != dt {
		panic(fmt.Sprintf("em: counts length %d does not match matrix rows %d", len(counts), dt))
	}
	for _, c := range counts {
		if c < 0 || math.IsNaN(c) {
			panic("em: counts must be non-negative")
		}
	}

	w.x = grow(w.x, d)
	x := w.x
	if opts.Init != nil {
		if len(opts.Init) != d {
			panic(fmt.Sprintf("em: init length %d does not match matrix cols %d", len(opts.Init), d))
		}
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

	w.ratio = grow(w.ratio, dt) // n_j / (M·x)_j
	w.llv = grow(w.llv, dt)     // per-row log-likelihood terms
	w.back = grow(w.back, d)    // Mᵀ·ratio
	w.scratch = grow(w.scratch, d)

	if opts.AccelerateWarm && opts.Init != nil {
		return w.squarem(m, counts, &opts)
	}
	// The paper's loop: plain steps until the τ test fires or MaxIters.
	res := Result{Estimate: x}
	prevLL := math.Inf(-1)
	for !w.plainStep(m, counts, x, &opts, &res, &prevLL) {
	}
	return res
}

// step applies one evaluation of the EMS map, x ← F(x) = S(M(E(x))), in
// place out of the workspace buffers, counts it in res.Iterations, reports
// it to OnIteration and returns the count-weighted log-likelihood of the
// input point: 0 for an evaluation nothing can read it from (see
// Options.MinIters), which skips its logarithms.
func (w *Workspace) step(m matrixx.Channel, counts, x []float64, opts *Options, res *Result) float64 {
	ratio, llv, back, scratch := w.ratio, w.llv, w.back, w.scratch
	res.Iterations++
	if opts.OnIteration == nil && res.Iterations < min(opts.MinIters, opts.MaxIters)-2 {
		llv = nil
	}

	// E step: denom_j = Σ_i M[j][i]·x_i, then the expected count
	// attribution P_i = x_i · Σ_j n_j·M[j][i]/denom_j. matrixx.EStep
	// computes ratio_j = n_j/denom_j and, with llv set, the
	// log-likelihood.
	ll := matrixx.EStep(m, ratio, llv, x, counts)
	m.MulVecT(back, ratio)

	// M step: x_i ← P_i / Σ P (the Σ_j n_j factor cancels in the
	// normalization).
	for i := range x {
		x[i] *= back[i]
	}
	mathx.Normalize(x)

	// S step (EMS only).
	if opts.Smoothing {
		if opts.SmoothWidth == 3 {
			mathx.SmoothBinomial(scratch, x)
		} else {
			mathx.SmoothBinomialK(scratch, x, opts.SmoothWidth)
		}
		copy(x, scratch)
	}
	if opts.OnIteration != nil {
		opts.OnIteration(res.Iterations, x, ll)
	}
	return ll
}

// squarem runs Reconstruct's accelerated warm path (Options.AccelerateWarm)
// from the warm start in w.x: SQUAREM-S3 cycles of two plain F steps, an
// extrapolation, and one stabilizing F step.
func (w *Workspace) squarem(m matrixx.Channel, counts []float64, opts *Options) Result {
	d := len(w.x)
	w.x0, w.x1 = grow(w.x0, d), grow(w.x1, d)
	x, x0, x1 := w.x, w.x0, w.x1
	var res Result
	// prevLL is the log-likelihood of the point x is the plain F image of
	// (−Inf while x is the warm start itself), so the τ test only ever
	// spans a plain step.
	prevLL := math.Inf(-1)
	for {
		copy(x0, x)
		if w.plainStep(m, counts, x, opts, &res, &prevLL) { // x = x₁
			break
		}
		copy(x1, x)
		if w.plainStep(m, counts, x, opts, &res, &prevLL) { // x = x₂
			break
		}

		// S3 step length from r = x₁−x₀ and v = x₂−2x₁+x₀; q = x₂−x₁
		// is the fixed-point residual at x₁.
		var rr, vv, qq float64
		for i := range x {
			r, q := x1[i]-x0[i], x[i]-x1[i]
			v := q - r
			rr += r * r
			vv += v * v
			qq += q * q
		}
		// x′ = x₀ − 2αr + α²v, clipped to the simplex, goes to x0; its F
		// image goes to x1 (x still holds x₂ for the fallback).
		alpha := -math.Sqrt(rr / vv)
		extrapolated := false
		if alpha < -1 {
			for i := range x {
				r := x1[i] - x0[i]
				v := x[i] - x1[i] - r
				xe := x0[i] - 2*alpha*r + alpha*alpha*v
				if !(xe > 0) {
					xe = 0
				}
				x0[i] = xe
			}
			sum := mathx.Normalize(x0)
			extrapolated = sum > 0 && !math.IsInf(sum, 1)
		}
		if !extrapolated {
			// α clamped to −1 extrapolates to x₂ itself, and one that
			// overflows is no better: the stabilizing step is one more
			// plain step.
			if w.plainStep(m, counts, x, opts, &res, &prevLL) {
				break
			}
			continue
		}
		copy(x1, x0)
		ll := w.step(m, counts, x1, opts, &res)
		var ee float64
		for i := range x1 {
			e := x1[i] - x0[i]
			ee += e * e
		}
		if ee <= qq {
			copy(x, x1)
			prevLL = ll
			res.LogLikelihood = ll
		}
		if res.Iterations >= opts.MaxIters {
			break
		}
	}
	res.Estimate = x
	return res
}

// plainStep is one plain EM/EMS iteration x ← F(x) with the paper's
// bookkeeping: it applies the τ test between *prevLL and the input point's
// log-likelihood, and advances *prevLL. It reports whether the run stops
// here, converged or out of iterations.
func (w *Workspace) plainStep(m matrixx.Channel, counts, x []float64, opts *Options, res *Result, prevLL *float64) bool {
	ll := w.step(m, counts, x, opts, res)
	res.LogLikelihood = ll
	delta := math.Abs(ll - *prevLL)
	if !math.IsInf(*prevLL, -1) {
		res.LastDelta = delta
	}
	*prevLL = ll
	if res.Iterations >= opts.MinIters && delta < opts.Tau {
		res.Converged = true
	}
	return res.Converged || res.Iterations >= opts.MaxIters
}

// LogLikelihood evaluates L(x) = Σ_j n_j·ln((M·x)_j) for an arbitrary
// candidate distribution x; used by tests and diagnostics.
func LogLikelihood(m matrixx.Channel, counts, x []float64) float64 {
	dt := m.Rows()
	if len(counts) != dt || len(x) != m.Cols() {
		panic("em: LogLikelihood dimension mismatch")
	}
	return matrixx.EStep(m, make([]float64, dt), make([]float64, dt), x, counts)
}
