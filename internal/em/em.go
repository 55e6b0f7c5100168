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
	// Defaults to 10.
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
	// overfitting observation, Section 5.5).
	OnIteration func(iter int, estimate []float64, ll float64)
	// Workers partitions the E-step matrix–vector products of a dense
	// channel (*matrixx.Matrix) across the shared worker pool: 0 or 1 run
	// serially, n > 1 uses n partitions, negative selects
	// runtime.NumCPU(). Dense channels under the measured fan-out
	// threshold run serially regardless (see matrixx.Parallelize), and a
	// partitioned product accumulates every output element in the serial
	// order, so parallel reconstructions are bit-identical to serial ones.
	// Linear-time channels — the Square Wave's matrixx.Plateau, grr's
	// flat+diagonal channel — always run serially.
	Workers int
}

// Workspace holds every buffer a reconstruction needs — the estimate,
// denominator, ratio, log-likelihood, back-projection and smoothing vectors,
// plus the cached parallel channel wrapper — so a warm (*Workspace).Reconstruct
// allocates nothing. The zero value is ready to use; buffers grow to the
// largest channel seen and are reused across calls. A Workspace is NOT safe
// for concurrent use: concurrent reconstructions need one workspace each
// (the package-level Reconstruct, which uses a private workspace per call,
// stays safe for concurrent use).
type Workspace struct {
	x, denom, ratio, llv, back, scratch []float64

	// Cached matrixx.Parallelize result, keyed on (channel, workers), so
	// the warm path does not re-wrap — and therefore does not allocate —
	// on every call.
	par        matrixx.Channel
	parInner   matrixx.Channel
	parWorkers int
}

// grow reslices buf to n, reallocating only when the capacity is exceeded.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// channel resolves the (possibly parallelized) channel for this run through
// the workspace cache.
func (w *Workspace) channel(m matrixx.Channel, workers int) matrixx.Channel {
	if workers == 0 || workers == 1 {
		return m
	}
	if w.parInner != m || w.parWorkers != workers {
		w.par = matrixx.Parallelize(m, workers)
		w.parInner, w.parWorkers = m, workers
	}
	return w.par
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
	// Iterations is the number of EM iterations performed.
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
	m = w.channel(m, opts.Workers)
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

	w.denom = grow(w.denom, dt) // (M·x)_j (unfused channels only)
	w.ratio = grow(w.ratio, dt) // n_j / (M·x)_j
	w.llv = grow(w.llv, dt)     // per-row log-likelihood terms (fused path)
	w.back = grow(w.back, d)    // Mᵀ·ratio
	w.scratch = grow(w.scratch, d)
	denom, ratio, llv, back, scratch := w.denom, w.ratio, w.llv, w.back, w.scratch

	// The matrixx channels (and the parallel wrapper) fuse the E-step into
	// the forward product: one sweep computes denom, ratio and the per-row
	// log-likelihood terms. Other channels run the unfused two-pass form;
	// both produce identical bits (see matrixx.RatioChannel).
	fused, hasFused := m.(matrixx.RatioChannel)

	prevLL := math.Inf(-1)
	res := Result{}
	for iter := 1; iter <= opts.MaxIters; iter++ {
		res.Iterations = iter

		// E step: denom_j = Σ_i M[j][i]·x_i, then the expected count
		// attribution P_i = x_i · Σ_j n_j·M[j][i]/denom_j.
		ll := 0.0
		if hasFused {
			fused.MulVecRatio(ratio, llv, x, counts)
			// Serial fold in increasing row order: bit-identical to the
			// unfused accumulation (the zero terms change nothing).
			for _, t := range llv {
				ll += t
			}
		} else {
			m.MulVec(denom, x)
			for j := 0; j < dt; j++ {
				if counts[j] == 0 {
					ratio[j] = 0
					continue
				}
				dj := denom[j]
				if dj < matrixx.DenomFloor {
					dj = matrixx.DenomFloor
				}
				ratio[j] = counts[j] / dj
				ll += counts[j] * math.Log(dj)
			}
		}
		m.MulVecT(back, ratio)

		// M step: x_i ← P_i / Σ P (the Σ_j n_j factor cancels in the
		// normalization).
		for i := 0; i < d; i++ {
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

		res.LogLikelihood = ll
		if opts.OnIteration != nil {
			opts.OnIteration(iter, x, ll)
		}
		if iter > 1 {
			res.LastDelta = math.Abs(ll - prevLL)
		}
		if iter >= opts.MinIters && math.Abs(ll-prevLL) < opts.Tau {
			res.Converged = true
			break
		}
		prevLL = ll
	}
	res.Estimate = x
	return res
}

// Residuals compares the observed report histogram against the one the
// fitted estimate implies (n·M·x̂), returning the per-bucket Pearson
// residuals (obs − fit)/√fit and the total χ² statistic. Large structured
// residuals indicate the channel matrix does not match the mechanism that
// produced the reports (wrong ε, wrong bandwidth, corrupted aggregation) —
// the aggregator-side sanity check a deployment should run after every
// reconstruction.
func Residuals(m matrixx.Channel, counts, estimate []float64) (residuals []float64, chi2 float64) {
	dt := m.Rows()
	if len(counts) != dt || len(estimate) != m.Cols() {
		panic("em: Residuals dimension mismatch")
	}
	n := mathx.Sum(counts)
	fit := make([]float64, dt)
	m.MulVec(fit, estimate)
	residuals = make([]float64, dt)
	for j := range fit {
		expected := fit[j] * n
		if expected < 1e-12 {
			continue
		}
		r := (counts[j] - expected) / math.Sqrt(expected)
		residuals[j] = r
		chi2 += r * r
	}
	return residuals, chi2
}

// LogLikelihood evaluates L(x) = Σ_j n_j·ln((M·x)_j) for an arbitrary
// candidate distribution x; used by tests and diagnostics.
func LogLikelihood(m matrixx.Channel, counts, x []float64) float64 {
	dt := m.Rows()
	if len(counts) != dt || len(x) != m.Cols() {
		panic("em: LogLikelihood dimension mismatch")
	}
	denom := make([]float64, dt)
	m.MulVec(denom, x)
	var ll float64
	for j, c := range counts {
		if c == 0 {
			continue
		}
		dj := denom[j]
		if dj < 1e-300 {
			dj = 1e-300
		}
		ll += c * math.Log(dj)
	}
	return ll
}
