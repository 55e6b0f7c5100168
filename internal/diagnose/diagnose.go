// Package diagnose computes per-stream estimate-quality diagnostics for the
// collection server: EM convergence trajectory (iterations, final
// count-weighted log-likelihood, last-delta, hit-max-iters), analytic
// per-mechanism variance and confidence half-width at the current user
// count, warm-start effectiveness against the cold baseline, and
// epoch-over-epoch drift scores (Wasserstein-1 and Kolmogorov–Smirnov
// between consecutive sealed-epoch estimates) run through a hysteresis-based
// alert state machine.
//
// The paper's variance analysis gives closed forms for every categorical
// frequency oracle (mechanism.Variance, which this package evaluates at the
// stream's user count); the EM log-likelihood is the standard quality
// signal for latent-structure estimation. Together they answer the
// question metrics and traces cannot: is the published histogram any good,
// and is the population it describes still the one being sampled?
//
// A Tracker is fed by the refresh engine — ObserveRefresh after every
// published reconstruction, ObserveEpoch with each sealed epoch's lone
// estimate — and read by the serving surface through Snapshot, which
// assembles an immutable Record. All methods are safe for concurrent use;
// the engine is expected to serialize writers per stream (it already does,
// via the per-stream busy flag).
package diagnose

import (
	"math"
	"sync"

	"repro/internal/mechanism"
	"repro/internal/metrics"
)

// CILevel is the confidence level of every half-width this package reports.
const CILevel = 0.95

// z95 is the standard normal quantile for a two-sided 95% interval.
const z95 = 1.959963984540054

// HalfWidth converts a per-frequency variance into the half-width of a
// two-sided 95% confidence interval on one frequency estimate.
func HalfWidth(variance float64) float64 {
	if variance <= 0 {
		return 0
	}
	return z95 * math.Sqrt(variance)
}

// The drift alert's thresholds. The hysteresis lives in the threshold
// pair: an alert raises when either score of one sealed epoch reaches its
// fire threshold, and clears only after driftClearCount consecutive epochs
// with both scores at or below the (half-height) clear thresholds — scores
// in the dead band between the two keep the current state and reset the
// clear streak.
const (
	driftFireW1     = 0.08
	driftFireKS     = 0.2
	driftClearW1    = driftFireW1 / 2
	driftClearKS    = driftFireKS / 2
	driftClearCount = 3
)

// TrackerConfig describes the stream a Tracker watches.
type TrackerConfig struct {
	Mechanism string
	Epsilon   float64
	Buckets   int
	// EMBased marks streams reconstructed through the EM/EMS channel path
	// (the sw family and every mechanism with a transition matrix) — the
	// only ones with a meaningful log-likelihood trajectory.
	EMBased bool
	// Windowed enables the drift block: only epoch-rotated streams have
	// consecutive sealed estimates to difference.
	Windowed bool
}

// Refresh is one published reconstruction as observed by the engine.
type Refresh struct {
	Iterations    int
	LogLikelihood float64
	LastDelta     float64
	Converged     bool
	// Warm reports whether the reconstruction was warm-started from the
	// previous estimate.
	Warm bool
	// Users is the report (user) count the estimate covers.
	Users int
}

// Convergence is the EM trajectory block of a Record.
type Convergence struct {
	// Iterations, LogLikelihood and LastDelta describe the most recent
	// published reconstruction.
	Iterations    int     `json:"iterations"`
	LogLikelihood float64 `json:"log_likelihood"`
	LastDelta     float64 `json:"last_delta"`
	// Converged reports whether its stopping rule fired; HitMaxIters that
	// it ran out of iterations instead (always false for the matrix-free
	// oracle path, whose single pass is exact).
	Converged   bool `json:"converged"`
	HitMaxIters bool `json:"hit_max_iters"`
}

// WarmStart is the warm-start effectiveness block of a Record.
type WarmStart struct {
	// ColdIterations is the iteration count of the first (cold,
	// uniform-start) reconstruction — the baseline; 0 until one ran.
	ColdIterations int `json:"cold_iterations"`
	// WarmRefreshes counts warm-started reconstructions;
	// MeanWarmIterations averages their iteration counts.
	WarmRefreshes      uint64  `json:"warm_refreshes"`
	MeanWarmIterations float64 `json:"mean_warm_iterations"`
	// LastWarm reports whether the most recent refresh was warm-started.
	LastWarm bool `json:"last_warm"`
	// Speedup is ColdIterations / MeanWarmIterations (0 until both sides
	// exist) — how many times fewer iterations a warm start needs. The
	// collector's warm refreshes run SQUAREM cycles and count EMS map
	// evaluations as iterations, so the ratio includes the acceleration.
	Speedup float64 `json:"speedup"`
}

// Confidence is the analytic-uncertainty block of a Record.
type Confidence struct {
	// Level is the confidence level of HalfWidth (always 0.95).
	Level float64 `json:"level"`
	// Variance is the per-frequency estimator variance at the current
	// user count; HalfWidth the matching interval half-width.
	Variance  float64 `json:"variance"`
	HalfWidth float64 `json:"half_width"`
	// Approximate marks the sw family, whose EM estimator has no closed
	// form — the reported variance is the better categorical oracle's at
	// the same (ε, d), an upper-bound proxy.
	Approximate bool `json:"approximate"`
}

// Drift is the epoch-over-epoch drift block of a Record (windowed streams
// only).
type Drift struct {
	// W1 and KS are the most recent consecutive-sealed-epoch scores.
	W1 float64 `json:"w1"`
	KS float64 `json:"ks"`
	// EpochsScored counts scored epoch pairs; LastEpoch is the sealed
	// epoch index of the most recent score (-1 until one exists).
	EpochsScored int `json:"epochs_scored"`
	LastEpoch    int `json:"last_epoch"`
	// Alerting is the state machine's current state; AlertsTotal counts
	// raises; StateSinceEpoch is the epoch of the last state change.
	Alerting        bool   `json:"alerting"`
	AlertsTotal     uint64 `json:"alerts_total"`
	StateSinceEpoch int    `json:"state_since_epoch"`
}

// Record is one stream's full quality snapshot, shaped for JSON serving.
type Record struct {
	// Refreshes counts published reconstructions observed so far; every
	// other field is zero-valued until the first one.
	Refreshes uint64 `json:"refreshes"`
	// EMBased distinguishes EM/EMS-reconstructed streams (log-likelihood
	// is meaningful) from direct frequency-oracle streams (it is not).
	EMBased     bool        `json:"em_based"`
	Convergence Convergence `json:"convergence"`
	WarmStart   WarmStart   `json:"warm_start"`
	Confidence  Confidence  `json:"confidence"`
	Drift       *Drift      `json:"drift,omitempty"`
}

// Tracker accumulates one stream's quality state.
type Tracker struct {
	mu  sync.Mutex
	cfg TrackerConfig

	refreshes uint64
	conv      Convergence
	lastWarm  bool
	users     int

	coldIters    int
	warmCount    uint64
	warmItersSum uint64

	// Drift state (windowed streams only). prevEst is the tracker-owned
	// copy of the last sealed epoch's estimate.
	prevEst      []float64
	w1, ks       float64
	epochsScored int
	lastEpoch    int
	alerting     bool
	clearStreak  int
	alerts       uint64
	sinceEpoch   int
}

// NewTracker builds a tracker for one stream.
func NewTracker(cfg TrackerConfig) *Tracker {
	return &Tracker{cfg: cfg, lastEpoch: -1, sinceEpoch: -1}
}

// ObserveRefresh records one published reconstruction.
func (t *Tracker) ObserveRefresh(r Refresh) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refreshes++
	t.conv = Convergence{
		Iterations:    r.Iterations,
		LogLikelihood: sanitize(r.LogLikelihood),
		LastDelta:     sanitize(r.LastDelta),
		Converged:     r.Converged,
		HitMaxIters:   t.cfg.EMBased && !r.Converged,
	}
	t.lastWarm = r.Warm
	t.users = r.Users
	if t.cfg.EMBased {
		if r.Warm {
			t.warmCount++
			t.warmItersSum += uint64(r.Iterations)
		} else if t.coldIters == 0 {
			t.coldIters = r.Iterations
		}
	}
}

// ObserveEpoch scores one just-sealed epoch's lone estimate against the
// previous sealed epoch's and advances the alert state machine. It reports
// whether this observation raised the alert (the caller's cue to bump its
// alert counter); the scores themselves are read through Snapshot. The
// first sealed estimate only primes the comparison baseline.
func (t *Tracker) ObserveEpoch(epoch int, est []float64) (raised bool) {
	if !t.cfg.Windowed || len(est) == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.prevEst != nil && len(t.prevEst) == len(est) {
		w1 := metrics.Wasserstein(t.prevEst, est)
		ks := metrics.KS(t.prevEst, est)
		t.w1, t.ks = w1, ks
		t.epochsScored++
		switch {
		case w1 >= driftFireW1 || ks >= driftFireKS:
			t.clearStreak = 0
			if !t.alerting {
				t.alerting = true
				t.alerts++
				t.sinceEpoch = epoch
				raised = true
			}
		case w1 <= driftClearW1 && ks <= driftClearKS:
			if t.alerting {
				t.clearStreak++
				if t.clearStreak >= driftClearCount {
					t.alerting = false
					t.clearStreak = 0
					t.sinceEpoch = epoch
				}
			}
		default:
			// Dead band: hold the current state, restart the quiet streak.
			t.clearStreak = 0
		}
	}
	t.lastEpoch = epoch
	t.prevEst = append(t.prevEst[:0], est...)
	return raised
}

// LastEpochEstimate returns the tracker's copy of the most recent sealed
// epoch's estimate — the natural warm start for the next sealed epoch's
// reconstruction. The slice is tracker-owned: callers must not retain it
// past the next ObserveEpoch. Nil until one epoch was observed.
func (t *Tracker) LastEpochEstimate() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prevEst
}

// Alerting reports the drift alert state.
func (t *Tracker) Alerting() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alerting
}

// Snapshot assembles the current Record. users overrides the user count the
// confidence interval is evaluated at when positive; otherwise the count of
// the last observed refresh is used.
func (t *Tracker) Snapshot(users int) Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	if users <= 0 {
		users = t.users
	}
	v, approx := mechanism.Variance(t.cfg.Mechanism, t.cfg.Epsilon, t.cfg.Buckets, users)
	rec := Record{
		Refreshes:   t.refreshes,
		EMBased:     t.cfg.EMBased,
		Convergence: t.conv,
		WarmStart: WarmStart{
			ColdIterations: t.coldIters,
			WarmRefreshes:  t.warmCount,
			LastWarm:       t.lastWarm,
		},
		Confidence: Confidence{
			Level:       CILevel,
			Variance:    sanitize(v),
			HalfWidth:   sanitize(HalfWidth(v)),
			Approximate: approx,
		},
	}
	if t.warmCount > 0 {
		rec.WarmStart.MeanWarmIterations = float64(t.warmItersSum) / float64(t.warmCount)
		if t.coldIters > 0 && rec.WarmStart.MeanWarmIterations > 0 {
			rec.WarmStart.Speedup = float64(t.coldIters) / rec.WarmStart.MeanWarmIterations
		}
	}
	if t.cfg.Windowed {
		rec.Drift = &Drift{
			W1:              t.w1,
			KS:              t.ks,
			EpochsScored:    t.epochsScored,
			LastEpoch:       t.lastEpoch,
			Alerting:        t.alerting,
			AlertsTotal:     t.alerts,
			StateSinceEpoch: t.sinceEpoch,
		}
	}
	return rec
}

// sanitize maps non-finite values to 0 so Records always marshal to JSON
// (encoding/json rejects ±Inf and NaN).
func sanitize(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
