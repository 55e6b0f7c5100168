package repro

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/mathx"
	"repro/internal/mechanism"
	"repro/internal/randx"
	"repro/internal/window"
)

// Method selects the estimation algorithm. The default and recommended
// method is SWEMS; the others reproduce the paper's baselines.
type Method string

// Supported methods.
const (
	// SWEMS is Square Wave reporting with Expectation–Maximization and
	// Smoothing — the paper's contribution and the recommended default.
	SWEMS Method = "sw-ems"
	// SWEM is Square Wave with plain EM (no smoothing step).
	SWEM Method = "sw-em"
	// SWBREMS is the discrete bucketize-before-randomize Square Wave with
	// EMS, for domains that are already discrete (ages, counts, ratings).
	SWBREMS Method = "sw-br-ems"
	// HHADMM is the hierarchical histogram with ADMM post-processing
	// (the paper's improved hierarchy baseline).
	HHADMM Method = "hh-admm"
	// HHist is the plain hierarchical histogram with constrained
	// inference; its output may contain negative entries and is intended
	// for range queries only.
	HHist Method = "hh"
	// HaarHRR is the discrete-Haar hierarchy with Hadamard response;
	// like HHist, range queries only.
	HaarHRR Method = "haar-hrr"
	// Binning16/32/64 are categorical-frequency-oracle binning baselines.
	Binning16 Method = "binning-16"
	Binning32 Method = "binning-32"
	Binning64 Method = "binning-64"
)

// Options configures an estimation round.
type Options struct {
	// Epsilon is the LDP privacy budget. Required, must be positive.
	Epsilon float64
	// Buckets is the number of histogram buckets of the reconstruction.
	// Defaults to 1024. Hierarchy methods require a power of 4 (HHADMM,
	// HHist) or 2 (HaarHRR); binning methods require a multiple of the
	// bin count.
	Buckets int
	// Bandwidth overrides the square-wave half-width b. 0 selects the
	// paper's mutual-information optimum.
	Bandwidth float64
	// Seed makes the mechanism's randomness reproducible. 0 selects a
	// fixed default seed (LDP noise must be random in production; expose
	// the seed only for experiments and tests).
	Seed uint64
	// Shards overrides the Aggregator's ingestion stripe count
	// (0 = one per CPU, rounded up to a power of two).
	Shards int
	// Epoch, when positive, makes the Aggregator epoch-rotated: reports
	// land in a live epoch that seals every Epoch (drive rotation with
	// Advance or Rotate), the last Retain sealed epochs are kept, and
	// EstimateWindow answers sliding-window selectors ("last:K",
	// "epochs:i..j"). Zero (the default) collects one cumulative
	// histogram, exactly as before.
	Epoch time.Duration
	// Retain bounds how many sealed epochs a windowed Aggregator keeps
	// (0 = 8). Requires Epoch.
	Retain int
	// Mechanism selects the streaming pipeline's reporting mechanism by
	// wire name: "sw" (the default continuous Square Wave), "sw-discrete",
	// "grr", "oue", "sue", "olh", "hrr", or "auto" (pick the
	// lower-variance categorical oracle for this (ε, Buckets) per the
	// paper's Section 4.1 rule; resolved at construction). Scalar-report
	// mechanisms (sw, sw-discrete, grr) work with Client.Report and
	// Aggregator.Ingest; the rest use Client.Perturb and
	// Aggregator.IngestReport. Batch estimation (Estimate,
	// EstimateDistribution) selects its method independently via Method.
	Mechanism string
}

// DefaultOptions returns the recommended configuration at the given budget.
func DefaultOptions(eps float64) Options {
	return Options{Epsilon: eps, Buckets: 1024}
}

func (o Options) validate() (Options, error) {
	if o.Epsilon <= 0 || math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) {
		return o, fmt.Errorf("repro: epsilon must be positive and finite, got %v", o.Epsilon)
	}
	if o.Buckets == 0 {
		o.Buckets = 1024
	}
	if o.Buckets < 2 {
		return o, fmt.Errorf("repro: need at least 2 buckets, got %d", o.Buckets)
	}
	if o.Buckets > mechanism.MaxBuckets {
		return o, fmt.Errorf("repro: at most %d buckets, got %d", mechanism.MaxBuckets, o.Buckets)
	}
	if o.Bandwidth < 0 || o.Bandwidth > 2 {
		return o, fmt.Errorf("repro: bandwidth %v out of range [0, 2]", o.Bandwidth)
	}
	if o.Seed == 0 {
		o.Seed = 0x5157454d53 // arbitrary fixed default
	}
	if o.Epoch < 0 {
		return o, fmt.Errorf("repro: epoch duration %v must not be negative", o.Epoch)
	}
	if o.Retain != 0 && o.Epoch == 0 {
		return o, fmt.Errorf("repro: retain %d needs an epoch duration", o.Retain)
	}
	if o.Epoch > 0 {
		wcfg, err := window.Config{Epoch: o.Epoch, Retain: o.Retain}.Validate()
		if err != nil {
			return o, fmt.Errorf("repro: %v", err)
		}
		o.Retain = wcfg.Retain
	}
	// "" and "auto" resolve here so declared streams, snapshots and
	// redeclarations all carry the concrete mechanism name.
	mech, err := mechanism.Resolve(o.Mechanism, o.Epsilon, o.Buckets)
	if err != nil {
		return o, fmt.Errorf("repro: %v", err)
	}
	o.Mechanism = mech
	if o.Bandwidth != 0 && mech != mechanism.SW && mech != mechanism.SWDiscrete {
		return o, fmt.Errorf("repro: bandwidth only applies to the sw family, not %q", mech)
	}
	return o, nil
}

// Result is a reconstructed distribution with convenience statistics.
type Result struct {
	// Distribution is the estimated probability of each bucket. For
	// HHist and HaarHRR it may contain negative entries (range queries
	// remain meaningful; point statistics do not).
	Distribution []float64
	// Method that produced the estimate.
	Method Method
	// Epsilon of the round.
	Epsilon float64
}

// Mean returns the estimated mean of the private values (in [0,1]).
func (r *Result) Mean() float64 { return histogram.Mean(r.Distribution) }

// Variance returns the estimated variance.
func (r *Result) Variance() float64 { return histogram.Variance(r.Distribution) }

// Quantile returns the estimated β-quantile (β ∈ [0,1]).
func (r *Result) Quantile(beta float64) float64 {
	return histogram.Quantile(r.Distribution, beta)
}

// Range returns the estimated probability mass on [lo, hi] ⊆ [0,1].
func (r *Result) Range(lo, hi float64) float64 {
	return histogram.RangeProb(r.Distribution, lo, hi)
}

// CDF returns the estimated cumulative distribution at v ∈ [0,1].
func (r *Result) CDF(v float64) float64 {
	return histogram.CDFAt(r.Distribution, v)
}

// ErrNoValues is returned when an estimation round receives no input.
var ErrNoValues = errors.New("repro: no values to estimate from")

func estimatorFor(m Method, o Options) (core.Estimator, error) {
	switch m {
	case SWEMS, "":
		if o.Bandwidth > 0 {
			return core.SWEMSWithBandwidth(o.Bandwidth), nil
		}
		return core.SWEMS(), nil
	case SWEM:
		return core.SWEM(), nil
	case SWBREMS:
		return core.SWDiscreteEMS(), nil
	case HHADMM:
		return core.HHADMM(4), nil
	case HHist:
		return core.HH(4), nil
	case HaarHRR:
		return core.HaarHRR(), nil
	case Binning16:
		return core.Binning(16), nil
	case Binning32:
		return core.Binning(32), nil
	case Binning64:
		return core.Binning(64), nil
	default:
		return nil, fmt.Errorf("repro: unknown method %q", m)
	}
}

// EstimateDistribution runs a full SW+EMS round over the private values
// (each in [0,1]; out-of-range values are clamped) and returns the
// reconstructed distribution.
func EstimateDistribution(values []float64, opts Options) (*Result, error) {
	return Estimate(values, SWEMS, opts)
}

// Estimate runs a full round with an explicit method.
func Estimate(values []float64, m Method, opts Options) (*Result, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, ErrNoValues
	}
	est, err := estimatorFor(m, opts)
	if err != nil {
		return nil, err
	}
	dist, err := runGuarded(func() []float64 {
		return est.Estimate(values, opts.Buckets, opts.Epsilon, randx.New(opts.Seed))
	})
	if err != nil {
		return nil, err
	}
	if m == "" {
		m = SWEMS
	}
	return &Result{Distribution: dist, Method: m, Epsilon: opts.Epsilon}, nil
}

// runGuarded converts internal invariant panics (e.g. a bucket count a
// hierarchy method cannot use) into errors at the public boundary.
func runGuarded(fn func() []float64) (out []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("repro: %v", r)
		}
	}()
	return fn(), nil
}

// Client is the user-side half of the streaming SW pipeline. A Client is
// cheap to construct and holds only mechanism parameters; call Report once
// per private value. Not safe for concurrent use (each goroutine should own
// a Client).
type Client struct {
	inner *core.Client
	rng   *randx.Rand
}

// NewClient builds a client. Bandwidth, Buckets and Mechanism behave as in
// Options.
func NewClient(opts Options) (*Client, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Epsilon: opts.Epsilon, Buckets: opts.Buckets, Mechanism: opts.Mechanism,
		Bandwidth: opts.Bandwidth, Smoothing: true}
	return &Client{inner: core.NewClient(cfg), rng: randx.New(opts.Seed)}, nil
}

// Report randomizes one private value v ∈ [0,1] (clamped) into a scalar
// report suitable for sending to the aggregator (for SW: a value in
// [−b, 1+b]). Report only works for scalar-report mechanisms (sw,
// sw-discrete, grr); use Perturb for the general wire form.
func (c *Client) Report(v float64) float64 {
	return c.inner.Report(mathx.Clamp(v, 0, 1), c.rng)
}

// Perturb randomizes one private value v ∈ [0,1] (clamped) into a wire
// report of the configured mechanism — the vector form every mechanism
// supports (olh: [seed, y]; hrr: [row, ±1]; oue/sue: set-bit indices; the
// scalar mechanisms: one component). Feed it to Aggregator.IngestReport or
// the collector's POST /v1/streams/{name}/report.
func (c *Client) Perturb(v float64) []float64 {
	return c.inner.Perturb(mathx.Clamp(v, 0, 1), c.rng)
}

// Mechanism returns the wire name of the client's reporting mechanism.
func (c *Client) Mechanism() string { return c.inner.Mechanism().Name() }

// Epsilon returns the privacy budget.
func (c *Client) Epsilon() float64 { return c.inner.Epsilon() }

// Bandwidth returns the wave half-width b in use; reports lie in [−b, 1+b].
func (c *Client) Bandwidth() float64 { return c.inner.Bandwidth() }

// Aggregator is the collector-side half of the streaming pipeline: feed it
// reports as they arrive and call Estimate whenever a reconstruction is
// needed. All methods are safe for heavy concurrent use: reports land in a
// striped histogram of atomic counters (no global lock), and Estimate works
// from a non-blocking snapshot, so reconstruction never stalls ingestion.
//
// An Aggregator built with Options.Epoch set is windowed: reports land in a
// live epoch, Advance/Rotate seal it on schedule, and EstimateWindow
// reconstructs any retained epoch range — see Options.Epoch. A plain
// Aggregator's histogram is the same epoch ring with one epoch that never
// seals.
type Aggregator struct {
	inner *core.Aggregator // immutable channel + mechanism parameters
	ring  *window.Ring     // report histogram (plain: epoch 0 never seals)
	opts  Options
}

// NewAggregator builds an aggregator with the same Options as the clients.
// A windowed aggregator's epoch 0 starts at the wall clock's now.
func NewAggregator(opts Options) (*Aggregator, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Epsilon:   opts.Epsilon,
		Buckets:   opts.Buckets,
		Mechanism: opts.Mechanism,
		Bandwidth: opts.Bandwidth,
		Smoothing: true,
	}
	inner := core.NewAggregator(cfg)
	ring := window.New(inner.OutputBuckets(), opts.Shards,
		window.Config{Epoch: opts.Epoch, Retain: opts.Retain}, time.Now())
	return &Aggregator{inner: inner, ring: ring, opts: opts}, nil
}

// Ingest adds one scalar client report (sw, sw-discrete, grr). Safe to call
// from many goroutines at once. It panics on reports no client of the
// mechanism can produce; collectors ingesting untrusted wire reports use
// IngestReport, which returns an error instead.
func (a *Aggregator) Ingest(report float64) {
	a.ring.Add(a.inner.Bucket(report))
}

// IngestReport adds one wire report of any mechanism (the vector form
// Client.Perturb emits), validating it first. Safe to call from many
// goroutines at once.
func (a *Aggregator) IngestReport(report []float64) error {
	cells, err := a.inner.Bucketize(nil, report)
	if err != nil {
		return err
	}
	a.ring.AddBatch(cells)
	return nil
}

// Mechanism returns the wire name of the aggregator's reporting mechanism.
func (a *Aggregator) Mechanism() string { return a.inner.Mechanism().Name() }

// IngestBatch adds many client reports, resolving the counter stripe once
// for the whole batch — the cheapest way to drain a transport that delivers
// reports in chunks.
func (a *Aggregator) IngestBatch(reports []float64) {
	if len(reports) == 0 {
		return
	}
	buckets := make([]int, len(reports))
	for i, r := range reports {
		buckets[i] = a.inner.Bucket(r)
	}
	a.ring.AddBatch(buckets)
}

// N returns the number of reports visible to estimates: everything ingested
// for a plain aggregator, the live plus retained epochs for a windowed one.
// Fan-out mechanisms (oue/sue, olh) track the report count in their marker
// cell (the last output cell), read directly; every path is O(shards).
func (a *Aggregator) N() int {
	raw := a.ring.N()
	if raw == 0 || !a.inner.Mechanism().FanOut() {
		return raw
	}
	return a.ring.Cell(a.inner.OutputBuckets() - 1)
}

// method is the Result.Method label of streaming reconstructions: the
// historical SWEMS for the default mechanism, the mechanism's wire name for
// the rest.
func (a *Aggregator) method() Method {
	if a.opts.Mechanism == mechanism.SW {
		return SWEMS
	}
	return Method(a.opts.Mechanism)
}

// Estimate reconstructs the distribution from a snapshot of the reports so
// far. Concurrent ingestion is never blocked; reports that finish arriving
// before the call are always included. On a windowed aggregator this covers
// every retained epoch plus the live one.
func (a *Aggregator) Estimate() (*Result, error) {
	counts, n := a.ring.MergeAll(nil)
	if n == 0 {
		return nil, ErrNoValues
	}
	res := a.inner.EstimateFrom(counts, nil)
	return &Result{Distribution: res.Estimate, Method: a.method(), Epsilon: a.opts.Epsilon}, nil
}

// ErrNotWindowed is returned by window methods of a plain aggregator.
var ErrNotWindowed = errors.New("repro: aggregator is not windowed (set Options.Epoch)")

// windowed reports whether the aggregator was declared with an epoch.
func (a *Aggregator) windowed() bool { return a.opts.Epoch > 0 }

// Advance rotates a windowed aggregator forward to now, sealing one epoch
// per elapsed period (periods that passed unobserved seal empty). It
// returns how many epochs were sealed. Production collectors call this
// periodically with time.Now(); tests pass a mock clock's now.
func (a *Aggregator) Advance(now time.Time) (int, error) {
	if !a.windowed() {
		return 0, ErrNotWindowed
	}
	return a.ring.Advance(now), nil
}

// Rotate forces exactly one epoch rotation regardless of the clock, for
// callers who drive epochs on their own cadence.
func (a *Aggregator) Rotate() error {
	if !a.windowed() {
		return ErrNotWindowed
	}
	a.ring.Rotate()
	return nil
}

// CurrentEpoch returns the live epoch's index of a windowed aggregator, or
// -1 for a plain one.
func (a *Aggregator) CurrentEpoch() int {
	if !a.windowed() {
		return -1
	}
	cur, _ := a.ring.Current()
	return cur
}

// EstimateWindow reconstructs the distribution of one sliding window of a
// windowed aggregator. The selector uses the collector's wire syntax:
// "last:K" (the most recent K epochs ending at the live one, clamped to
// retention) or "epochs:i..j" (absolute inclusive bounds; aged-out or
// future epochs are an error).
func (a *Aggregator) EstimateWindow(selector string) (*Result, error) {
	if !a.windowed() {
		return nil, ErrNotWindowed
	}
	sel, err := window.ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	g, err := a.ring.Resolve(sel)
	if err != nil {
		return nil, err
	}
	counts, n, err := a.ring.Merge(g, nil)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, ErrNoValues
	}
	res := a.inner.EstimateFrom(counts, nil)
	return &Result{Distribution: res.Estimate, Method: a.method(), Epsilon: a.opts.Epsilon}, nil
}

// Statistic maps a reconstructed distribution (over d buckets of [0,1]) to
// a scalar, for use with ConfidenceInterval. Package histogram-style
// statistics can be expressed inline:
//
//	mean := func(dist []float64) float64 { ... }
//
// or use the ready-made MeanStatistic / QuantileStatistic helpers.
type Statistic = func(dist []float64) float64

// MeanStatistic reads the distribution mean.
func MeanStatistic() Statistic { return histogram.Mean }

// QuantileStatistic reads the β-quantile.
func QuantileStatistic(beta float64) Statistic {
	return func(dist []float64) float64 { return histogram.Quantile(dist, beta) }
}

// RangeStatistic reads the probability mass on [lo, hi].
func RangeStatistic(lo, hi float64) Statistic {
	return func(dist []float64) float64 { return histogram.RangeProb(dist, lo, hi) }
}

// ConfidenceInterval is a bootstrap percentile interval for a statistic of
// the reconstructed distribution.
type ConfidenceInterval struct {
	Point, Lo, Hi float64
	Level         float64
}

// ConfidenceInterval bootstraps the aggregator's report histogram (resample
// → reconstruct → re-read the statistic, replicas times) and returns the
// percentile interval at the given level (e.g. 0.9). Replicas ≤ 0 selects
// 100. This is expensive — one EMS reconstruction per replica.
func (a *Aggregator) ConfidenceInterval(stat Statistic, level float64, replicas int) (ConfidenceInterval, error) {
	counts, n := a.ring.MergeAll(nil)
	if n == 0 {
		return ConfidenceInterval{}, ErrNoValues
	}
	if level <= 0 || level >= 1 {
		return ConfidenceInterval{}, fmt.Errorf("repro: confidence level %v outside (0,1)", level)
	}
	if a.inner.Channel() == nil {
		return ConfidenceInterval{}, fmt.Errorf("repro: ConfidenceInterval needs a transition channel; mechanism %q is matrix-free",
			a.opts.Mechanism)
	}
	ci := boot.Estimate(a.inner.Channel(), counts, stat,
		boot.Options{Replicas: replicas, Level: level}, randx.New(a.opts.Seed^0xb007))
	return ConfidenceInterval{Point: ci.Point, Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}, nil
}
