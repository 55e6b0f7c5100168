// Package core wires the substrates into end-to-end distribution-estimation
// pipelines: a client/aggregator pair built on the pluggable mechanism layer
// (package mechanism) with the paper's primary contribution — Square Wave
// reporting + EMS reconstruction — as the default, plus an Estimator
// registry covering every method the evaluation section compares (SW+EMS,
// SW+EM, discrete SW, general-wave ablations, HH-ADMM, HH, HaarHRR,
// CFO-with-binning).
package core

import (
	"fmt"
	"math"

	"repro/internal/admm"
	"repro/internal/binning"
	"repro/internal/em"
	"repro/internal/hierarchy"
	"repro/internal/mathx"
	"repro/internal/matrixx"
	"repro/internal/mechanism"
	"repro/internal/postprocess"
	"repro/internal/randx"
	"repro/internal/sw"
)

// Config parameterizes a collection round. The zero Mechanism is the
// continuous Square Wave, for which the SW-specific fields (OutputBuckets,
// Bandwidth, PlateauRatio, ExplicitShape) keep their historical meaning.
type Config struct {
	// Epsilon is the LDP privacy budget. Required.
	Epsilon float64
	// Buckets is the reconstruction granularity d. Defaults to 1024.
	Buckets int
	// OutputBuckets is the report-histogram granularity d̃ of the sw
	// mechanism. Defaults to Buckets (the paper sets d̃ = d); other
	// mechanisms derive their output granularity.
	OutputBuckets int
	// Bandwidth overrides the wave half-width b for the sw family (a
	// domain fraction; sw-discrete uses ⌊b·d⌋ buckets); 0 means the
	// mutual-information optimum sw.BOpt(Epsilon).
	Bandwidth float64
	// PlateauRatio is the general-wave plateau ratio ρ; SW is ρ = 1
	// (the default when 0 is interpreted only through ExplicitShape).
	// Leave ExplicitShape false for the Square Wave.
	PlateauRatio float64
	// ExplicitShape makes PlateauRatio meaningful (so a triangle wave,
	// ρ = 0, can be requested).
	ExplicitShape bool
	// Smoothing selects EMS (true, default via NewConfig) or plain EM.
	Smoothing bool
	// EM carries fine-grained reconstruction options; zero values take
	// the paper's defaults for the chosen Smoothing mode.
	EM em.Options
	// Mechanism selects the reporting mechanism by wire name: "sw" (the
	// default), "sw-discrete", "grr", "oue", "sue", "olh", "hrr", or
	// "auto" (the Section 4.1 variance rule, resolved at construction).
	Mechanism string
}

// NewConfig returns the paper's recommended configuration: SW with the
// optimal bandwidth and EMS reconstruction.
func NewConfig(eps float64) Config {
	return Config{Epsilon: eps, Smoothing: true}
}

func (c *Config) fillDefaults() {
	if c.Epsilon <= 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		panic(fmt.Sprintf("core: epsilon %v must be positive and finite", c.Epsilon))
	}
	if c.Buckets <= 0 {
		c.Buckets = 1024
	}
	name, err := mechanism.Resolve(c.Mechanism, c.Epsilon, c.Buckets)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	c.Mechanism = name
	if name == mechanism.SW {
		// SW-family defaults, resolved here so the Config fingerprint
		// (merge.go) and accessors carry the effective values.
		if c.OutputBuckets <= 0 {
			c.OutputBuckets = c.Buckets
		}
		if c.Bandwidth == 0 {
			c.Bandwidth = sw.BOpt(c.Epsilon)
		}
		if !c.ExplicitShape {
			c.PlateauRatio = 1
		}
	}
	if c.EM.Tau == 0 {
		workers := c.EM.Workers
		if c.Smoothing {
			c.EM = em.EMSOptions()
		} else {
			c.EM = em.EMOptions(c.Epsilon)
		}
		c.EM.Workers = workers
	} else {
		c.EM.Smoothing = c.Smoothing
	}
}

// mechParams maps the (default-filled) Config onto the mechanism codec.
func (c Config) mechParams() mechanism.Params {
	p := mechanism.Params{
		Name:    c.Mechanism,
		Epsilon: c.Epsilon,
		Buckets: c.Buckets,
	}
	switch c.Mechanism {
	case mechanism.SW:
		p.OutputBuckets = c.OutputBuckets
		p.Bandwidth = c.Bandwidth
		p.PlateauRatio = c.PlateauRatio
		p.ExplicitShape = c.ExplicitShape
	case mechanism.SWDiscrete:
		p.Bandwidth = c.Bandwidth
	}
	return p
}

// Client is the user-side half of the pipeline: it holds no state beyond
// the mechanism parameters and maps one private value to one report.
type Client struct {
	cfg  Config
	mech mechanism.Mechanism
}

// NewClient builds a client from cfg.
func NewClient(cfg Config) *Client {
	cfg.fillDefaults()
	return &Client{cfg: cfg, mech: mechanism.MustNew(cfg.mechParams())}
}

// Report randomizes one private value v ∈ [0,1] into a scalar report (for
// SW: a value in [−b, 1+b]). Values outside [0,1] are clamped (the usual
// contract for bounded-domain LDP mechanisms: the clamping happens on the
// user's device before randomization, so privacy is unaffected). Report is
// only available for scalar-report mechanisms (sw, sw-discrete, grr); use
// Perturb for the general wire form.
func (c *Client) Report(v float64, rng *randx.Rand) float64 {
	if !c.mech.Scalar() {
		panic(fmt.Sprintf("core: %s reports are not scalar; use Perturb", c.mech.Name()))
	}
	return c.mech.Perturb(mathx.Clamp(v, 0, 1), rng)[0]
}

// Perturb randomizes one private value v ∈ [0,1] (clamped) into a wire
// report of the configured mechanism.
func (c *Client) Perturb(v float64, rng *randx.Rand) mechanism.Report {
	return c.mech.Perturb(mathx.Clamp(v, 0, 1), rng)
}

// Epsilon returns the client's privacy budget.
func (c *Client) Epsilon() float64 { return c.cfg.Epsilon }

// Bandwidth returns the wave half-width in use (0 for non-SW mechanisms).
func (c *Client) Bandwidth() float64 { return c.cfg.Bandwidth }

// Mechanism returns the client's reporting mechanism.
func (c *Client) Mechanism() mechanism.Mechanism { return c.mech }

// Aggregator is the collector-side half: it buckets incoming reports into
// the report histogram and reconstructs the input distribution on demand.
type Aggregator struct {
	cfg    Config
	mech   mechanism.Mechanism
	counts []float64
	n      int
}

// NewAggregator builds an aggregator from cfg (must match the clients').
// For channel-based mechanisms the transition channel is built once, in
// structured form where the mechanism allows (the square wave's floor,
// plateau run and ramp cells, GRR's flat-plus-diagonal): building it and
// each EM product then cost O(d + d̃) instead of O(d·d̃).
func NewAggregator(cfg Config) *Aggregator {
	cfg.fillDefaults()
	mech := mechanism.MustNew(cfg.mechParams())
	mech.Channel() // build (and cache) the channel eagerly, as before
	return &Aggregator{
		cfg:    cfg,
		mech:   mech,
		counts: make([]float64, mech.OutputBuckets()),
	}
}

// Bucket maps one scalar report to its report-histogram bucket. It reads
// only immutable mechanism state and is safe for concurrent use — it is the
// ingestion kernel concurrent accumulators (package aggregate, the HTTP
// collector) build on. It panics on reports no client of this mechanism can
// produce (impossible for SW, whose out-of-range reports clamp) and on
// non-scalar mechanisms; servers ingesting untrusted wire reports use
// Bucketize, which returns errors instead.
func (a *Aggregator) Bucket(report float64) int {
	j, err := a.mech.BucketOf(report)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return j
}

// Bucketize validates one wire report and appends the histogram cells it
// increments to dst. Safe for concurrent use.
func (a *Aggregator) Bucketize(dst []int, rep mechanism.Report) ([]int, error) {
	return a.mech.Bucketize(dst, rep)
}

// Ingest adds one scalar report to the aggregate.
func (a *Aggregator) Ingest(report float64) {
	a.counts[a.Bucket(report)]++
	a.n++
}

// IngestReport adds one wire report (any mechanism) to the aggregate.
func (a *Aggregator) IngestReport(rep mechanism.Report) error {
	cells, err := a.mech.Bucketize(nil, rep)
	if err != nil {
		return err
	}
	for _, c := range cells {
		a.counts[c]++
	}
	a.n++
	return nil
}

// N returns the number of reports ingested.
func (a *Aggregator) N() int { return a.n }

// OutputBuckets returns the report-histogram granularity d̃ — the length
// external accumulators must use.
func (a *Aggregator) OutputBuckets() int { return a.mech.OutputBuckets() }

// Mechanism returns the aggregator's reporting mechanism.
func (a *Aggregator) Mechanism() mechanism.Mechanism { return a.mech }

// Users converts an externally-accumulated histogram plus its increment
// total into the report (user) count it represents. For one-cell-per-report
// mechanisms this is the increment total; fan-out oracles (OUE/SUE, OLH)
// read their marker cell.
func (a *Aggregator) Users(counts []float64, increments int) int {
	return a.mech.Users(counts, increments)
}

// Channel returns the transition channel the aggregator reconstructs with
// (shared, not copied — callers must treat it as read-only). It is nil for
// matrix-free oracle mechanisms (oue, sue, olh, hrr), which reconstruct via
// the direct debiased estimate instead of EM.
func (a *Aggregator) Channel() matrixx.Channel { return a.mech.Channel() }

// Counts returns a copy of the report histogram.
func (a *Aggregator) Counts() []float64 {
	return append([]float64(nil), a.counts...)
}

// Decay multiplies the accumulated report histogram by factor ∈ (0, 1],
// implementing an exponentially-weighted sliding window for long-running
// collections: calling Decay(γ) once per epoch makes a report from k epochs
// ago weigh γ^k. The reconstruction is unaffected in expectation because the
// channel is linear and EM normalizes the counts. Decay(1) is a no-op.
func (a *Aggregator) Decay(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("core: decay factor %v outside (0, 1]", factor))
	}
	if factor == 1 {
		return
	}
	for j := range a.counts {
		a.counts[j] *= factor
	}
	a.n = int(float64(a.n)*factor + 0.5)
}

// Estimate reconstructs the input distribution from the reports ingested so
// far (EM/EMS for channel mechanisms, direct debiased estimation for
// oracles).
func (a *Aggregator) Estimate() em.Result {
	return a.EstimateFrom(a.counts, nil)
}

// EstimateFrom reconstructs from an externally-accumulated report histogram
// (e.g. an aggregate.Striped snapshot) instead of the aggregator's own
// counts. Channel-based mechanisms run EM/EMS; a non-nil init warm-starts
// EM from a previous estimate, which typically converges in a fraction of
// the iterations — the backbone of the background re-estimation engine.
// Matrix-free oracles compute the direct debiased estimate and project it
// onto the simplex with Norm-Sub (Section 4.1); being closed-form, they
// ignore init and always report convergence. EstimateFrom does not touch
// mutable aggregator state and is safe to call concurrently with Bucket.
func (a *Aggregator) EstimateFrom(counts, init []float64) em.Result {
	return a.EstimateInto(nil, counts, init)
}

// EstimateInto is EstimateFrom running out of a reusable em.Workspace: once
// the workspace is warm for this aggregator's shape, a re-estimation
// allocates nothing on either the EM or the oracle path. A nil workspace
// falls back to per-call buffers. Result.Estimate aliases workspace memory
// and is only valid until the workspace's next use; callers that retain it
// must copy it out. The workspace (unlike the aggregator itself) is NOT safe
// for concurrent use.
func (a *Aggregator) EstimateInto(w *em.Workspace, counts, init []float64) em.Result {
	if w == nil {
		w = new(em.Workspace)
	}
	if ch := a.mech.Channel(); ch != nil {
		opts := a.cfg.EM
		if init != nil {
			opts.Init = init
		}
		return w.Reconstruct(ch, counts, opts)
	}
	est, scratch := w.OracleBuffers(len(counts))
	est = a.mech.EstimateInto(est, counts)
	postprocess.NormSubInPlace(est, scratch[:len(est)])
	return em.Result{
		Estimate:   est,
		Iterations: 1,
		Converged:  true,
	}
}

// Run executes a complete round over a slice of private values and returns
// the reconstructed distribution — the one-shot convenience the estimator
// registry and benchmarks use.
func Run(cfg Config, values []float64, rng *randx.Rand) []float64 {
	client := NewClient(cfg)
	agg := NewAggregator(cfg)
	var cells []int
	var err error
	for _, v := range values {
		cells, err = agg.Bucketize(cells[:0], client.Perturb(v, rng))
		if err != nil {
			panic(fmt.Sprintf("core: own client produced an invalid report: %v", err))
		}
		for _, c := range cells {
			agg.counts[c]++
		}
		agg.n++
	}
	return agg.Estimate().Estimate
}

// ---------------------------------------------------------------------------
// Estimator registry
// ---------------------------------------------------------------------------

// Estimator is a full distribution-estimation method under LDP, the unit the
// experiment harness compares.
type Estimator interface {
	// Name is the label used in figures ("SW-EMS", "HH-ADMM", ...).
	Name() string
	// ValidDistribution reports whether Estimate returns a point of the
	// probability simplex. HH and HaarHRR return signed estimates that
	// are only meaningful for range queries (Table 2).
	ValidDistribution() bool
	// Estimate runs a full private collection round over values ∈ [0,1]
	// at granularity d and budget eps.
	Estimate(values []float64, d int, eps float64, rng *randx.Rand) []float64
}

// swEstimator covers SW/GW with EM or EMS reconstruction.
type swEstimator struct {
	name      string
	smoothing bool
	rho       float64
	explicit  bool
	bandwidth float64 // 0 → BOpt
}

// SWEMS returns the paper's headline method: Square Wave + EMS.
func SWEMS() Estimator { return swEstimator{name: "SW-EMS", smoothing: true} }

// SWEM returns Square Wave + plain EM.
func SWEM() Estimator { return swEstimator{name: "SW-EM"} }

// SWEMSWithBandwidth returns SW+EMS with an explicit wave half-width
// (Figure 6 sweep).
func SWEMSWithBandwidth(b float64) Estimator {
	return swEstimator{name: fmt.Sprintf("SW-EMS(b=%.3f)", b), smoothing: true, bandwidth: b}
}

// GeneralWaveEMS returns a trapezoid/triangle wave with plateau ratio rho
// plus EMS (Figure 5 ablation).
func GeneralWaveEMS(rho, b float64) Estimator {
	name := fmt.Sprintf("GW(ρ=%.1f)-EMS", rho)
	if rho == 0 {
		name = "Triangle-EMS"
	}
	return swEstimator{name: name, smoothing: true, rho: rho, explicit: true, bandwidth: b}
}

func (s swEstimator) Name() string            { return s.name }
func (s swEstimator) ValidDistribution() bool { return true }

func (s swEstimator) Estimate(values []float64, d int, eps float64, rng *randx.Rand) []float64 {
	cfg := Config{
		Epsilon:       eps,
		Buckets:       d,
		Bandwidth:     s.bandwidth,
		PlateauRatio:  s.rho,
		ExplicitShape: s.explicit,
		Smoothing:     s.smoothing,
	}
	return Run(cfg, values, rng)
}

// swDiscreteEstimator is the bucketize-before-randomize variant.
type swDiscreteEstimator struct{ smoothing bool }

// SWDiscreteEMS returns the discrete (B-R) Square Wave with EMS
// (Section 5.4).
func SWDiscreteEMS() Estimator { return swDiscreteEstimator{smoothing: true} }

func (s swDiscreteEstimator) Name() string            { return "SW-BR-EMS" }
func (s swDiscreteEstimator) ValidDistribution() bool { return true }

func (s swDiscreteEstimator) Estimate(values []float64, d int, eps float64, rng *randx.Rand) []float64 {
	mech := sw.NewDiscrete(d, eps)
	disc := make([]int, len(values))
	for i, v := range values {
		disc[i] = int(mathx.Clamp(v, 0, 1) * float64(d))
		if disc[i] >= d {
			disc[i] = d - 1
		}
	}
	counts := mech.Collect(disc, rng)
	opts := em.EMSOptions()
	if !s.smoothing {
		opts = em.EMOptions(eps)
	}
	return em.Reconstruct(mech.Channel(), counts, opts).Estimate
}

// hierarchyEstimator covers HH, HH-ADMM and HaarHRR.
type hierarchyEstimator struct {
	name string
	beta int
	mode string // "raw", "admm", "haar"
}

// HHADMM returns the paper's improved hierarchy method (Section 4.3) with
// branching factor beta (the paper uses 4).
func HHADMM(beta int) Estimator {
	return hierarchyEstimator{name: "HH-ADMM", beta: beta, mode: "admm"}
}

// HH returns the plain hierarchical histogram with constrained inference
// [18]; its output is not a valid distribution.
func HH(beta int) Estimator {
	return hierarchyEstimator{name: "HH", beta: beta, mode: "raw"}
}

// HaarHRR returns the Haar-transform hierarchy with Hadamard response [18];
// its output is not a valid distribution.
func HaarHRR() Estimator {
	return hierarchyEstimator{name: "HaarHRR", beta: 2, mode: "haar"}
}

func (h hierarchyEstimator) Name() string            { return h.name }
func (h hierarchyEstimator) ValidDistribution() bool { return h.mode == "admm" }

func (h hierarchyEstimator) Estimate(values []float64, d int, eps float64, rng *randx.Rand) []float64 {
	disc := make([]int, len(values))
	for i, v := range values {
		j := int(mathx.Clamp(v, 0, 1) * float64(d))
		if j >= d {
			j = d - 1
		}
		disc[i] = j
	}
	switch h.mode {
	case "haar":
		return hierarchy.NewHaarHRR(d, eps).Collect(disc, rng).Leaves()
	case "admm":
		raw := hierarchy.NewHH(d, h.beta, eps).Collect(disc, rng)
		return admm.Distribution(raw, admm.Options{})
	default:
		raw := hierarchy.NewHH(d, h.beta, eps).Collect(disc, rng)
		return raw.ConstrainedInference().Leaves()
	}
}

// binningEstimator is CFO-with-binning.
type binningEstimator struct{ c int }

// Binning returns CFO-with-binning with c bins (Section 4.1; the paper
// evaluates c ∈ {16, 32, 64}).
func Binning(c int) Estimator { return binningEstimator{c: c} }

func (b binningEstimator) Name() string            { return fmt.Sprintf("CFO-bin-%d", b.c) }
func (b binningEstimator) ValidDistribution() bool { return true }

func (b binningEstimator) Estimate(values []float64, d int, eps float64, rng *randx.Rand) []float64 {
	return binning.New(b.c, eps).Collect(values, d, rng)
}

// StandardEstimators returns the method set of Figures 2–4: SW-EMS, SW-EM,
// HH-ADMM (β=4) and CFO-binning with 16/32/64 bins.
func StandardEstimators() []Estimator {
	return []Estimator{
		SWEMS(), SWEM(), HHADMM(4), Binning(16), Binning(32), Binning(64),
	}
}

// RangeQueryEstimators returns the extended set of Figure 3, which adds the
// signed-output hierarchy baselines.
func RangeQueryEstimators() []Estimator {
	return append(StandardEstimators(), HH(4), HaarHRR())
}
