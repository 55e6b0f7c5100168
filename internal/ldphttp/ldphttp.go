// Package ldphttp exposes LDP collection rounds over HTTP: clients POST
// their randomized reports to a collector endpoint and anyone may GET the
// current reconstructed distribution and the analytics computed from it.
// This is the deployment shape of the real-world LDP systems the paper cites
// (RAPPOR in Chrome, Apple's and Microsoft's telemetry): randomization
// happens strictly on the client; the server only ever sees ε-LDP reports.
//
// Endpoints:
//
//	GET    /v1/streams                    list streams and their state
//	POST   /v1/streams                    declare a stream, e.g.
//	       {"name": "age", "epsilon": 1, "buckets": 256}
//	       {"name": "os", "epsilon": 1, "buckets": 64, "mechanism": "oue"}
//	       {"name": "lat", "epsilon": 1, "buckets": 256, "epoch": "1m", "retain": 12}
//	GET    /v1/streams/{name}             one stream's info, config and links
//	DELETE /v1/streams/{name}             retire a stream
//	POST   /v1/streams/{name}/report      {"report": 0.1234} or {"report": [3, 17, 40]}
//	POST   /v1/streams/{name}/batch       {"reports": [0.1, 0.2]}
//	GET    /v1/streams/{name}/estimate    reconstruction + statistics (?window=last:6)
//	GET    /v1/streams/{name}/query       ?type=quantile&q=0.5,0.9 (&window=epochs:3..7)
//	POST   /v1/streams/{name}/query       {"queries": [...]}: batched analytics
//	GET    /v1/streams/{name}/config      effective stream configuration
//	GET    /v1/streams/{name}/diagnostics estimate quality
//	GET    /v1/diagnostics                every stream's estimate quality
//
// Operational endpoints (exempt from admission control):
//
//	GET /metrics   Prometheus text exposition, format 0.0.4 (see Ops below)
//	GET /healthz   liveness: the estimation engine is ticking
//	GET /readyz    readiness: snapshot restore has completed
//
// Every non-2xx response — including federation rejections and admission
// sheds — carries the uniform envelope
// {"error": {"code": "...", "message": "...", "retry_after_ms": N}}; the
// stable code catalog lives in errors.go.
//
// # Mechanisms
//
// Every stream runs one reporting mechanism from package mechanism,
// declared as "mechanism" on POST /v1/streams (or mech= in the ldpserver
// -stream flag): the continuous Square Wave "sw" (the paper's contribution
// and the default), the discrete "sw-discrete", and the categorical
// frequency oracles "grr", "oue", "sue", "olh" and "hrr". "auto" picks the
// lower-variance oracle for the stream's (ε, d) by the Section 4.1 rule —
// GRR when d−2 < 3e^ε, OLH otherwise — at declaration. Wire reports are
// bare numbers for scalar mechanisms and small arrays for the rest (see
// WireReport); each stream's histogram accumulates the mechanism's exact
// sufficient statistic, and the engine reconstructs through EM/EMS when the
// mechanism has a transition channel or through the direct debiased
// estimate plus Norm-Sub projection when it does not.
//
// # Architecture
//
// A server hosts any number of named attribute streams, each with its own
// domain, privacy budget and granularity — one survey server can collect
// ages, incomes and session lengths at once. Every stream's report
// histogram is an epoch ring (package window) whose live epoch is a striped
// atomic histogram (package aggregate). A plain stream is a ring whose one
// epoch never seals; a windowed stream's ring rotates (see Windowed
// collection). Ingest, refresh, federation absorb and push, and snapshots
// all run the same ring code for both; plain and windowed differ only where
// epochs are visible outside — window selectors, config and stream info,
// snapshot records and federation fingerprints — and there the declared
// epoch decides. Ingestion and estimation are decoupled so neither blocks
// the other: reports land in the live epoch under the ring's shared lock,
// with no contended counter on the request path, while a pool of refresh
// workers (Config.RefreshWorkers, default GOMAXPROCS) drains a
// staleness-ordered dirty queue: every tick the scheduler enqueues every
// stream, rotation-due and forced refreshes jump the queue (a plain ring
// is never rotation-due), and otherwise the stream with the most
// unpublished reports goes first. Each worker re-runs the EMS
// reconstruction warm-started from that stream's previous estimate into a
// per-stream reusable workspace (zero allocations once warm); a per-stream
// busy flag keeps refreshes of one stream serialized, so results are
// bit-identical to the old single-goroutine engine regardless of pool size.
// The estimate and query endpoints never run EM on a request goroutine:
// they serve the cached reconstruction (503 with pending_reports while the
// very first one is still being computed) and report how many reports
// arrived after it.
//
// # Windowed collection
//
// A stream declared with an epoch duration becomes a time-series: its ring's
// live histogram rotates into a sealed epoch every period (driven by the
// engine's clock), the last Retain sealed epochs are kept, and any
// contiguous retained range is addressable with window=last:K or
// window=epochs:i..j on the estimate and query endpoints. A plain stream
// answers such selectors with 400 not_windowed. Window reconstructions are
// also engine-computed and cached — the first request for a range answers
// 503 and wakes the engine, which merges the range's epochs and runs EMS
// warm-started from that window's previous estimate (or its one-epoch-back
// neighbor after a rotation, or the stream's full-range estimate). A
// fully-sealed range is immutable, so its cached estimate never recomputes.
//
// SaveSnapshot/LoadSnapshot persist every stream's histogram and cached
// estimate through package snapshot (atomic temp-file rename, checksummed),
// so a restarted collector resumes warm; windowed streams additionally
// persist rotation clock, sealed epochs and window estimates, so restarts
// resume mid-epoch with bit-identical window answers. The ring ↔ record
// conversion and the restore rule live in package snapshot, shared with
// the library's Streams registry; cmd/ldpserver wires this to the
// -snapshot flag.
//
// # Ops
//
// OpsConfig turns on the operational surface: a zero-dependency Prometheus
// exposition on GET /metrics (ingest rates per stream and mechanism, EM
// refresh latency and staleness, epoch rotations, snapshot durations,
// federation push lag and replay/drop counters per edge), liveness and
// readiness probes, structured request logging, a global token-bucket
// admission limiter plus a per-edge tier for federation pushes, and a bound
// on request bodies. Shed requests answer 429 with an honest Retry-After
// before they ever touch the engine; sheds are themselves counted in
// /metrics (ldp_shed_total).
package ldphttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/em"
	"repro/internal/federate"
	"repro/internal/histogram"
	"repro/internal/mechanism"
	"repro/internal/ratelimit"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/window"
)

// DefaultStream is the name of the stream every server starts with, declared
// from Config's mechanism parameters.
const DefaultStream = "default"

// Config mirrors the default stream's mechanism parameters plus server-side
// tuning knobs (omitted from /config when zero).
type Config struct {
	// Epsilon is the LDP budget.
	Epsilon float64 `json:"epsilon"`
	// Buckets is the reconstruction granularity.
	Buckets int `json:"buckets"`
	// Mechanism selects the default stream's reporting mechanism ("" =
	// "sw"; "auto" resolves to the lower-variance categorical oracle for
	// the stream's (ε, d) at creation).
	Mechanism string `json:"mechanism,omitempty"`
	// Bandwidth is the wave half-width (0 = optimal; sw family only).
	Bandwidth float64 `json:"bandwidth"`
	// Shards overrides the ingestion stripe count (0 = one per CPU,
	// rounded up to a power of two).
	Shards int `json:"shards,omitempty"`
	// RefreshWorkers sets how many background refresh workers drain the
	// staleness-ordered refresh queue concurrently — streams re-estimate
	// in parallel, each stream still strictly serialized. 0 uses
	// runtime.GOMAXPROCS(0); negative forces a single worker.
	RefreshWorkers int `json:"-"`
	// RefreshInterval is the cadence at which the background estimator
	// re-checks every stream for new reports (0 = 500ms). Estimate and
	// query requests that find a cache missing also wake it immediately.
	RefreshInterval time.Duration `json:"-"`
	// Epoch and Retain window the default stream (see StreamConfig). They
	// apply to the default stream only; other streams opt into windowing
	// per declaration.
	Epoch  time.Duration `json:"-"`
	Retain int           `json:"-"`
	// Clock overrides the rotation clock (nil = time.Now). Tests drive a
	// mock clock through it; rotation advances on the engine's cadence.
	Clock func() time.Time `json:"-"`
	// Federation configures the root side of the federation tier (see
	// POST /federation/push): whether this server accepts delta pushes
	// from edge collectors, and whether it auto-declares streams it does
	// not host yet from the pushed fingerprints.
	Federation FederationConfig `json:"-"`
	// Ops configures telemetry, probes, logging and admission control.
	Ops OpsConfig `json:"-"`
}

// OpsConfig bundles the operational knobs. The zero value is a server with
// telemetry on and everything else off: metrics and probes always answer,
// but nothing is shed, bounded, or logged until asked.
type OpsConfig struct {
	// DisableTelemetry skips metric registration and all per-request
	// instrumentation (benchmark baselines); /metrics then answers 404.
	DisableTelemetry bool
	// MaxBodyBytes bounds every request body except federation pushes,
	// which keep their own 64 MiB cap (deltas are legitimately large).
	// Oversized bodies answer 413 body_too_large. 0 = unbounded.
	MaxBodyBytes int64
	// RateLimit is the global admission rate in requests per second over
	// every non-operational endpoint; 0 = unlimited. RateBurst is the
	// bucket depth (0 = 2×RateLimit, minimum 1). Requests beyond the
	// bucket are shed with 429 rate_limited and a Retry-After before they
	// reach the engine.
	RateLimit float64
	RateBurst float64
	// EdgeRateLimit is a second admission tier for POST /federation/push,
	// one bucket per pushing edge, so a runaway edge collector cannot
	// starve its fleet; 0 = unlimited. EdgeRateBurst as above.
	EdgeRateLimit float64
	EdgeRateBurst float64
	// AccessLog, when non-nil, receives one structured line per request:
	// key=value pairs, or JSON objects when LogJSON is set.
	AccessLog io.Writer
	LogJSON   bool
	// AwaitRestore starts the server unready: GET /readyz answers 503
	// not_ready until LoadSnapshot succeeds or MarkReady is called.
	// cmd/ldpserver sets it when a -snapshot path is configured.
	AwaitRestore bool
	// MaxSeriesPerFamily caps the label-set count of every metric family,
	// so a stream-declaration storm cannot grow /metrics memory and
	// scrape latency without bound; over-cap series fold into a
	// "~overflow" bucket (see telemetry.Options). 0 = the default of
	// 1024; negative = unbounded.
	MaxSeriesPerFamily int
	// Drift tunes the per-stream drift-alert state machine (zero value =
	// the diagnose package defaults).
	Drift diagnose.DriftConfig
	// Trace configures the tracing subsystem (on by default; see
	// TraceConfig).
	Trace TraceConfig
}

// FederationConfig is the root-side federation surface. Both knobs are
// opt-in: a server that never asked to be a root rejects pushes outright.
type FederationConfig struct {
	// Accept serves POST /federation/push.
	Accept bool
	// AutoDeclare creates unknown streams from the fingerprint an edge
	// pushes, so a fleet of edges can sync their stream declarations to
	// the root without an operator pre-declaring every stream.
	AutoDeclare bool
}

// StreamConfig is the per-stream subset of Config. Zero fields inherit the
// server defaults (Epoch/Retain excepted: windowing is opt-in per stream).
type StreamConfig struct {
	Epsilon float64 `json:"epsilon"`
	Buckets int     `json:"buckets"`
	// Mechanism selects the stream's reporting mechanism: "sw" (default),
	// "sw-discrete", "grr", "oue", "sue", "olh", "hrr", or "auto" (pick
	// the lower-variance categorical oracle for this (ε, d)). "auto"
	// resolves at creation; the stream always reports its concrete
	// mechanism afterwards.
	Mechanism string  `json:"mechanism,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	// Epoch, when positive, makes the stream epoch-rotated: its live
	// histogram seals every Epoch and sliding-window estimates become
	// addressable with window=last:K / window=epochs:i..j selectors.
	// Retain bounds how many sealed epochs are kept (0 = 8). Windowing is
	// fixed at stream creation; redeclaring with different values is an
	// error, redeclaring with zero values inherits the existing ones.
	Epoch  Duration `json:"epoch,omitempty"`
	Retain int      `json:"retain,omitempty"`
}

// windowed reports whether the configuration asks for epoch rotation.
func (c StreamConfig) windowed() bool { return c.Epoch > 0 }

// stream is one named attribute: immutable mechanism state, its report
// histogram, and the engine's cached reconstructions. The histogram is
// always an epoch ring; a plain stream's ring has one epoch that never
// seals. The ring is fixed at construction, so request handlers read it
// without synchronization.
type stream struct {
	name string
	cfg  StreamConfig
	agg  *core.Aggregator // immutable channel + EM config; counts unused
	ring *window.Ring     // report histogram (plain: epoch 0 never seals)

	est       atomic.Pointer[EstimateResponse]
	published atomic.Int64 // reports covered by est

	// Window estimate cache: requests register resolved epoch ranges, the
	// engine reconstructs them (empty on plain streams).
	winMu sync.Mutex
	wins  map[window.Range]*windowCache

	// Refresh-scheduler state: queued dedupes queue entries, busy
	// serializes refresh work per stream (one worker at a time — the
	// acquire/release pair on busy also publishes the scratch buffers
	// below between workers).
	queued atomic.Bool
	busy   atomic.Bool

	// Worker-owned scratch (guarded by busy): warm-start vector,
	// snapshot/merge buffers, and the reusable EM workspace — a warm
	// refresh allocates only the published estimate copy.
	init       []float64
	scratch    []float64
	winScratch []float64
	ws         em.Workspace
	// Telemetry handles, resolved once at stream creation so the ingest
	// hot path is a single atomic add. All nil when telemetry is disabled.
	mReports    *telemetry.Counter
	mRefresh    *telemetry.Histogram
	mIters      *telemetry.Histogram
	mStaleness  *telemetry.Gauge
	mRefreshAge *telemetry.Gauge
	mRotations  *telemetry.Counter
	// mRefreshes counts published refreshes by trigger, pre-resolved per
	// reason (indexed by refreshGrowth/refreshRotation/refreshForced).
	mRefreshes [3]*telemetry.Counter
	// diag accumulates the stream's estimate-quality record; the engine
	// writes it at refresh/seal time, the diagnostics endpoints and the
	// quality gauges below read it. Never nil.
	diag *diagnose.Tracker
	// Quality gauges, written at publish time so scrapes stay O(series):
	// mLoglik only for EM-reconstructed streams, the drift pair and the
	// alert counter only for windowed ones; nil otherwise (and when
	// telemetry is disabled).
	mLoglik      *telemetry.Gauge
	mCIHalf      *telemetry.Gauge
	mConverged   *telemetry.Gauge
	mDriftW1     *telemetry.Gauge
	mDriftKS     *telemetry.Gauge
	mDriftAlerts *telemetry.Counter
	// driftScratch is the engine-owned merge buffer for sealed-epoch
	// drift reconstructions (guarded by busy, like the buffers above).
	driftScratch []float64
	// lastRefresh is the wall-clock nanos of the last published estimate
	// (0 = none yet); the scrape hook derives refresh age from it.
	lastRefresh atomic.Int64
	// mustRefresh forces the next re-estimate after a rotation (age-out
	// can change the population without changing its size, so the count
	// comparison alone is not enough). Atomic because both the engine and
	// the federation push handler rotate rings.
	mustRefresh atomic.Bool
	// links holds recent sampled ingest trace IDs for the federation
	// pusher to forward (X-LDP-Trace-Link), so a Reporter-stamped trace
	// stays findable at the root after aggregation.
	links traceLinkRing
}

// histShards is the effective ingestion stripe count.
func (st *stream) histShards() int {
	if st.cfg.Shards > 0 {
		return st.cfg.Shards
	}
	return aggregate.DefaultShards()
}

// Server hosts named streams behind an http.Handler, with one shared
// background estimation engine.
type Server struct {
	cfg     Config
	refresh time.Duration
	now     func() time.Time // rotation clock (time.Now unless overridden)

	mu      sync.RWMutex
	streams map[string]*stream
	order   []*stream // declaration order

	rq             refreshQueue // staleness-ordered dirty-stream queue
	refreshWorkers int          // resolved refresh pool size

	kick      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	snapMu    sync.Mutex // serializes SaveSnapshot

	// Federation state. fedMu serializes push application against snapshot
	// capture, so a snapshot's histograms and peer watermarks are always
	// mutually consistent (lock order: snapMu → fedMu → mu).
	fedMu   sync.Mutex
	peers   map[string]*peerState
	tracker *federate.Tracker
	pusher  *federate.Pusher
	// restoredCursor stashes an edge push cursor loaded from a snapshot
	// before EnablePush was called (boot order is declare → restore →
	// enable, but both orders work).
	restoredCursor *federate.CursorState

	// Operational state: telemetry registry and handles (nil when
	// disabled), admission buckets (nil when unlimited), probe state.
	metrics   *serverMetrics
	tracer    *trace.Tracer // flight recorder (nil when tracing is disabled)
	slowReq   time.Duration // slow-request log threshold (0 = off)
	limiter   *ratelimit.Bucket
	edgeLim   *ratelimit.Keyed
	maxBody   int64
	accessLog io.Writer
	logJSON   bool
	logMu     sync.Mutex   // serializes access-log writes
	ready     atomic.Bool  // readiness probe state
	lastTick  atomic.Int64 // wall-clock nanos of the engine's last loop pass
	started   time.Time
}

// NewServer builds a collection server with its default stream and starts
// the background refresh scheduler and its worker pool. Call Close when done
// with the server to stop them.
func NewServer(cfg Config) *Server {
	refreshWorkers := cfg.RefreshWorkers
	if refreshWorkers == 0 {
		refreshWorkers = runtime.GOMAXPROCS(0)
	}
	if refreshWorkers < 1 {
		refreshWorkers = 1
	}
	refresh := cfg.RefreshInterval
	if refresh <= 0 {
		refresh = 500 * time.Millisecond
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		cfg:            cfg,
		refresh:        refresh,
		refreshWorkers: refreshWorkers,
		now:            clock,
		streams:        make(map[string]*stream),
		peers:          make(map[string]*peerState),
		kick:           make(chan struct{}, 1),
		done:           make(chan struct{}),
		maxBody:        cfg.Ops.MaxBodyBytes,
		accessLog:      cfg.Ops.AccessLog,
		logJSON:        cfg.Ops.LogJSON,
		started:        time.Now(),
	}
	s.rq.cond = sync.NewCond(&s.rq.mu)
	s.ready.Store(!cfg.Ops.AwaitRestore)
	s.lastTick.Store(time.Now().UnixNano())
	if lim := cfg.Ops.RateLimit; lim > 0 {
		s.limiter = ratelimit.New(lim, admissionBurst(lim, cfg.Ops.RateBurst))
	}
	if lim := cfg.Ops.EdgeRateLimit; lim > 0 {
		s.edgeLim = ratelimit.NewKeyed(lim, admissionBurst(lim, cfg.Ops.EdgeRateBurst))
	}
	if !cfg.Ops.DisableTelemetry {
		s.metrics = newServerMetrics(s)
	}
	if tc := cfg.Ops.Trace; !tc.Disable {
		s.tracer = trace.New(trace.Config{Capacity: tc.Capacity, SampleEvery: tc.SampleEvery})
		s.slowReq = tc.SlowRequest
	}
	if err := s.CreateStream(DefaultStream, StreamConfig{
		Epsilon:   cfg.Epsilon,
		Buckets:   cfg.Buckets,
		Mechanism: cfg.Mechanism,
		Bandwidth: cfg.Bandwidth,
		Shards:    cfg.Shards,
		Epoch:     Duration(cfg.Epoch),
		Retain:    cfg.Retain,
	}); err != nil {
		// The registry is empty and the name valid, so this only fires on
		// an unusable Config (non-positive epsilon, retain without epoch) —
		// the same contract core.Config has always had.
		panic(err)
	}
	s.wg.Add(1 + refreshWorkers)
	go s.scheduler()
	for i := 0; i < refreshWorkers; i++ {
		go s.refreshWorker()
	}
	return s
}

// newStream builds the immutable per-stream machinery. The histogram is an
// epoch ring born in epoch 0 at the server clock's now — rotating for a
// windowed configuration, never sealing for a plain one. Retain is filled
// to its default here so the stored cfg always carries the effective
// retention.
func (s *Server) newStream(name string, cfg StreamConfig) *stream {
	agg := core.NewAggregator(core.Config{
		Epsilon:   cfg.Epsilon,
		Buckets:   cfg.Buckets,
		Mechanism: cfg.Mechanism,
		Bandwidth: cfg.Bandwidth,
		Smoothing: true,
	})
	// fillStreamDefaults validated the window options, so New cannot panic.
	ring := window.New(agg.OutputBuckets(), cfg.Shards,
		window.Config{Epoch: time.Duration(cfg.Epoch), Retain: cfg.Retain}, s.now())
	cfg.Retain = ring.Config().Retain
	st := &stream{name: name, cfg: cfg, agg: agg, ring: ring, wins: make(map[window.Range]*windowCache)}
	st.diag = diagnose.NewTracker(diagnose.TrackerConfig{
		Mechanism: cfg.Mechanism,
		Epsilon:   cfg.Epsilon,
		Buckets:   cfg.Buckets,
		EMBased:   agg.Channel() != nil,
		Windowed:  cfg.windowed(),
		Drift:     s.cfg.Ops.Drift,
	})
	if m := s.metrics; m != nil {
		st.mReports = m.reports.With(name, cfg.Mechanism)
		st.mRefresh = m.emRefresh.With(name)
		st.mIters = m.emIters.With(name)
		st.mStaleness = m.emStaleness.With(name)
		st.mRefreshAge = m.emRefreshAge.With(name)
		st.mRotations = m.rotations.With(name)
		for r, reason := range refreshReasons {
			st.mRefreshes[r] = m.refreshes.With(name, reason)
		}
		st.mCIHalf = m.estCI.With(name)
		st.mConverged = m.emConverged.With(name)
		if agg.Channel() != nil {
			st.mLoglik = m.estLoglik.With(name)
		}
		if cfg.windowed() {
			st.mDriftW1 = m.driftScore.With(name, "w1")
			st.mDriftKS = m.driftScore.With(name, "ks")
			st.mDriftAlerts = m.driftAlerts.With(name)
		}
	}
	return st
}

// fillStreamDefaults resolves zero fields against the server defaults and
// validates the result.
func (s *Server) fillStreamDefaults(cfg StreamConfig) (StreamConfig, error) {
	if cfg.Epsilon == 0 {
		cfg.Epsilon = s.cfg.Epsilon
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = s.cfg.Buckets
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 1024 // the library-wide default granularity
	}
	if cfg.Shards == 0 {
		cfg.Shards = s.cfg.Shards
	}
	if cfg.Mechanism == "" {
		cfg.Mechanism = s.cfg.Mechanism
	}
	if cfg.Epsilon <= 0 {
		return cfg, fmt.Errorf("ldphttp: stream epsilon must be positive, got %v", cfg.Epsilon)
	}
	if cfg.Buckets < 2 {
		return cfg, fmt.Errorf("ldphttp: stream needs at least 2 buckets, got %d", cfg.Buckets)
	}
	if cfg.Buckets > mechanism.MaxBuckets {
		return cfg, fmt.Errorf("ldphttp: stream allows at most %d buckets, got %d", mechanism.MaxBuckets, cfg.Buckets)
	}
	if !mechanism.Valid(cfg.Mechanism) {
		return cfg, fmt.Errorf("ldphttp: unknown stream mechanism %q (want one of %v, or auto)",
			cfg.Mechanism, mechanism.Names())
	}
	// "auto" (and "") resolve at declaration, so the stream's configuration,
	// config echo, and snapshots always carry the concrete mechanism.
	mech, err := mechanism.Resolve(cfg.Mechanism, cfg.Epsilon, cfg.Buckets)
	if err != nil {
		return cfg, fmt.Errorf("ldphttp: %v", err)
	}
	cfg.Mechanism = mech
	if cfg.Bandwidth < 0 || cfg.Bandwidth > 2 {
		return cfg, fmt.Errorf("ldphttp: stream bandwidth %v out of range [0, 2]", cfg.Bandwidth)
	}
	if cfg.Bandwidth != 0 && mech != mechanism.SW && mech != mechanism.SWDiscrete {
		return cfg, fmt.Errorf("ldphttp: bandwidth only applies to the sw family, not %q", mech)
	}
	if cfg.Epoch < 0 {
		return cfg, fmt.Errorf("ldphttp: stream epoch %v must not be negative", time.Duration(cfg.Epoch))
	}
	if cfg.Retain != 0 && !cfg.windowed() {
		return cfg, fmt.Errorf("ldphttp: stream retain %d needs an epoch duration", cfg.Retain)
	}
	if cfg.windowed() {
		if _, err := (window.Config{Epoch: time.Duration(cfg.Epoch), Retain: cfg.Retain}).Validate(); err != nil {
			return cfg, fmt.Errorf("ldphttp: %v", err)
		}
	}
	return cfg, nil
}

// ErrStreamConfigMismatch is wrapped by CreateStream when a stream already
// exists with different parameters.
var ErrStreamConfigMismatch = fmt.Errorf("stream exists with different configuration")

// CreateStream declares a named stream. Declaring an existing stream with
// the same mechanism parameters (mechanism, ε, buckets, and bandwidth
// compared by its effective value — mechanism.EffectiveBandwidth) is a
// no-op — Shards
// is a pure ingestion-performance knob and is deliberately ignored, so a
// restart with a different -shards value still accepts matching -stream
// flags against snapshot-restored streams. Different mechanism parameters
// are an error (the report histogram of the live stream would be
// meaningless under the new mechanism).
func (s *Server) CreateStream(name string, cfg StreamConfig) error {
	_, _, err := s.createStream(name, cfg)
	return err
}

// createStream is CreateStream returning the stream the name resolves to
// and whether this call created it. Both are decided under one hold of the
// registry lock, so a concurrent declare or DropStream cannot change the
// answer before the caller uses it.
func (s *Server) createStream(name string, cfg StreamConfig) (*stream, bool, error) {
	if !snapshot.ValidStreamName(name) {
		return nil, false, fmt.Errorf("ldphttp: invalid stream name %q (want 1-64 bytes with no control characters)", name)
	}
	cfg, err := s.fillStreamDefaults(cfg)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.streams[name]; ok {
		if existing.cfg.Epsilon != cfg.Epsilon || existing.cfg.Buckets != cfg.Buckets ||
			existing.cfg.Mechanism != cfg.Mechanism ||
			mechanism.EffectiveBandwidth(existing.cfg.Mechanism, existing.cfg.Epsilon, existing.cfg.Bandwidth) !=
				mechanism.EffectiveBandwidth(cfg.Mechanism, cfg.Epsilon, cfg.Bandwidth) {
			return nil, false, fmt.Errorf("ldphttp: %w: %q has %+v, requested %+v",
				ErrStreamConfigMismatch, name, existing.cfg, cfg)
		}
		// Windowing is fixed at stream creation: zero Epoch/Retain inherit
		// whatever the stream has, non-zero values must match it exactly.
		if cfg.windowed() {
			if !existing.cfg.windowed() {
				return nil, false, fmt.Errorf("ldphttp: %w: %q is not windowed; drop and redeclare it to enable epochs",
					ErrStreamConfigMismatch, name)
			}
			if existing.cfg.Epoch != cfg.Epoch ||
				(cfg.Retain != 0 && existing.cfg.Retain != cfg.Retain) {
				return nil, false, fmt.Errorf("ldphttp: %w: %q rotates every %v retaining %d, requested %v/%d",
					ErrStreamConfigMismatch, name, time.Duration(existing.cfg.Epoch),
					existing.cfg.Retain, time.Duration(cfg.Epoch), cfg.Retain)
			}
		}
		return existing, false, nil
	}
	st := s.newStream(name, cfg)
	s.streams[name] = st
	s.order = append(s.order, st)
	return st, true, nil
}

// DropStream retires a named stream: it disappears from the registry, the
// engine's rotation and future snapshots, and its reports are discarded.
// Dropping the default stream is allowed (it then answers 404 like any
// unknown stream) — an operator who never uses it can reclaim it.
// In-flight requests that already resolved the stream finish against its
// final state.
func (s *Server) DropStream(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[name]
	if !ok {
		return fmt.Errorf("ldphttp: unknown stream %q", name)
	}
	delete(s.streams, name)
	for i, o := range s.order {
		if o == st {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}

// lookup resolves a stream name ("" means the default stream).
func (s *Server) lookup(name string) *stream {
	if name == "" {
		name = DefaultStream
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.streams[name]
}

// streamList snapshots the declaration-ordered stream slice.
func (s *Server) streamList() []*stream {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*stream(nil), s.order...)
}

// StreamInfo is one row of GET /v1/streams (and the whole body of GET
// /v1/streams/{name}). Epsilon/Buckets/Mechanism/Bandwidth/Shards echo the
// declaration; Config carries the full resolved configuration — identical
// field for field to GET /v1/streams/{name}/config — so the list view and
// the item view can never diverge again.
type StreamInfo struct {
	Name      string  `json:"name"`
	Epsilon   float64 `json:"epsilon"`
	Buckets   int     `json:"buckets"`
	Mechanism string  `json:"mechanism"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	// N is the number of reports still visible to estimates (for a
	// windowed stream, reports in aged-out epochs no longer count);
	// EstimateN the number covered by the cached reconstruction (0 = none
	// yet).
	N         int `json:"n"`
	EstimateN int `json:"estimate_n"`
	// Window carries the epoch-rotation state of a windowed stream.
	Window *WindowInfo `json:"window,omitempty"`
	// Config is the stream's effective configuration, every value resolved.
	Config ConfigResponse `json:"config"`
	// Links locates the stream's v1 subresources.
	Links StreamLinks `json:"links"`
}

// StreamLinks are the v1 URLs of one stream's resources.
type StreamLinks struct {
	Self        string `json:"self"`
	Report      string `json:"report"`
	Estimate    string `json:"estimate"`
	Query       string `json:"query"`
	Config      string `json:"config"`
	Diagnostics string `json:"diagnostics"`
}

func streamLinks(name string) StreamLinks {
	base := "/v1/streams/" + url.PathEscape(name)
	return StreamLinks{
		Self:        base,
		Report:      base + "/report",
		Estimate:    base + "/estimate",
		Query:       base + "/query",
		Config:      base + "/config",
		Diagnostics: base + "/diagnostics",
	}
}

// users reads the report (user) count visible to estimates. Fan-out
// mechanisms (oue/sue, olh) track it in their marker cell — by convention
// the last output cell — read directly in O(shards) without merging the
// histogram, so this is safe on the ingest-acknowledgement hot path;
// everything else counts increments, also O(shards).
func (st *stream) users() int {
	n := st.ring.N()
	if n == 0 || !st.agg.Mechanism().FanOut() {
		return n
	}
	return st.ring.Cell(st.ring.Buckets() - 1)
}

// streamInfo assembles one stream's info row.
func (s *Server) streamInfo(st *stream) StreamInfo {
	estN := 0
	if est := st.est.Load(); est != nil {
		estN = est.N
	}
	return StreamInfo{
		Name:      st.name,
		Epsilon:   st.cfg.Epsilon,
		Buckets:   st.cfg.Buckets,
		Mechanism: st.cfg.Mechanism,
		Bandwidth: st.cfg.Bandwidth,
		Shards:    st.cfg.Shards,
		N:         st.users(),
		EstimateN: estN,
		Window:    st.windowInfo(),
		Config:    s.configOf(st),
		Links:     streamLinks(st.name),
	}
}

// Streams lists every stream in declaration order.
func (s *Server) Streams() []StreamInfo {
	list := s.streamList()
	infos := make([]StreamInfo, len(list))
	for i, st := range list {
		infos[i] = s.streamInfo(st)
	}
	return infos
}

// N returns the total number of reports (users) visible across every
// stream.
func (s *Server) N() int {
	var n int
	for _, st := range s.streamList() {
		n += st.users()
	}
	return n
}

// StreamN returns the report (user) count of one stream ("" = default), or
// -1 if the stream does not exist.
func (s *Server) StreamN(name string) int {
	st := s.lookup(name)
	if st == nil {
		return -1
	}
	return st.users()
}

// Close stops the refresh scheduler and its worker pool and waits for them
// to exit. The handler keeps accepting reports after Close, but estimates
// are no longer refreshed.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.rq.close()
	})
	s.wg.Wait()
}

// wake nudges the refresh scheduler without blocking.
func (s *Server) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Refresh trigger taxonomy, exported as the reason label of
// ldp_em_refreshes_total. Indexes into stream.mRefreshes.
const (
	refreshGrowth   = iota // the visible histogram grew
	refreshRotation        // an epoch rotated during this pass
	refreshForced          // mustRefresh was set externally (federation, age-out)
)

var refreshReasons = [3]string{"growth", "rotation", "forced"}

// refreshQueue is the dirty-stream queue between the scheduler and the
// worker pool. Entries are deduped by stream.queued; workers pop the
// highest-priority entry (see popLocked), not FIFO.
type refreshQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*stream
	closed bool
}

func (q *refreshQueue) push(st *stream) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, st)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *refreshQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth reports the number of queued streams (the scrape-time gauge).
func (q *refreshQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// pop blocks for the next stream to refresh, false when the queue is
// closed. The most urgent entry wins: streams that must refresh (rotation
// due, or an external mustRefresh) beat the rest, then larger staleness
// (reports not yet covered by the published estimate) beats smaller.
func (q *refreshQueue) pop(s *Server) (*stream, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	best, bestBoost, bestStale := 0, false, int64(0)
	for i, st := range q.items {
		boost, stale := s.refreshPriority(st)
		if i == 0 || (boost && !bestBoost) || (boost == bestBoost && stale > bestStale) {
			best, bestBoost, bestStale = i, boost, stale
		}
	}
	st := q.items[best]
	last := len(q.items) - 1
	q.items[best] = q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	return st, true
}

// refreshPriority ranks one queued stream: a boolean urgency boost (an
// epoch rotation is due, or something forced the next refresh) and the
// staleness in histogram increments.
func (s *Server) refreshPriority(st *stream) (boost bool, staleness int64) {
	boost = st.mustRefresh.Load() || st.ring.RotationDue(s.now())
	return boost, int64(st.ring.N()) - st.published.Load()
}

// scheduler is the refresh pacemaker: on every tick (or wake) it stamps the
// liveness clock and enqueues every stream not already queued; the worker
// pool does the actual re-estimation. Every stream is enqueued — not just
// visibly-dirty ones — because rotation clocks and window caches advance
// inside the refresh pass itself, exactly as the old single-goroutine
// engine walked all streams each tick.
func (s *Server) scheduler() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.refresh)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-s.kick:
		case <-ticker.C:
		}
		s.lastTick.Store(time.Now().UnixNano())
		for _, st := range s.streamList() {
			if st.queued.CompareAndSwap(false, true) {
				s.rq.push(st)
			}
		}
	}
}

// refreshWorker drains the refresh queue. Per-stream work is serialized by
// the busy flag: a stream already being refreshed is skipped (the next tick
// re-enqueues it), so workers parallelize across streams, never within one.
func (s *Server) refreshWorker() {
	defer s.wg.Done()
	for {
		st, ok := s.rq.pop(s)
		if !ok {
			return
		}
		st.queued.Store(false)
		if !st.busy.CompareAndSwap(false, true) {
			continue
		}
		s.refreshStream(st)
		st.busy.Store(false)
	}
}

// refreshStream advances the stream's rotation clock (a no-op on a plain
// stream), re-estimates the stream if its visible histogram changed since
// the last published estimate (growth, or epochs aging out), and refreshes
// any requested window estimates. Refresh workers only, one per stream at a
// time (the busy flag): the stream's scratch buffers and EM workspace are
// theirs for the duration.
func (s *Server) refreshStream(st *stream) {
	reason := refreshGrowth
	// Rotation holds the registry read-lock: LoadSnapshot (exclusive lock)
	// can therefore never observe a ring rotating between its validation and
	// its adopt, which keeps restores all-or-nothing.
	s.mu.RLock()
	rotated := st.ring.Advance(s.now())
	s.mu.RUnlock()
	if rotated > 0 {
		reason = refreshRotation
		st.evictAgedWindows()
		st.mustRefresh.Store(true)
		if st.mRotations != nil {
			st.mRotations.Add(uint64(rotated))
		}
		epoch, _ := st.ring.Current()
		rsp := s.tracer.NewTrace("epoch/rotate")
		rsp.SetStream(st.name)
		rsp.Attr("rotated", fmt.Sprintf("%d", rotated)).
			Attr("epoch", fmt.Sprintf("%d", epoch)).End()
		s.scoreSealedEpoch(st, rotated)
	}
	defer s.refreshWindows(st)
	var n int
	st.scratch, n = st.ring.MergeAll(st.scratch)
	forced := st.mustRefresh.Load()
	if n == 0 || (int64(n) == st.published.Load() && !forced) {
		return
	}
	if forced && reason == refreshGrowth {
		reason = refreshForced
	}
	st.mustRefresh.Store(false)
	init := st.init
	if init == nil {
		// Warm-start from a snapshot-restored estimate when there is one.
		if prev := st.est.Load(); prev != nil && len(prev.Distribution) > 0 {
			init = prev.Distribution
		}
	}
	esp := s.tracer.NewTrace("em/refresh")
	esp.SetStream(st.name)
	esp.Attr("n", fmt.Sprintf("%d", n))
	emStart := time.Now()
	res := st.agg.EstimateInto(&st.ws, st.scratch, init)
	esp.Attr("iterations", fmt.Sprintf("%d", res.Iterations)).End()
	if st.mRefresh != nil {
		st.mRefresh.ObserveExemplar(time.Since(emStart).Seconds(), esp.TraceID())
	}
	if st.mIters != nil {
		st.mIters.Observe(float64(res.Iterations))
	}
	if c := st.mRefreshes[reason]; c != nil {
		c.Inc()
	}
	st.lastRefresh.Store(time.Now().UnixNano())
	st.init = append(st.init[:0], res.Estimate...)
	// res.Estimate aliases the stream's workspace; the published response
	// needs its own immutable copy.
	dist := append([]float64(nil), res.Estimate...)
	users := st.agg.Users(st.scratch, n)
	warm := init != nil && st.agg.Channel() != nil
	st.est.Store(&EstimateResponse{
		Stream:       st.name,
		N:            users,
		Epsilon:      st.cfg.Epsilon,
		Mechanism:    st.cfg.Mechanism,
		Distribution: dist,
		Mean:         histogram.Mean(dist),
		Variance:     histogram.Variance(dist),
		Median:       histogram.Quantile(dist, 0.5),
		Iterations:   res.Iterations,
		Converged:    res.Converged,
		WarmStart:    warm,
		raw:          n,
	})
	st.published.Store(int64(n))
	st.diag.ObserveRefresh(diagnose.Refresh{
		Iterations:    res.Iterations,
		LogLikelihood: res.LogLikelihood,
		LastDelta:     res.LastDelta,
		Converged:     res.Converged,
		Warm:          warm,
		Users:         users,
	})
	if st.mLoglik != nil {
		st.mLoglik.Set(res.LogLikelihood)
	}
	if st.mCIHalf != nil {
		v, _ := mechanism.Variance(st.cfg.Mechanism, st.cfg.Epsilon, st.cfg.Buckets, users)
		st.mCIHalf.Set(diagnose.HalfWidth(v))
	}
	if st.mConverged != nil {
		conv := 0.0
		if res.Converged {
			conv = 1
		}
		st.mConverged.Set(conv)
	}
}

// WireReport is one randomized report as it travels in JSON: either a bare
// number (scalar mechanisms — sw, sw-discrete, grr — and backward-compatible
// with every pre-mechanism client) or an array of numbers (olh: [seed, y];
// hrr: [row, ±1]; oue/sue: the set-bit indices, possibly empty).
type WireReport mechanism.Report

// UnmarshalJSON accepts a JSON number or an array of numbers.
func (r *WireReport) UnmarshalJSON(b []byte) error {
	var f float64
	if err := json.Unmarshal(b, &f); err == nil {
		*r = WireReport{f}
		return nil
	}
	var v []float64
	if err := json.Unmarshal(b, &v); err == nil {
		*r = v
		return nil
	}
	return fmt.Errorf("ldphttp: bad report %s (want a number or an array of numbers)", b)
}

// MarshalJSON renders scalar reports as bare numbers.
func (r WireReport) MarshalJSON() ([]byte, error) {
	if len(r) == 1 {
		return json.Marshal(r[0])
	}
	return json.Marshal([]float64(r))
}

// reportRequest and batchRequest are the JSON bodies of the report and
// batch endpoints. Stream is optional; when present it must name the
// stream the path addresses.
type reportRequest struct {
	Stream string     `json:"stream"`
	Report WireReport `json:"report"`
}

type batchRequest struct {
	Stream  string       `json:"stream"`
	Reports []WireReport `json:"reports"`
}

func (q *reportRequest) stream() string { return q.Stream }
func (q *batchRequest) stream() string  { return q.Stream }

// EstimateResponse is the JSON shape of GET /v1/streams/{name}/estimate.
type EstimateResponse struct {
	Stream string `json:"stream"`
	// N is the number of reports (users) the estimate covers.
	N         int     `json:"n"`
	Epsilon   float64 `json:"epsilon"`
	Mechanism string  `json:"mechanism,omitempty"`
	// Distribution is the reconstruction over the stream's Buckets.
	Distribution []float64 `json:"distribution"`
	Mean         float64   `json:"mean"`
	Variance     float64   `json:"variance"`
	Median       float64   `json:"median"`
	Iterations   int       `json:"iterations"`
	Converged    bool      `json:"converged"`
	// WarmStart reports whether the reconstruction was warm-started from
	// the previous estimate (false only for the first one).
	WarmStart bool `json:"warm_start"`
	// Restored reports that the estimate was loaded from a snapshot rather
	// than computed by this process.
	Restored bool `json:"restored,omitempty"`
	// PendingReports is the number of histogram increments ingested after
	// the served estimate was computed — the staleness of a cached
	// response. For one-cell-per-report mechanisms this equals the number
	// of pending reports; fan-out oracles (oue/sue, olh) count support-cell
	// increments, so it overstates the pending report count by the fan-out
	// factor. The background engine is already re-estimating when this is
	// non-zero.
	PendingReports int `json:"pending_reports,omitempty"`
	// Window and Epochs identify a sliding-window answer: the canonical
	// selector ("epochs:3..7") and the resolved inclusive epoch range. Both
	// are absent on whole-stream estimates.
	Window string      `json:"window,omitempty"`
	Epochs *EpochRange `json:"epochs,omitempty"`

	// raw is the histogram increment total the estimate covers — internal
	// staleness bookkeeping (published mirrors it), persisted to snapshots
	// as EstimateRaw. Equal to N except for fan-out mechanisms.
	raw int
}

// resolveStream finds the request's stream or writes a 404.
func (s *Server) resolveStream(w http.ResponseWriter, name string) *stream {
	st := s.lookup(name)
	if st == nil {
		errorJSON(w, http.StatusNotFound, CodeUnknownStream,
			"unknown stream %q (declare it with POST /v1/streams)", name)
	}
	return st
}

// cellPool recycles the bucket-cell scratch of the ingest hot path: every
// report and batch request needs a []int for Bucketize's output, and at
// high report rates those allocations dominate the handler. The striped
// histogram consumes the cells synchronously, so the buffer is free again
// when the handler returns.
var cellPool = sync.Pool{New: func() any { b := make([]int, 0, 256); return &b }}

// decodeIngest is the one decode path of the report and batch endpoints: it
// negotiates the codec, then decodes a binary frame into the returned
// reports, or the JSON body into req and checks req's stream against the
// path. frame is nil exactly when the body was JSON.
func (s *Server) decodeIngest(w http.ResponseWriter, r *http.Request, endpoint, name string,
	req interface{ stream() string }) (frame []WireReport, ok bool) {
	codec, ok := s.negotiateCodec(w, r, endpoint)
	if !ok {
		return nil, false
	}
	if codec == codecBinary {
		return readBinaryReports(w, r)
	}
	return nil, decodeJSON(w, r, req) && streamMatches(w, name, req.stream())
}

// handleReport serves POST /v1/streams/{name}/report. A binary frame must
// carry exactly one report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, name string) {
	var req reportRequest
	frame, ok := s.decodeIngest(w, r, "/v1/streams/{name}/report", name, &req)
	if !ok {
		return
	}
	if frame != nil {
		if len(frame) != 1 {
			errorJSON(w, http.StatusBadRequest, CodeBadRequest,
				"binary report frame carries %d reports; POST the frame to the batch endpoint", len(frame))
			return
		}
		req.Report = frame[0]
	}
	s.serveReport(w, name, req.Report)
}

// handleBatch serves POST /v1/streams/{name}/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, name string) {
	var req batchRequest
	frame, ok := s.decodeIngest(w, r, "/v1/streams/{name}/batch", name, &req)
	if !ok {
		return
	}
	if frame != nil {
		req.Reports = frame
	}
	s.serveBatch(w, name, req.Reports)
}

// serveReport bucketizes one report and lands it in the stream's histogram.
func (s *Server) serveReport(w http.ResponseWriter, name string, rep WireReport) {
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	sp := spanOf(w)
	sp.SetStream(st.name)
	bsp := sp.Child("bucketize")
	bufp := cellPool.Get().(*[]int)
	cells, err := st.agg.Bucketize((*bufp)[:0], mechanism.Report(rep))
	*bufp = cells[:0]
	bsp.End()
	if err != nil {
		cellPool.Put(bufp)
		sp.Fail(CodeBadRequest)
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	isp := sp.Child("ingest")
	if len(cells) == 1 {
		st.ring.Add(cells[0])
	} else {
		st.ring.AddBatch(cells)
	}
	isp.End()
	cellPool.Put(bufp)
	if st.mReports != nil {
		st.mReports.Inc()
	}
	if sp != nil {
		st.links.add(sp.TraceID())
	}
	writeJSON(w, map[string]any{"accepted": true, "stream": st.name, "n": st.users()})
}

// serveBatch validates a whole batch, then lands it in the stream's
// histogram.
func (s *Server) serveBatch(w http.ResponseWriter, name string, reports []WireReport) {
	if len(reports) == 0 {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "empty batch")
		return
	}
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	sp := spanOf(w)
	sp.SetStream(st.name)
	// Validate the whole batch before ingesting anything, so a bad report
	// in the middle cannot leave a half-applied batch behind.
	bsp := sp.Child("bucketize").Attr("reports", fmt.Sprintf("%d", len(reports)))
	bufp := cellPool.Get().(*[]int)
	buckets := (*bufp)[:0]
	defer func() {
		*bufp = buckets[:0]
		cellPool.Put(bufp)
	}()
	var err error
	for i, rep := range reports {
		if buckets, err = st.agg.Bucketize(buckets, mechanism.Report(rep)); err != nil {
			bsp.Fail(CodeBadRequest).End()
			errorJSON(w, http.StatusBadRequest, CodeBadRequest, "report %d: %v", i, err)
			return
		}
	}
	bsp.End()
	isp := sp.Child("ingest")
	st.ring.AddBatch(buckets)
	isp.End()
	if st.mReports != nil {
		st.mReports.Add(uint64(len(reports)))
	}
	if sp != nil {
		st.links.add(sp.TraceID())
	}
	writeJSON(w, map[string]any{"accepted": len(reports), "stream": st.name, "n": st.users()})
}

// loadEstimate fetches a stream's cached reconstruction for serving,
// handling the two not-ready cases uniformly for estimates and queries:
// 409 when the stream has no reports at all, 503 (with pending_reports and
// Retry-After, never blocking the client) while the first estimate is still
// being computed. The returned pending count is how many reports arrived
// after the cached estimate, clamped at zero — the engine can publish an
// estimate covering more reports than the count read here.
func (s *Server) loadEstimate(w http.ResponseWriter, st *stream) (cached *EstimateResponse, pending int, ok bool) {
	n := st.ring.N()
	if n == 0 {
		errorJSON(w, http.StatusConflict, CodeNoReports, "no reports yet on stream %q", st.name)
		return nil, 0, false
	}
	cached = st.est.Load()
	if cached == nil {
		// First estimate still pending: tell the client instead of
		// hanging, and make sure the engine is on it.
		s.wake()
		retryJSON(w, http.StatusServiceUnavailable, CodeEstimatePending, time.Second,
			map[string]any{"stream": st.name, "pending_reports": n},
			"estimate pending: first reconstruction in progress")
		return nil, 0, false
	}
	// Staleness is tracked in raw histogram increments (published), not the
	// user count the response carries — for fan-out mechanisms the two
	// differ.
	pub := int(st.published.Load())
	if pub != n {
		s.wake() // refresh in the background; serve the cache now
	}
	if n > pub {
		pending = n - pub
	}
	return cached, pending, true
}

// handleEstimate serves GET /v1/streams/{name}/estimate[?window=...].
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, name string) {
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	cached, pending, ok := s.loadEstimateOrWindow(w, st, r.URL.Query().Get("window"))
	if !ok {
		return
	}
	// The cached response is shared — copy, don't mutate.
	out := *cached
	out.PendingReports = pending
	writeJSON(w, out)
}

// StreamCreateResponse is the JSON shape of POST /v1/streams: the full
// effective configuration of the declared stream (identical to GET
// /v1/streams/{name}/config) plus whether this request created it.
// Re-declaring an existing stream with a compatible configuration is
// idempotent — 200 with the existing config — so a fleet of edge collectors
// can blindly sync their declarations to a root; only a genuinely
// conflicting configuration is refused with 409.
type StreamCreateResponse struct {
	ConfigResponse
	Created bool `json:"created"`
	// Links locates the created stream's v1 subresources, pre-escaped, so
	// clients never build (and possibly mis-escape) stream URLs themselves.
	Links StreamLinks `json:"links"`
}

// handleStreamList serves GET /v1/streams.
func (s *Server) handleStreamList(w http.ResponseWriter, _ *http.Request, _ string) {
	writeJSON(w, map[string]any{"streams": s.Streams()})
}

// handleStreamCreate serves POST /v1/streams.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request, _ string) {
	var req struct {
		Name string `json:"name"`
		StreamConfig
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	st, created, err := s.createStream(req.Name, req.StreamConfig)
	if err != nil {
		// 409 is reserved for a real configuration conflict with the
		// live stream; a malformed declaration is 400 whether or not
		// the name exists.
		status, code := http.StatusBadRequest, CodeBadRequest
		if errors.Is(err, ErrStreamConfigMismatch) {
			status, code = http.StatusConflict, CodeStreamConflict
		}
		errorJSON(w, status, code, "%v", err)
		return
	}
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	writeJSON(w, StreamCreateResponse{ConfigResponse: s.configOf(st), Created: created, Links: streamLinks(st.name)})
}

// handleStreamDelete serves DELETE /v1/streams/{name}.
func (s *Server) handleStreamDelete(w http.ResponseWriter, _ *http.Request, name string) {
	if err := s.DropStream(name); err != nil {
		errorJSON(w, http.StatusNotFound, CodeUnknownStream, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"dropped": name})
}

// handleStreamInfo serves GET /v1/streams/{name}.
func (s *Server) handleStreamInfo(w http.ResponseWriter, _ *http.Request, name string) {
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	writeJSON(w, s.streamInfo(st))
}

// ConfigResponse is the JSON shape of GET /v1/streams/{name}/config: the
// full effective configuration of one stream — every value resolved, not as
// declared — so a client can reproduce the stream's setup (or build a
// matching client mechanism) from this response alone.
type ConfigResponse struct {
	Stream    string  `json:"stream"`
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
	Buckets   int     `json:"buckets"`
	// OutputBuckets is the report-histogram granularity the mechanism
	// derived (equals Buckets for sw unless overridden).
	OutputBuckets int `json:"output_buckets"`
	// Bandwidth is the effective wave half-width as a domain fraction (sw
	// family only; the declared 0 = "optimal" comes back resolved).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Shards is the effective ingestion stripe count.
	Shards int `json:"shards"`
	// Epoch and Retain carry the windowing of an epoch-rotated stream.
	Epoch  Duration `json:"epoch,omitempty"`
	Retain int      `json:"retain,omitempty"`
}

// handleConfig serves GET /v1/streams/{name}/config.
func (s *Server) handleConfig(w http.ResponseWriter, _ *http.Request, name string) {
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	writeJSON(w, s.configOf(st))
}

// configOf assembles the full effective configuration of one stream.
func (s *Server) configOf(st *stream) ConfigResponse {
	params := st.agg.Mechanism().Params()
	return ConfigResponse{
		Stream:        st.name,
		Mechanism:     st.cfg.Mechanism,
		Epsilon:       st.cfg.Epsilon,
		Buckets:       st.cfg.Buckets,
		OutputBuckets: st.agg.OutputBuckets(),
		Bandwidth:     params.Bandwidth,
		Shards:        st.histShards(),
		Epoch:         st.cfg.Epoch,
		Retain:        st.cfg.Retain,
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing useful to do but log via the
		// standard error path of the server.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
