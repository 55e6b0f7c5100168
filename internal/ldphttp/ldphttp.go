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
// domain, privacy budget and granularity. The streams live in package
// engine, the one stream engine under this collector and the library's
// repro.Streams: it declares and validates them, holds them in a registry,
// reconstructs them, and saves and restores them. This package keeps the
// HTTP surface — routes, codecs, error envelopes, admission control, the
// federation protocol and the telemetry and trace wiring.
//
// Every stream's report histogram is an epoch ring (package window) whose
// live epoch is a striped atomic histogram: reports land under the ring's
// shared lock with no contended counter on the request path, while the
// engine's refresh workers (Config.RefreshWorkers, default GOMAXPROCS)
// drain a staleness-ordered queue — rotation-due and forced refreshes
// first, then the stream with the most unpublished reports. Each refresh
// re-runs EMS warm-started from the stream's previous estimate in a
// reusable workspace (zero allocations once warm), as SQUAREM cycles over
// the EMS map (em.Options.AccelerateWarm: about half the paper's map
// evaluations, equally close to its fixed point; Iterations counts map
// evaluations); the first, cold reconstruction runs the paper's loop. A
// per-stream busy flag serializes one stream's refreshes, so results are
// bit-identical for any pool size, and a refresh requested mid-refresh
// runs right after it. The estimate and query endpoints never run EM: they
// serve the cached reconstruction (503 with pending_reports while the
// first is computed) and report how many reports arrived after it.
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
// 503 and arms the stream's refresh, which merges the range's epochs and
// runs EMS warm-started from that window's previous estimate (or its
// one-epoch-back neighbor after a rotation, or the stream's full-range
// estimate). A fully-sealed range is immutable, so its cached estimate never
// recomputes.
//
// SaveSnapshot/LoadSnapshot persist every stream's histogram and cached
// estimate through package snapshot (atomic temp-file rename, checksummed),
// so a restarted collector resumes warm; windowed streams additionally
// persist rotation clock, sealed epochs and window estimates, so restarts
// resume mid-epoch with bit-identical window answers. The capture and the
// restore are the engine's, the same the library's Streams registry saves
// and loads through, so either loads the other's files; cmd/ldpserver
// wires this to the -snapshot flag.
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
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/federate"
	"repro/internal/mechanism"
	"repro/internal/ratelimit"
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
	// RefreshInterval is the backstop sweep at which the background
	// estimator re-checks every stream for new reports and due rotations
	// (0 = 500ms); the health probe reads its liveness from it. A stream an
	// estimate or query read found reports on within the last interval is
	// watched: its new reports, and its stale reads, refresh that stream
	// alone ten times its previous refresh's wall time after that refresh
	// started, never more than 10ms after (at once when that has passed).
	// Streams nobody reads, such as an edge's, refresh only on the sweep;
	// federation pushes and snapshot restores queue the streams they touch
	// at once.
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

// engineConfig converts a declaration for the engine, zero fields
// inheriting the server defaults (Epoch and Retain excepted: windowing is
// opt-in per stream). The engine's Config.Resolve validates the result.
func (s *Server) engineConfig(c StreamConfig) engine.Config {
	return engine.Config{
		Mechanism: cmp.Or(c.Mechanism, s.cfg.Mechanism),
		Epsilon:   cmp.Or(c.Epsilon, s.cfg.Epsilon),
		Buckets:   cmp.Or(c.Buckets, s.cfg.Buckets),
		Bandwidth: c.Bandwidth,
		Shards:    cmp.Or(c.Shards, s.cfg.Shards),
		Epoch:     time.Duration(c.Epoch),
		Retain:    c.Retain,
	}
}

// Server hosts named streams behind an http.Handler, with one shared
// background estimation engine.
type Server struct {
	cfg     Config
	refresh time.Duration
	reg     *engine.Registry // the streams and their refresh engine

	done      chan struct{} // closed by Close: stops the edge pusher
	closeOnce sync.Once
	wg        sync.WaitGroup
	snapMu    sync.Mutex // serializes SaveSnapshot
	// dropMu serializes DropStream with the scrape hook's per-stream gauge
	// writes (lock order: dropMu → fedMu → registry).
	dropMu sync.Mutex

	// Federation state. fedMu serializes push application against snapshot
	// capture, so a snapshot's histograms and peer watermarks are always
	// mutually consistent (lock order: snapMu → fedMu → registry).
	fedMu  sync.Mutex
	peers  map[string]*peerState
	pusher *federate.Pusher
	// restoredCursor stashes the edge push cursor LoadSnapshot read for
	// EnablePush to adopt (boot order is declare → restore → enable;
	// LoadSnapshot refuses once the pusher runs).
	restoredCursor *federate.CursorState
	// links holds recent sampled ingest trace IDs for the federation
	// pusher to forward (X-LDP-Trace-Link), so a Reporter-stamped trace
	// stays findable at the root after aggregation.
	links traceLinkRing

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
	logMu     sync.Mutex  // serializes access-log writes
	ready     atomic.Bool // readiness probe state
	started   time.Time
}

// NewServer builds a collection server with its default stream and starts
// the background refresh scheduler and its worker pool. Call Close when done
// with the server to stop them.
func NewServer(cfg Config) *Server {
	refresh := cfg.RefreshInterval
	if refresh <= 0 {
		refresh = 500 * time.Millisecond
	}
	s := &Server{
		cfg:       cfg,
		refresh:   refresh,
		done:      make(chan struct{}),
		peers:     make(map[string]*peerState),
		maxBody:   cfg.Ops.MaxBodyBytes,
		accessLog: cfg.Ops.AccessLog,
		logJSON:   cfg.Ops.LogJSON,
		started:   time.Now(),
	}
	s.ready.Store(!cfg.Ops.AwaitRestore)
	if lim := cfg.Ops.RateLimit; lim > 0 {
		s.limiter = ratelimit.New(lim, admissionBurst(lim, cfg.Ops.RateBurst))
	}
	if lim := cfg.Ops.EdgeRateLimit; lim > 0 {
		s.edgeLim = ratelimit.NewKeyed(lim, admissionBurst(lim, cfg.Ops.EdgeRateBurst))
	}
	opts := engine.Options{Clock: cfg.Clock}
	if !cfg.Ops.DisableTelemetry {
		s.metrics = newServerMetrics(s)
		opts.Metrics = &s.metrics.engine
	}
	if tc := cfg.Ops.Trace; !tc.Disable {
		s.tracer = trace.New(trace.Config{Capacity: tc.Capacity, SampleEvery: tc.SampleEvery})
		s.slowReq = tc.SlowRequest
		opts.Tracer = s.tracer
	}
	s.reg = engine.NewRegistry(opts)
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
		// an unusable Config (a non-finite or non-positive epsilon, retain
		// without epoch, ...) — the same contract core.Config has always
		// had.
		panic(err)
	}
	s.reg.Start(cfg.RefreshWorkers, refresh)
	return s
}

// ErrStreamConfigMismatch is wrapped by CreateStream when a stream already
// exists with different parameters.
var ErrStreamConfigMismatch = engine.ErrConfigMismatch

// CreateStream declares a named stream. Declaring an existing stream with
// the same mechanism parameters (mechanism, ε, buckets, and bandwidth
// compared by its effective value — mechanism.EffectiveBandwidth) is a
// no-op — Shards is a pure ingestion-performance knob and is deliberately
// ignored, so a restart with a different -shards value still accepts
// matching -stream flags against snapshot-restored streams. Windowing is
// fixed at creation: zero Epoch/Retain inherit the stream's, non-zero
// values must match. Anything else is an error wrapping
// ErrStreamConfigMismatch (the report histogram of the live stream would be
// meaningless under the new mechanism).
func (s *Server) CreateStream(name string, cfg StreamConfig) error {
	_, _, err := s.createStream(name, cfg)
	return err
}

// createStream is CreateStream returning the stream the name resolves to
// and whether this call created it, decided under one hold of the registry
// lock.
func (s *Server) createStream(name string, cfg StreamConfig) (*engine.Stream, bool, error) {
	st, created, err := s.reg.Declare(name, s.engineConfig(cfg))
	if err != nil {
		return nil, false, fmt.Errorf("ldphttp: %w", err)
	}
	return st, created, nil
}

// DropStream retires a named stream: it disappears from the registry, the
// engine's rotation, future snapshots and /metrics (every series labeled
// with it), and its reports are discarded.
// Dropping the default stream is allowed (it then answers 404 like any
// unknown stream) — an operator who never uses it can reclaim it.
// In-flight requests that already resolved the stream finish against its
// final state.
func (s *Server) DropStream(name string) error {
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	if err := s.reg.Drop(name); err != nil {
		return fmt.Errorf("ldphttp: %w", err)
	}
	return nil
}

// lookup resolves a stream name ("" means the default stream).
func (s *Server) lookup(name string) *engine.Stream {
	if name == "" {
		name = DefaultStream
	}
	return s.reg.Lookup(name)
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

// streamInfo assembles one stream's info row.
func streamInfo(st *engine.Stream) StreamInfo {
	estN := 0
	if est := st.Published(); est != nil {
		estN = est.N
	}
	cfg := st.Config()
	return StreamInfo{
		Name:      st.Name(),
		Epsilon:   cfg.Epsilon,
		Buckets:   cfg.Buckets,
		Mechanism: cfg.Mechanism,
		Bandwidth: cfg.Bandwidth,
		Shards:    cfg.Shards,
		N:         st.Users(),
		EstimateN: estN,
		Window:    windowInfo(st),
		Config:    configOf(st),
		Links:     streamLinks(st.Name()),
	}
}

// Streams lists every stream in declaration order.
func (s *Server) Streams() []StreamInfo {
	list := s.reg.List()
	infos := make([]StreamInfo, len(list))
	for i, st := range list {
		infos[i] = streamInfo(st)
	}
	return infos
}

// N returns the total number of reports (users) visible across every
// stream.
func (s *Server) N() int {
	var n int
	for _, st := range s.reg.List() {
		n += st.Users()
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
	return st.Users()
}

// Close stops the refresh scheduler, its worker pool and the edge pusher
// and waits for them to exit. The handler keeps accepting reports after
// Close, but estimates are no longer refreshed.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.reg.Close()
	s.wg.Wait()
}

// WireReport is one randomized report as it travels in JSON: either a bare
// number (scalar mechanisms — sw, sw-discrete, grr — and backward-compatible
// with every pre-mechanism client) or an array of numbers (olh: [seed, y];
// hrr: [row, ±1]; oue/sue: the set-bit indices, possibly empty).
type WireReport mechanism.Report

// UnmarshalJSON decodes a report once, choosing the decoder by the value's
// first byte: an array of numbers for '[', a number otherwise. Like any
// json.Unmarshaler it is handed one valid JSON value. A null report, or a
// null element, is rejected: encoding/json would leave the number at 0.
func (r *WireReport) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '[' {
		// Once the elements decode as numbers, an 'n' can only be a null.
		var v []float64
		if json.Unmarshal(b, &v) == nil && bytes.IndexByte(b, 'n') < 0 {
			*r = v
			return nil
		}
	} else if len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9') {
		// A valid JSON value starting so is a number, parsed as
		// encoding/json parses one.
		if f, err := strconv.ParseFloat(string(b), 64); err == nil {
			*r = WireReport{f}
			return nil
		}
	}
	return fmt.Errorf("ldphttp: bad report %s (want a number or an array of numbers)", b)
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
	// Iterations is the reconstruction's EMS iteration count: for a warm
	// start, the number of EMS map evaluations its SQUAREM cycles took
	// (1 for matrix-free oracles).
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
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
}

// resolveStream finds the request's stream or writes a 404.
func (s *Server) resolveStream(w http.ResponseWriter, name string) *engine.Stream {
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
func (s *Server) decodeIngest(w http.ResponseWriter, r *http.Request, name string,
	req interface{ stream() string }) (frame []WireReport, ok bool) {
	codec, ok := s.negotiateCodec(w, r)
	if !ok {
		return nil, false
	}
	if codec == codecBinary {
		return readBinaryReports(w, r)
	}
	return nil, decodeJSON(w, r, req) && streamMatches(w, name, req.stream())
}

// handleReport serves POST /v1/streams/{name}/report as a batch of one. A
// binary frame must carry exactly one report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, name string) {
	var req reportRequest
	frame, ok := s.decodeIngest(w, r, name, &req)
	if !ok {
		return
	}
	reports := frame
	if frame == nil {
		reports = []WireReport{req.Report}
	} else if len(frame) != 1 {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest,
			"binary report frame carries %d reports; POST the frame to the batch endpoint", len(frame))
		return
	}
	s.serveBatch(w, name, reports, true)
}

// handleBatch serves POST /v1/streams/{name}/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, name string) {
	var req batchRequest
	frame, ok := s.decodeIngest(w, r, name, &req)
	if !ok {
		return
	}
	if frame != nil {
		req.Reports = frame
	}
	s.serveBatch(w, name, req.Reports, false)
}

// serveBatch validates a whole batch, then lands it in the stream's
// histogram. single marks the report endpoint's batch of one, which answers
// "accepted": true and names no report index in its errors.
func (s *Server) serveBatch(w http.ResponseWriter, name string, reports []WireReport, single bool) {
	if len(reports) == 0 {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "empty batch")
		return
	}
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	sp := spanOf(w)
	sp.SetStream(st.Name())
	// Validate the whole batch before ingesting anything, so a bad report
	// in the middle cannot leave a half-applied batch behind.
	bsp := sp.Child("bucketize")
	if bsp != nil {
		bsp.Attr("reports", strconv.Itoa(len(reports)))
	}
	bufp := cellPool.Get().(*[]int)
	buckets := (*bufp)[:0]
	defer func() {
		*bufp = buckets[:0]
		cellPool.Put(bufp)
	}()
	var err error
	for i, rep := range reports {
		if buckets, err = st.Bucketize(buckets, mechanism.Report(rep)); err != nil {
			bsp.Fail(CodeBadRequest).End()
			if !single {
				err = fmt.Errorf("report %d: %w", i, err)
			}
			errorJSON(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
	}
	bsp.End()
	isp := sp.Child("ingest")
	st.Add(buckets, len(reports))
	isp.End()
	if sp != nil {
		s.links.add(sp.TraceID())
	}
	var accepted any = len(reports)
	if single {
		accepted = true
	}
	writeJSON(w, acceptedBody{Accepted: accepted, N: st.Users(), Stream: st.Name()})
}

// acceptedBody is the body of an accepted report or batch. Its fields are
// in encoding/json's sorted-key order, so it writes the bytes a map would.
type acceptedBody struct {
	Accepted any    `json:"accepted"` // true for /report, the count for /batch
	N        int    `json:"n"`
	Stream   string `json:"stream"`
}

// loadEstimate fetches a stream's cached reconstruction for serving — the
// whole stream's, or with a window selector the window's — handling the
// not-ready cases uniformly for estimates and queries: 409 when there are
// no reports, 503 (with pending_reports and Retry-After, never blocking the
// client) while the first estimate is still being computed; for a
// selector, 400 on a plain stream or a malformed selector and 410 for a
// range that aged out of retention. PendingReports is how many histogram
// increments arrived after the cached estimate, clamped at zero — the
// engine can publish an estimate covering more reports than the count read
// here.
func (s *Server) loadEstimate(w http.ResponseWriter, st *engine.Stream, rawSel string) (EstimateResponse, bool) {
	var g *window.Range
	n := st.Ring().N()
	if rawSel != "" {
		if !st.Config().Windowed() {
			errorJSON(w, http.StatusBadRequest, CodeNotWindowed,
				"stream %q is not windowed; declare it with an epoch to enable window queries", st.Name())
			return EstimateResponse{}, false
		}
		rng, err := st.Resolve(rawSel)
		if err != nil {
			status, code := http.StatusBadRequest, CodeBadRequest
			if window.IsAgedOut(err) {
				status, code = http.StatusGone, CodeWindowAgedOut
			}
			errorJSON(w, status, code, "%v", err)
			return EstimateResponse{}, false
		}
		if n, err = st.Ring().RangeN(rng); err != nil { // aged out since Resolve
			errorJSON(w, http.StatusGone, CodeWindowAgedOut, "%v", err)
			return EstimateResponse{}, false
		}
		g = &rng
	}
	var est *engine.Estimate
	switch {
	case n == 0 && g == nil:
		errorJSON(w, http.StatusConflict, CodeNoReports, "no reports yet on stream %q", st.Name())
		return EstimateResponse{}, false
	case n == 0:
		errorJSON(w, http.StatusConflict, CodeNoReports, "no reports in window %s on stream %q", g, st.Name())
		return EstimateResponse{}, false
	case g == nil:
		est = st.Published()
	default:
		est = st.WindowEstimate(*g)
	}
	// Staleness is tracked in raw histogram increments, not the user count
	// the response carries — for fan-out mechanisms the two differ. A stale
	// read arms the stream's refresh; the cache is served now.
	st.Served(est == nil || est.Raw != n)
	if est == nil {
		// The first estimate is still pending: tell the client instead of
		// hanging.
		body, msg := map[string]any{"stream": st.Name(), "pending_reports": n},
			"estimate pending: first reconstruction in progress"
		if g != nil {
			body["window"] = g.String()
			msg = "window estimate pending: reconstruction in progress"
		}
		retryJSON(w, http.StatusServiceUnavailable, CodeEstimatePending, time.Second, body, "%s", msg)
		return EstimateResponse{}, false
	}
	cfg := st.Config()
	out := EstimateResponse{
		Stream:         st.Name(),
		N:              est.N,
		Epsilon:        cfg.Epsilon,
		Mechanism:      cfg.Mechanism,
		Distribution:   est.Distribution,
		Mean:           est.Mean,
		Variance:       est.Variance,
		Median:         est.Median,
		Iterations:     est.Iterations,
		Converged:      est.Converged,
		WarmStart:      est.WarmStart,
		Restored:       est.Restored,
		PendingReports: max(n-est.Raw, 0),
	}
	if g != nil {
		out.Window = g.String()
		out.Epochs = &EpochRange{Lo: g.Lo, Hi: g.Hi}
	}
	return out, true
}

// handleEstimate serves GET /v1/streams/{name}/estimate[?window=...].
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, name string) {
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	if out, ok := s.loadEstimate(w, st, r.URL.Query().Get("window")); ok {
		writeJSON(w, out)
	}
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
	writeJSON(w, StreamCreateResponse{ConfigResponse: configOf(st), Created: created, Links: streamLinks(st.Name())})
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
	writeJSON(w, streamInfo(st))
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
	writeJSON(w, configOf(st))
}

// configOf assembles the full effective configuration of one stream.
func configOf(st *engine.Stream) ConfigResponse {
	cfg, mech := st.Config(), st.Mechanism()
	return ConfigResponse{
		Stream:        st.Name(),
		Mechanism:     cfg.Mechanism,
		Epsilon:       cfg.Epsilon,
		Buckets:       cfg.Buckets,
		OutputBuckets: mech.OutputBuckets(),
		Bandwidth:     mech.Params().Bandwidth,
		Shards:        st.Shards(),
		Epoch:         Duration(cfg.Epoch),
		Retain:        cfg.Retain,
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
