package ldphttp

// Operational telemetry: the serverMetrics bundle registers every collector
// metric in one zero-dependency telemetry.Registry and GET /metrics renders
// it in Prometheus text format. Counters and histograms are written on the
// hot paths through handles resolved once (stream creation, route
// registration); derived gauges — staleness, refresh age, federation lag,
// the edge pusher's cursor — are recomputed by an OnScrape hook so the
// exposition is always current without any background work. GET /healthz
// and GET /readyz are the probe surface: liveness is "the estimation engine
// is ticking", readiness is "snapshot restore has completed".

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// defaultMaxSeries is the per-family series cap applied when OpsConfig
// leaves MaxSeriesPerFamily at zero. 1024 label-sets per family comfortably
// covers hundreds of streams while bounding a declaration storm.
const defaultMaxSeries = 1024

// serverMetrics holds every metric family the collector exports.
type serverMetrics struct {
	reg *telemetry.Registry

	// HTTP surface.
	requests *telemetry.CounterVec   // endpoint, method, code
	reqDur   *telemetry.HistogramVec // endpoint
	shed     *telemetry.CounterVec   // endpoint, scope (global|edge)
	codecSel *telemetry.CounterVec   // endpoint, codec (json|binary)

	// Ingestion and estimation engine.
	reports      *telemetry.CounterVec   // stream, mechanism
	emRefresh    *telemetry.HistogramVec // stream
	emIters      *telemetry.HistogramVec // stream
	emStaleness  *telemetry.GaugeVec     // stream
	emRefreshAge *telemetry.GaugeVec     // stream
	rotations    *telemetry.CounterVec   // stream
	refreshes    *telemetry.CounterVec   // stream, reason (growth|rotation|forced)
	queueDepth   *telemetry.GaugeVec     // scrape-derived refresh queue depth
	streams      *telemetry.GaugeVec

	// Snapshots.
	snapshots *telemetry.CounterVec   // op (save|load), status (ok|error)
	snapDur   *telemetry.HistogramVec // op

	// Federation, root side (counted at push handling).
	fedAbsorbed   *telemetry.CounterVec // edge
	fedDuplicates *telemetry.CounterVec // edge
	fedRejects    *telemetry.CounterVec // edge, code
	fedDropped    *telemetry.CounterVec // edge
	fedLag        *telemetry.GaugeVec   // edge (scrape-derived)

	// Federation, edge side (scrape-derived from PusherStatus).
	pushAckedSeq *telemetry.GaugeVec // edge
	pushFailures *telemetry.GaugeVec // edge
	pushBackoff  *telemetry.GaugeVec // edge
	pushLag      *telemetry.GaugeVec // edge
	pushShipped  *telemetry.GaugeVec // edge
	pushDiverged *telemetry.GaugeVec // edge

	// Estimate quality (written at refresh/seal time, not per scrape).
	estLoglik   *telemetry.GaugeVec   // stream (EM-based streams only)
	estCI       *telemetry.GaugeVec   // stream
	emConverged *telemetry.GaugeVec   // stream
	driftScore  *telemetry.GaugeVec   // stream, metric (w1|ks)
	driftAlerts *telemetry.CounterVec // stream

	// Probes as gauges, so dashboards see what the probes see.
	up      *telemetry.GaugeVec
	ready   *telemetry.GaugeVec
	healthy *telemetry.GaugeVec

	// Scrape self-metrics: how long /metrics itself takes, and how many
	// expositions failed mid-write (client gone, broken pipe).
	scrapeDur  *telemetry.HistogramVec
	scrapeErrs *telemetry.CounterVec
}

// newServerMetrics registers every family and installs the scrape hook.
// Called once from NewServer, before any stream exists.
func newServerMetrics(s *Server) *serverMetrics {
	limit := s.cfg.Ops.MaxSeriesPerFamily
	switch {
	case limit == 0:
		limit = defaultMaxSeries
	case limit < 0:
		limit = 0 // explicit opt-out: unbounded
	}
	r := telemetry.NewWithOptions(telemetry.Options{MaxSeriesPerFamily: limit})
	m := &serverMetrics{
		reg: r,
		requests: r.Counter("ldp_requests_total",
			"HTTP requests served, by endpoint, method and status code.",
			"endpoint", "method", "code"),
		reqDur: r.Histogram("ldp_request_duration_seconds",
			"HTTP request latency by endpoint.", telemetry.DefBuckets, "endpoint"),
		shed: r.Counter("ldp_shed_total",
			"Requests shed by admission control before reaching the engine.",
			"endpoint", "scope"),
		codecSel: r.Counter("ldp_codec_requests_total",
			"Ingest requests by negotiated wire codec (json or binary).",
			"endpoint", "codec"),
		reports: r.Counter("ldp_reports_total",
			"Randomized reports ingested, by stream and mechanism.",
			"stream", "mechanism"),
		emRefresh: r.Histogram("ldp_em_refresh_seconds",
			"Background EM/EMS reconstruction latency per refresh.",
			telemetry.DefBuckets, "stream"),
		emIters: r.Histogram("ldp_em_iterations",
			"EM/EMS iterations per published refresh (warm starts converge in few).",
			[]float64{1, 2, 5, 10, 20, 50, 100, 200}, "stream"),
		emStaleness: r.Gauge("ldp_em_staleness_reports",
			"Histogram increments ingested after the published estimate.", "stream"),
		emRefreshAge: r.Gauge("ldp_em_refresh_age_seconds",
			"Seconds since the stream's estimate was last refreshed.", "stream"),
		rotations: r.Counter("ldp_epoch_rotations_total",
			"Epoch rotations performed on windowed streams.", "stream"),
		refreshes: r.Counter("ldp_em_refreshes_total",
			"Published estimate refreshes, by stream and trigger (growth|rotation|forced).",
			"stream", "reason"),
		queueDepth: r.Gauge("ldp_em_refresh_queue_depth",
			"Streams waiting in the refresh queue for a worker."),
		streams: r.Gauge("ldp_streams", "Streams currently declared."),
		snapshots: r.Counter("ldp_snapshots_total",
			"Snapshot operations, by op (save|load) and outcome.", "op", "status"),
		snapDur: r.Histogram("ldp_snapshot_seconds",
			"Snapshot save/load duration.", telemetry.DefBuckets, "op"),
		fedAbsorbed: r.Counter("ldp_federation_absorbed_total",
			"Histogram increments absorbed from federation pushes, per edge.", "edge"),
		fedDuplicates: r.Counter("ldp_federation_duplicate_pushes_total",
			"Replayed pushes skipped by the replay cursor, per edge.", "edge"),
		fedRejects: r.Counter("ldp_federation_rejected_pushes_total",
			"Pushes rejected, per edge and rejection code.", "edge", "code"),
		fedDropped: r.Counter("ldp_federation_dropped_total",
			"Pushed increments dropped (epoch outside the root's window), per edge.", "edge"),
		fedLag: r.Gauge("ldp_federation_push_lag_seconds",
			"Seconds since each edge's last applied push (root side).", "edge"),
		pushAckedSeq: r.Gauge("ldp_push_acked_seq",
			"Edge pusher: last acknowledged sequence number.", "edge"),
		pushFailures: r.Gauge("ldp_push_consecutive_failures",
			"Edge pusher: consecutive failed push attempts.", "edge"),
		pushBackoff: r.Gauge("ldp_push_backoff_seconds",
			"Edge pusher: current failure backoff (0 = healthy).", "edge"),
		pushLag: r.Gauge("ldp_push_last_success_age_seconds",
			"Edge pusher: seconds since the last acknowledged push.", "edge"),
		pushShipped: r.Gauge("ldp_push_shipped_reports",
			"Edge pusher: total increments shipped and acknowledged.", "edge"),
		pushDiverged: r.Gauge("ldp_push_diverged",
			"Edge pusher: 1 when the root provably holds a different history.", "edge"),
		estLoglik: r.Gauge("ldp_estimate_loglik",
			"Count-weighted log-likelihood of the published EM reconstruction.", "stream"),
		estCI: r.Gauge("ldp_estimate_ci_halfwidth",
			"Analytic 95% CI half-width per probability cell at the current user count.", "stream"),
		emConverged: r.Gauge("ldp_em_converged",
			"1 when the published reconstruction met the EM convergence tolerance.", "stream"),
		driftScore: r.Gauge("ldp_drift_score",
			"Epoch-over-epoch distribution drift, by metric (w1|ks).", "stream", "metric"),
		driftAlerts: r.Counter("ldp_drift_alerts_total",
			"Drift alerts raised by the hysteresis state machine.", "stream"),
		up:      r.Gauge("ldp_up", "Process uptime indicator, always 1 while serving."),
		ready:   r.Gauge("ldp_ready", "Readiness probe state (1 = ready)."),
		healthy: r.Gauge("ldp_healthy", "Liveness probe state (1 = engine ticking)."),
		scrapeDur: r.Histogram("ldp_scrape_duration_seconds",
			"Wall time spent rendering the /metrics exposition.", telemetry.DefBuckets),
		scrapeErrs: r.Counter("ldp_scrape_errors_total",
			"Metric expositions that failed mid-write."),
	}
	// The scrape error counter should read 0, not be absent, on a healthy
	// server — dashboards alert on increase(), which needs a base sample.
	m.scrapeErrs.With().Add(0)
	r.OnScrape(func() { s.scrapeRefresh(m) })
	return m
}

// scrapeRefresh recomputes every derived gauge at exposition time.
func (s *Server) scrapeRefresh(m *serverMetrics) {
	now := time.Now()
	list := s.streamList()
	m.streams.With().Set(float64(len(list)))
	m.queueDepth.With().Set(float64(s.rq.depth()))
	for _, st := range list {
		n := st.ring.N()
		pub := int(st.published.Load())
		pending := n - pub
		if pending < 0 {
			pending = 0
		}
		st.mStaleness.Set(float64(pending))
		if lr := st.lastRefresh.Load(); lr > 0 {
			st.mRefreshAge.Set(now.Sub(time.Unix(0, lr)).Seconds())
		}
	}
	s.fedMu.Lock()
	// Push lag compares against watermarks stamped with the server clock
	// (applyPushLocked uses s.now()), so it must read the same clock — a
	// mock-clock test would otherwise see wall time leak into the gauge.
	fedNow := s.now()
	for edge, p := range s.peers {
		if !p.lastPush.IsZero() {
			m.fedLag.With(edge).Set(fedNow.Sub(p.lastPush).Seconds())
		}
	}
	pusher := s.pusher
	s.fedMu.Unlock()
	if pusher != nil {
		ps := pusher.Status()
		m.pushAckedSeq.With(ps.Edge).Set(float64(ps.AckedSeq))
		m.pushFailures.With(ps.Edge).Set(float64(ps.Failures))
		m.pushBackoff.With(ps.Edge).Set(ps.Backoff.Seconds())
		m.pushShipped.With(ps.Edge).Set(float64(ps.Reports))
		if !ps.LastSuccess.IsZero() {
			m.pushLag.With(ps.Edge).Set(now.Sub(ps.LastSuccess).Seconds())
		}
		diverged := 0.0
		if ps.Diverged {
			diverged = 1
		}
		m.pushDiverged.With(ps.Edge).Set(diverged)
	}
	m.up.With().Set(1)
	boolGauge(m.ready.With(), s.Ready())
	boolGauge(m.healthy.With(), s.healthErr() == nil)
}

func boolGauge(g *telemetry.Gauge, v bool) {
	if v {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// observeSnapshot records one snapshot save/load outcome.
func (s *Server) observeSnapshot(op string, start time.Time, err error) {
	m := s.metrics
	if m == nil {
		return
	}
	status := "ok"
	if err != nil {
		status = "error"
	}
	m.snapshots.With(op, status).Inc()
	m.snapDur.With(op).Observe(time.Since(start).Seconds())
}

// admissionBurst resolves a configured burst against its rate: zero means
// 2× the per-second rate (at least 1), so a default bucket rides out a
// one-second spike at twice the sustained load.
func admissionBurst(rate, burst float64) float64 {
	if burst > 0 {
		return burst
	}
	if b := 2 * rate; b >= 1 {
		return b
	}
	return 1
}

// MarkReady flips the readiness probe to ready. LoadSnapshot calls it on a
// successful restore; cmd/ldpserver calls it explicitly when a configured
// snapshot file does not exist yet (cold start).
func (s *Server) MarkReady() { s.ready.Store(true) }

// Ready reports the readiness probe state.
func (s *Server) Ready() bool { return s.ready.Load() }

// healthErr is the liveness check: nil while the estimation engine is
// alive. The engine is considered stalled when it has not completed a loop
// pass for well over its refresh cadence — a deliberately generous bound
// (ten refresh intervals, at least 10s) so a slow EM pass on a huge stream
// set degrades health only when it is genuinely drowning.
func (s *Server) healthErr() error {
	select {
	case <-s.done:
		return fmt.Errorf("estimation engine stopped (server closed)")
	default:
	}
	threshold := 10 * s.refresh
	if threshold < 10*time.Second {
		threshold = 10 * time.Second
	}
	age := time.Since(time.Unix(0, s.lastTick.Load()))
	if age > threshold {
		return fmt.Errorf("estimation engine stalled: no loop pass for %v (threshold %v)", age.Round(time.Millisecond), threshold)
	}
	return nil
}

// gzipPool recycles scrape compressors: a gzip.Writer carries ~256KiB of
// internal state, far too much to allocate per scrape.
var gzipPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// acceptsGzip reports whether the Accept-Encoding header opts into gzip.
// It tolerates the usual comma list with optional q-values and rejects an
// explicit q=0 ("gzip;q=0" means "never send me gzip").
func acceptsGzip(header string) bool {
	for _, part := range strings.Split(header, ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		enc = strings.ToLower(strings.TrimSpace(enc))
		if enc != "gzip" && enc != "*" {
			continue
		}
		params = strings.ReplaceAll(strings.ToLower(params), " ", "")
		if strings.HasPrefix(params, "q=0") && !strings.HasPrefix(params, "q=0.") {
			return false
		}
		return true
	}
	return false
}

// handleMetrics serves the Prometheus text exposition, gzip-compressed when
// the scraper asks for it (a 64-stream exposition shrinks roughly 10×,
// which matters at sub-second scrape intervals).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ string) {
	if s.metrics == nil {
		errorJSON(w, http.StatusNotFound, CodeNotFound, "telemetry is disabled on this server")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Add("Vary", "Accept-Encoding")
	start := time.Now()
	var err error
	if acceptsGzip(r.Header.Get("Accept-Encoding")) {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzipPool.Get().(*gzip.Writer)
		gz.Reset(w)
		err = s.metrics.reg.WriteText(gz)
		if cerr := gz.Close(); err == nil {
			err = cerr
		}
		gzipPool.Put(gz)
	} else {
		err = s.metrics.reg.WriteText(w)
	}
	// Self-observations land after the exposition is rendered, so this
	// scrape's own duration shows up on the next one — the exposition
	// itself stays a consistent point-in-time snapshot. The duration
	// includes compression: that is the real cost a scraper induces.
	s.metrics.scrapeDur.With().Observe(time.Since(start).Seconds())
	if err != nil {
		s.metrics.scrapeErrs.With().Inc()
	}
}

// handleHealthz is the liveness probe: 200 while the estimation engine is
// ticking, 503 engine_stalled/engine_stopped otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ string) {
	if err := s.healthErr(); err != nil {
		code := CodeEngineStalled
		select {
		case <-s.done:
			code = CodeEngineStopped
		default:
		}
		errorJSON(w, http.StatusServiceUnavailable, code, "%v", err)
		return
	}
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is the readiness probe: 200 once snapshot restore has
// completed (or immediately, when the server never awaited one).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request, _ string) {
	if !s.Ready() {
		retryJSON(w, http.StatusServiceUnavailable, CodeNotReady, time.Second, nil,
			"snapshot restore has not completed")
		return
	}
	writeJSON(w, map[string]any{"status": "ready"})
}
