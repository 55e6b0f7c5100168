package ldphttp

// Request tracing: the HTTP face of the internal/trace flight recorder.
//
// Every engine route runs under a span — continued from an incoming W3C
// traceparent header when the client sent one, started fresh otherwise —
// with per-stage child spans (decode, bucketize, ingest, absorb, ...)
// recorded by the handlers. The per-report hot path is sampled (one atomic
// add per untraced request, TraceConfig.SampleEvery); everything else is
// always-on. Sampled ingest trace IDs additionally land in a small
// ring so the federation pusher can forward them
// (X-LDP-Trace-Link) and the root can mint link markers — that is how a
// trace stamped by repro.Reporter stays findable at the root even though
// the reports themselves dissolve into aggregated histogram deltas.
//
// The flight recorder is served on GET /v1/debug/traces — deliberately NOT
// part of Handler(): DebugHandler() is a separate surface for a separate
// listener (cmd/ldpserver -debug-addr), so trace data is never exposed on
// the public port.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TraceConfig bundles the tracing knobs of OpsConfig. The zero value is
// tracing on with the defaults of package trace: a 4096-span flight
// recorder sampling 1 in 128 header-less report requests.
type TraceConfig struct {
	// Disable turns the tracing subsystem off entirely: no spans, no
	// flight recorder, /v1/debug/traces answers 404.
	Disable bool
	// Capacity is the flight recorder's span count (0 = 4096).
	Capacity int
	// SampleEvery traces 1 in SampleEvery header-less report and batch
	// requests (0 = 128, 1 = every request, negative = none). Requests
	// carrying a sampled traceparent header, and every engine/federation
	// span, are always recorded.
	SampleEvery int
	// SlowRequest, when positive, logs one slow_request line (through
	// the structured access logger) for every request at least this slow,
	// carrying the request ID and, when sampled, the trace ID.
	SlowRequest time.Duration
}

// traceMode is a route's tracing policy.
type traceMode int

const (
	// traceOff: never trace (operational endpoints — probes and scrapes
	// would otherwise flood the recorder).
	traceOff traceMode = iota
	// traceSampled: continue a sampled traceparent, else trace 1 in
	// SampleEvery (the per-report ingest hot path).
	traceSampled
	// traceAlways: continue a sampled traceparent, else start a fresh
	// trace (engine and federation routes).
	traceAlways
)

// spanOf recovers the request's span from the middleware's statusWriter.
// Handlers receive the wrapped writer, so this is a single type assertion;
// it returns nil (trace nothing) for unsampled requests and bare writers.
func spanOf(w http.ResponseWriter) *trace.Span {
	if sw, ok := w.(*statusWriter); ok {
		return sw.span
	}
	return nil
}

// Request IDs: a boot-random prefix plus an atomic counter, generated
// lazily — only when an error envelope or a log line actually needs one —
// so the 2xx hot path never pays for them.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		v := rand.Uint32()
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Uint64
)

// requestID returns the request's ID, minting one on first use and echoing
// it in the X-Request-Id response header (best effort: the header only
// lands when minting happens before the status line is written).
func (sw *statusWriter) requestID() string {
	if sw.reqID == "" {
		sw.reqID = fmt.Sprintf("%s-%06x", reqIDPrefix, reqIDCounter.Add(1))
		if sw.status == 0 {
			sw.Header().Set("X-Request-Id", sw.reqID)
		}
	}
	return sw.reqID
}

// maxTraceLinks bounds both the ring of recent sampled ingest trace IDs and
// the number of IDs one federation push forwards.
const maxTraceLinks = 8

// traceLinkRing is a small bounded ring of the server's most recent sampled
// ingest trace IDs. The federation pusher drains it on each push and
// forwards the IDs in the X-LDP-Trace-Link header; delivery is best-effort
// diagnostics (a failed push drops the drained IDs), never load-bearing.
type traceLinkRing struct {
	mu  sync.Mutex
	ids []string
}

func (l *traceLinkRing) add(id string) {
	if id == "" {
		return
	}
	l.mu.Lock()
	if len(l.ids) >= maxTraceLinks {
		copy(l.ids, l.ids[1:])
		l.ids = l.ids[:maxTraceLinks-1]
	}
	l.ids = append(l.ids, id)
	l.mu.Unlock()
}

func (l *traceLinkRing) drain() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ids) == 0 {
		return nil
	}
	out := l.ids
	l.ids = nil
	return out
}

// parseTraceLinks splits an X-LDP-Trace-Link header value (comma-separated
// 32-hex trace IDs), dropping anything malformed, capped at maxTraceLinks.
func parseTraceLinks(h string) []string {
	if h == "" {
		return nil
	}
	var out []string
	for _, id := range strings.Split(h, ",") {
		id = strings.TrimSpace(id)
		if len(id) != 32 {
			continue
		}
		if _, err := hex.DecodeString(id); err != nil {
			continue
		}
		out = append(out, strings.ToLower(id))
		if len(out) == maxTraceLinks {
			break
		}
	}
	return out
}

// logSlow writes the threshold-gated slow-request line through the
// structured access logger: the one line an operator greps for when the
// latency histogram shows a tail, carrying the IDs that lead to the trace.
func (s *Server) logSlow(r *http.Request, sw *statusWriter, endpoint string, dur time.Duration) {
	if s.accessLog == nil {
		return
	}
	ts := time.Now().UTC().Format(time.RFC3339Nano)
	traceID := sw.span.TraceID()
	var line string
	if s.logJSON {
		b, err := json.Marshal(map[string]any{
			"ts":       ts,
			"slow":     true,
			"endpoint": endpoint,
			"method":   r.Method,
			"status":   sw.status,
			"dur_ms":   float64(dur.Microseconds()) / 1000,
			"req_id":   sw.requestID(),
			"trace":    traceID,
		})
		if err != nil {
			return
		}
		line = string(b) + "\n"
	} else {
		line = fmt.Sprintf("ts=%s slow=true endpoint=%q method=%s status=%d dur_ms=%.3f req_id=%s trace=%s\n",
			ts, endpoint, r.Method, sw.status, float64(dur.Microseconds())/1000, sw.requestID(), traceID)
	}
	s.logMu.Lock()
	s.accessLog.Write([]byte(line))
	s.logMu.Unlock()
}

// DebugTracesResponse is the JSON shape of GET /v1/debug/traces.
type DebugTracesResponse struct {
	// Capacity is the flight recorder's span capacity; Recorded how many
	// spans were ever recorded (min(Recorded, Capacity) are still held).
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	// Spans are the matching records, oldest first.
	Spans []trace.Record `json:"spans"`
	// Exemplars are the most recent trace-annotated observations of the
	// request-duration histogram, keyed by endpoint — the bridge from a
	// latency tail on /metrics to a trace ID queryable here.
	Exemplars map[string]telemetry.Exemplar `json:"exemplars,omitempty"`
}

// DebugHandler returns the diagnostics surface: GET /v1/debug/traces with
// stream/route/trace/min_duration/limit filters. It is intentionally not
// part of Handler() — bind it (and pprof) on a separate private listener
// (cmd/ldpserver -debug-addr), never on the public port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/debug/traces", s.handleDebugTraces)
	return mux
}

// handleDebugTraces serves the flight recorder. Filters (all optional,
// conjunctive): stream=<name>, route=<template> (matches the trace's
// "http <template>" root span and its children by trace), trace=<32hex>,
// min_duration=<Go duration>, limit=<n> (most recent n after filtering).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	t := s.tracer
	if t == nil {
		errorJSON(w, http.StatusNotFound, CodeNotFound, "tracing is disabled on this server")
		return
	}
	q := r.URL.Query()
	var minDur time.Duration
	if raw := q.Get("min_duration"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, CodeBadRequest, "bad min_duration %q: %v", raw, err)
			return
		}
		minDur = d
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			errorJSON(w, http.StatusBadRequest, CodeBadRequest, "bad limit %q (want a non-negative integer)", raw)
			return
		}
		limit = n
	}
	streamF := q.Get("stream")
	traceF := strings.ToLower(q.Get("trace"))
	routeF := q.Get("route")

	recs := t.Snapshot()
	// A route filter selects whole traces whose root span is "http <route>".
	var routeTraces map[string]bool
	if routeF != "" {
		routeTraces = make(map[string]bool)
		stage := "http " + routeF
		for _, rec := range recs {
			if rec.Stage == stage {
				routeTraces[rec.TraceID] = true
			}
		}
	}
	out := recs[:0]
	for _, rec := range recs {
		if streamF != "" && rec.Stream != streamF {
			continue
		}
		if traceF != "" && rec.TraceID != traceF {
			continue
		}
		if routeTraces != nil && !routeTraces[rec.TraceID] {
			continue
		}
		if rec.Duration < minDur {
			continue
		}
		out = append(out, rec)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	resp := DebugTracesResponse{Capacity: t.Capacity(), Recorded: t.Recorded(), Spans: out}
	if m := s.metrics; m != nil {
		if ex := m.reqDur.Exemplars(); len(ex) > 0 {
			resp.Exemplars = ex
		}
	}
	writeJSON(w, resp)
}
