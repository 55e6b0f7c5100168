package ldphttp

// Routing and middleware: Handler declares every endpoint once — its route
// template, its middleware options and the methods it serves — and route
// wraps it in one middleware that sheds over-rate requests before the
// engine, bounds bodies, answers unlisted methods with 405, counts and
// times the request, and writes the access log line.
//
// The /v1/streams/{name} tree is dispatched by hand rather than with
// ServeMux method patterns so unsupported methods keep answering 405 with an
// Allow header and the JSON envelope (a mux pattern miss would produce a
// bare text 404).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/trace"
)

// routeOpts configures the middleware for one endpoint.
type routeOpts struct {
	// admit subjects the endpoint to the global admission bucket. Off for
	// the operational endpoints: a load-shedding server must keep
	// answering its probes and exposing its shed counters.
	admit bool
	// capBody bounds the request body at Ops.MaxBodyBytes. Off for
	// federation pushes, which keep their own 64 MiB cap.
	capBody bool
	// trace is the endpoint's tracing policy: off for operational probes,
	// sampled for the per-report ingest hot path, always-on elsewhere.
	trace traceMode
}

// statusWriter captures the status code, body size, request span, the
// negotiated codec, and the lazily-minted request ID for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	span   *trace.Span
	codec  string
	reqID  string
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// handler serves one method of one endpoint. name is the stream a
// /v1/streams/{name} path addresses, parsed once by the dispatcher; it is ""
// on every other endpoint.
type handler func(w http.ResponseWriter, r *http.Request, name string)

// method pairs a request method with the handler that serves it.
type method struct {
	verb  string
	serve handler
}

// anyMethod serves every request method (the 404 catch-alls).
const anyMethod = ""

// route wraps an endpoint's handlers with the operational middleware.
// endpoint is the stable label carried by ldp_requests_total and the access
// log — the route template ("/v1/streams/{name}/report"), never the raw
// path, so the label space stays bounded. A method that methods does not
// list answers 405 with an Allow header naming the listed ones, in order.
// Checks run in a fixed order: tracing, admission, the body cap, the method.
func (s *Server) route(endpoint string, opts routeOpts, methods ...method) handler {
	verbs := make([]string, len(methods))
	for i, m := range methods {
		verbs[i] = m.verb
	}
	allow := strings.Join(verbs, ", ")
	return func(w http.ResponseWriter, r *http.Request, name string) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if t := s.tracer; t != nil && opts.trace != traceOff {
			if parent, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				sw.span = t.StartSpan(parent, "http "+endpoint)
			} else if opts.trace == traceAlways || t.SampleReport() {
				sw.span = t.NewTrace("http " + endpoint)
			}
		}
		shed := false
		if opts.admit && s.limiter != nil {
			if ok, retry := s.limiter.Allow(); !ok {
				shed = true
				if m := s.metrics; m != nil {
					m.shed.With(endpoint, "global").Inc()
				}
				retryJSON(sw, http.StatusTooManyRequests, CodeRateLimited, retry, nil,
					"server over admission rate; retry in %v", retry)
			}
		}
		if !shed {
			if opts.capBody && s.maxBody > 0 && r.Body != nil {
				r.Body = http.MaxBytesReader(sw, r.Body, s.maxBody)
			}
			var serve handler
			for _, m := range methods {
				if m.verb == r.Method || m.verb == anyMethod {
					serve = m.serve
					break
				}
			}
			if serve != nil {
				serve(sw, r, name)
			} else {
				methodNotAllowed(sw, r, allow)
			}
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		if m := s.metrics; m != nil {
			m.requests.With(endpoint, r.Method, fmt.Sprintf("%d", sw.status)).Inc()
			if sw.span != nil {
				m.reqDur.With(endpoint).ObserveExemplar(dur.Seconds(), sw.span.TraceID())
			} else {
				m.reqDur.With(endpoint).Observe(dur.Seconds())
			}
		}
		if sp := sw.span; sp != nil {
			sp.Attr("status", fmt.Sprintf("%d", sw.status))
			if sw.codec != "" {
				sp.Attr("codec", sw.codec)
			}
			if shed {
				sp.Fail(CodeRateLimited)
			} else if sw.status >= 500 {
				sp.Fail(fmt.Sprintf("http_%d", sw.status))
			}
			sp.End()
		}
		if s.slowReq > 0 && dur >= s.slowReq {
			s.logSlow(r, sw, endpoint, dur)
		}
		s.logRequest(r, sw, dur)
	}
}

// logRequest writes one structured access-log line (key=value or JSON).
func (s *Server) logRequest(r *http.Request, sw *statusWriter, dur time.Duration) {
	if s.accessLog == nil {
		return
	}
	ts := time.Now().UTC().Format(time.RFC3339Nano)
	codec := sw.codec
	if codec == "" {
		codec = "-"
	}
	var line string
	if s.logJSON {
		fields := map[string]any{
			"ts":     ts,
			"method": r.Method,
			"path":   r.URL.RequestURI(),
			"status": sw.status,
			"dur_ms": float64(dur.Microseconds()) / 1000,
			"bytes":  sw.bytes,
			"codec":  codec,
			"req_id": sw.requestID(),
			"remote": r.RemoteAddr,
		}
		if id := sw.span.TraceID(); id != "" {
			fields["trace"] = id
		}
		b, err := json.Marshal(fields)
		if err != nil {
			return
		}
		line = string(b) + "\n"
	} else {
		traceField := ""
		if id := sw.span.TraceID(); id != "" {
			traceField = " trace=" + id
		}
		line = fmt.Sprintf("ts=%s method=%s path=%q status=%d dur_ms=%.3f bytes=%d codec=%s req_id=%s%s remote=%s\n",
			ts, r.Method, r.URL.RequestURI(), sw.status, float64(dur.Microseconds())/1000, sw.bytes, codec, sw.requestID(), traceField, r.RemoteAddr)
	}
	s.logMu.Lock()
	s.accessLog.Write([]byte(line))
	s.logMu.Unlock()
}

// Handler returns the public HTTP surface: the /v1 tree, the federation
// endpoints and the operational endpoints. Each endpoint is declared once —
// its route template, its middleware options and the methods it serves, in
// the order its Allow header lists them.
func (s *Server) Handler() http.Handler {
	engine := routeOpts{admit: true, capBody: true, trace: traceAlways}
	ingest := routeOpts{admit: true, capBody: true, trace: traceSampled}
	ops := routeOpts{}

	mux := http.NewServeMux()
	handle := func(endpoint string, opts routeOpts, methods ...method) {
		h := s.route(endpoint, opts, methods...)
		mux.HandleFunc(endpoint, func(w http.ResponseWriter, r *http.Request) { h(w, r, "") })
	}
	handle("/v1/streams", engine,
		method{http.MethodGet, s.handleStreamList}, method{http.MethodPost, s.handleStreamCreate})
	// The ingest hot paths (report, batch) sample; the rest trace always-on.
	mux.HandleFunc("/v1/streams/", s.streamRoutes(map[string]handler{
		"": s.route("/v1/streams/{name}", engine,
			method{http.MethodGet, s.handleStreamInfo}, method{http.MethodDelete, s.handleStreamDelete}),
		"report":   s.route("/v1/streams/{name}/report", ingest, method{http.MethodPost, s.handleReport}),
		"batch":    s.route("/v1/streams/{name}/batch", ingest, method{http.MethodPost, s.handleBatch}),
		"estimate": s.route("/v1/streams/{name}/estimate", engine, method{http.MethodGet, s.handleEstimate}),
		"query": s.route("/v1/streams/{name}/query", engine,
			method{http.MethodGet, s.handleQueryGet}, method{http.MethodPost, s.handleQueryPost}),
		"config":      s.route("/v1/streams/{name}/config", engine, method{http.MethodGet, s.handleConfig}),
		"diagnostics": s.route("/v1/streams/{name}/diagnostics", engine, method{http.MethodGet, s.handleStreamDiagnostics}),
	}))
	handle("/v1/diagnostics", engine, method{http.MethodGet, s.handleFleetDiagnostics})

	// Federation: push carries its own body cap and the per-edge tier.
	handle("/federation/push", routeOpts{admit: true, trace: traceAlways}, method{http.MethodPost, s.handleFederationPush})
	handle("/federation/peers", engine, method{http.MethodGet, s.handleFederationPeers})

	// Operational surface: exempt from admission control.
	handle("/metrics", ops, method{http.MethodGet, s.handleMetrics})
	handle("/healthz", ops, method{http.MethodGet, s.handleHealthz})
	handle("/readyz", ops, method{http.MethodGet, s.handleReadyz})

	// Everything else 404s with the envelope, not the mux's text body.
	handle("/", ops, method{anyMethod, notFound})
	return mux
}

// streamRoutes dispatches /v1/streams/{name}[/{action}] to the endpoint
// keyed by its action ("" is the stream itself), passing the name it parsed.
// An unparsable path, an empty name, deeper nesting and unknown actions
// answer 404 under the /v1/streams/{name} label, whatever the method.
func (s *Server) streamRoutes(actions map[string]handler) http.HandlerFunc {
	missing := s.route("/v1/streams/{name}", routeOpts{}, method{anyMethod, notFound})
	return func(w http.ResponseWriter, r *http.Request) {
		name, action, ok := v1StreamPath(r)
		h, known := actions[action]
		if !ok || name == "" || !known {
			h = missing
		}
		h(w, r, name)
	}
}

func notFound(w http.ResponseWriter, r *http.Request, _ string) {
	errorJSON(w, http.StatusNotFound, CodeNotFound, "no route %s", r.URL.Path)
}

// v1StreamPath parses /v1/streams/{name}[/{action}]; ok is false for
// deeper nesting or an unescapable name. The segments come from
// EscapedPath, not Path: net/http has already percent-decoded r.URL.Path,
// so unescaping that a second time would mangle names containing '%' and
// split names containing an escaped '/' — the exact names the server's own
// PathEscape-built links carry.
func v1StreamPath(r *http.Request) (name, action string, ok bool) {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/streams/")
	parts := strings.Split(rest, "/")
	if len(parts) > 2 {
		return "", "", false
	}
	name, err := url.PathUnescape(parts[0])
	if err != nil {
		return "", "", false
	}
	if len(parts) == 2 {
		action = parts[1]
	}
	return name, action, true
}

// streamMatches rejects a body whose "stream" field names a different
// stream than the path; an empty field inherits the path.
func streamMatches(w http.ResponseWriter, path, body string) bool {
	if body != "" && body != path {
		errorJSON(w, http.StatusBadRequest, CodeStreamMismatch,
			"body addresses stream %q but the path addresses %q", body, path)
		return false
	}
	return true
}
