package repro

// Operational surface of the public API: typed access to a collector's
// telemetry (GET /metrics, Prometheus text exposition) and probe endpoints
// (GET /healthz, GET /readyz), so tooling embedding this library can watch a
// deployment without hand-parsing the exposition format. Built on the same
// zero-dependency parser the server's own tests lint their scrapes with.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// ServerStats is a typed snapshot of a collector's /metrics exposition. The
// named fields cover the signals an operator dashboards first; Raw holds
// every sample for anything else.
type ServerStats struct {
	// Up, Ready, Healthy mirror the ldp_up / ldp_ready / ldp_healthy probe
	// gauges — what /healthz and /readyz would answer at scrape time.
	Up      bool
	Ready   bool
	Healthy bool
	// Streams is the number of declared streams.
	Streams int
	// Requests counts HTTP requests served across all endpoints; Shed the
	// requests rejected by admission control before reaching the engine.
	Requests uint64
	Shed     uint64
	// Reports maps stream name to randomized reports ingested.
	Reports map[string]uint64
	// EpochRotations maps stream name to epoch rotations performed.
	EpochRotations map[string]uint64
	// FederationAbsorbed / FederationDuplicates map edge id to histogram
	// increments absorbed from, and replayed pushes skipped for, that edge
	// (root side; empty on a non-federated collector).
	FederationAbsorbed   map[string]uint64
	FederationDuplicates map[string]uint64
	// Raw holds every parsed sample keyed in exposition style:
	// name{label="value",...} with labels sorted by name.
	Raw map[string]float64
}

// FetchServerStats scrapes GET {baseURL}/metrics and returns the typed
// snapshot. An http.Client can be supplied for timeouts and transports; nil
// uses http.DefaultClient.
func FetchServerStats(baseURL string, hc *http.Client) (*ServerStats, error) {
	body, err := opsGet(baseURL, "/metrics", hc)
	if err != nil {
		return nil, fmt.Errorf("repro: server stats: %w", err)
	}
	return parseServerStats(body)
}

// parseServerStats builds a ServerStats from one exposition payload.
func parseServerStats(exposition []byte) (*ServerStats, error) {
	sc, err := telemetry.ParseText(bytes.NewReader(exposition))
	if err != nil {
		return nil, fmt.Errorf("repro: server stats: %w", err)
	}
	st := &ServerStats{
		Reports:              make(map[string]uint64),
		EpochRotations:       make(map[string]uint64),
		FederationAbsorbed:   make(map[string]uint64),
		FederationDuplicates: make(map[string]uint64),
		Raw:                  make(map[string]float64),
	}
	for _, fam := range sc.Families {
		for _, s := range fam.Samples {
			st.Raw[rawSampleKey(s.Name, s.Labels)] = s.Value
			switch s.Name {
			case "ldp_up":
				st.Up = s.Value == 1
			case "ldp_ready":
				st.Ready = s.Value == 1
			case "ldp_healthy":
				st.Healthy = s.Value == 1
			case "ldp_streams":
				st.Streams = int(s.Value)
			case "ldp_requests_total":
				st.Requests += uint64(s.Value)
			case "ldp_shed_total":
				st.Shed += uint64(s.Value)
			case "ldp_reports_total":
				st.Reports[s.Labels["stream"]] += uint64(s.Value)
			case "ldp_epoch_rotations_total":
				st.EpochRotations[s.Labels["stream"]] += uint64(s.Value)
			case "ldp_federation_absorbed_total":
				st.FederationAbsorbed[s.Labels["edge"]] += uint64(s.Value)
			case "ldp_federation_duplicate_pushes_total":
				st.FederationDuplicates[s.Labels["edge"]] += uint64(s.Value)
			}
		}
	}
	return st, nil
}

// rawSampleKey renders a sample identity in exposition style with sorted
// labels, so Raw lookups are deterministic.
func rawSampleKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, k+`="`+v+`"`)
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// ServerHealth is the combined answer of a collector's probe endpoints.
type ServerHealth struct {
	// Healthy is GET /healthz: the estimation engine is ticking.
	Healthy bool
	// Ready is GET /readyz: snapshot restore has completed.
	Ready bool
	// UptimeSeconds comes from a healthy /healthz answer (0 otherwise).
	UptimeSeconds float64
	// Detail carries the failing probe's error message ("" when both pass).
	Detail string
}

// CheckServerHealth queries GET {baseURL}/healthz and /readyz. A 503 from
// either probe is NOT an error — it comes back as Healthy/Ready false with
// the probe's message in Detail. The error return is reserved for transport
// failures and unexpected statuses.
func CheckServerHealth(baseURL string, hc *http.Client) (ServerHealth, error) {
	var h ServerHealth
	ok, detail, extra, err := opsProbe(context.TODO(), baseURL, "/healthz", hc)
	if err != nil {
		return h, fmt.Errorf("repro: health: %w", err)
	}
	h.Healthy = ok
	if ok {
		h.UptimeSeconds, _ = extra["uptime_seconds"].(float64)
	} else {
		h.Detail = detail
	}
	ok, detail, _, err = opsProbe(context.TODO(), baseURL, "/readyz", hc)
	if err != nil {
		return h, fmt.Errorf("repro: health: %w", err)
	}
	h.Ready = ok
	if !ok && h.Detail == "" {
		h.Detail = detail
	}
	return h, nil
}

// transportError is a probe that got no HTTP answer (connection refused,
// reset, timeout) — the one probe error AwaitServerReady retries.
type transportError struct{ error }

func (e transportError) Unwrap() error { return e.error }

// opsProbe hits one probe endpoint: 200 → ok, 503 → probe failure with the
// envelope's message, no answer (before ctx ends) → transportError,
// anything else → error.
func opsProbe(ctx context.Context, baseURL, path string, hc *http.Client) (ok bool, detail string, extra map[string]any, err error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return false, "", nil, fmt.Errorf("%q is not an http(s) URL", baseURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(baseURL, "/")+path, nil)
	if err != nil {
		return false, "", nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, "", nil, transportError{err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return false, "", nil, transportError{err}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		extra = make(map[string]any)
		json.Unmarshal(body, &extra) // best effort; a 200 is ok regardless
		return true, "", extra, nil
	case http.StatusServiceUnavailable:
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
			return false, env.Error.Code + ": " + env.Error.Message, nil, nil
		}
		return false, strings.TrimSpace(string(body)), nil, nil
	default:
		return false, "", nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// opsGet fetches one endpoint, demanding a 200.
func opsGet(baseURL, path string, hc *http.Client) ([]byte, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("%q is not an http(s) URL", baseURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(strings.TrimSuffix(baseURL, "/") + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// TraceSpan is one span of a collector's flight recorder as served by GET
// /v1/debug/traces: a stage of one traced request (or engine cycle), with
// its lineage and duration.
type TraceSpan struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Stage names the pipeline step ("http /v1/streams/{name}/report",
	// "decode", "bucketize", "ingest", "federation/push", "absorb", ...).
	Stage  string    `json:"stage"`
	Stream string    `json:"stream,omitempty"`
	Start  time.Time `json:"start"`
	// DurationNS is the span's monotonic duration in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Attrs are the span's key/value annotations; Error is the failure code
	// ("" on success).
	Attrs []TraceAttr `json:"attrs,omitempty"`
	Error string      `json:"error,omitempty"`
}

// TraceAttr is one key/value annotation of a TraceSpan.
type TraceAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceQuery filters FetchTraces. The zero value returns everything the
// flight recorder holds.
type TraceQuery struct {
	// Stream keeps spans of one stream; TraceID one trace (32 hex chars);
	// Route whole traces rooted at one route template
	// ("/v1/streams/{name}/report").
	Stream  string
	TraceID string
	Route   string
	// MinDuration drops spans faster than this.
	MinDuration time.Duration
	// Limit keeps only the most recent N matching spans (0 = all).
	Limit int
}

// Traces is FetchTraces' answer: the recorder's geometry plus the matching
// spans, oldest first.
type Traces struct {
	// Capacity is the flight recorder's span capacity; Recorded counts
	// spans ever recorded (at most Capacity are still held).
	Capacity int         `json:"capacity"`
	Recorded uint64      `json:"recorded"`
	Spans    []TraceSpan `json:"spans"`
	// Exemplars maps endpoint to the most recent trace-annotated request
	// duration — the bridge from a latency tail on /metrics to a trace ID.
	Exemplars map[string]TraceExemplar `json:"exemplars,omitempty"`
}

// TraceExemplar is one trace-annotated histogram observation.
type TraceExemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

// FetchTraces queries GET {baseURL}/v1/debug/traces on a collector's debug
// listener (cmd/ldpserver -debug-addr; the route is not mounted on the
// public port). nil hc uses http.DefaultClient.
func FetchTraces(baseURL string, q TraceQuery, hc *http.Client) (*Traces, error) {
	params := url.Values{}
	if q.Stream != "" {
		params.Set("stream", q.Stream)
	}
	if q.TraceID != "" {
		params.Set("trace", q.TraceID)
	}
	if q.Route != "" {
		params.Set("route", q.Route)
	}
	if q.MinDuration > 0 {
		params.Set("min_duration", q.MinDuration.String())
	}
	if q.Limit > 0 {
		params.Set("limit", fmt.Sprintf("%d", q.Limit))
	}
	path := "/v1/debug/traces"
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	body, err := opsGet(baseURL, path, hc)
	if err != nil {
		return nil, fmt.Errorf("repro: fetch traces: %w", err)
	}
	var out Traces
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("repro: fetch traces: undecodable response: %w", err)
	}
	return &out, nil
}

// AwaitServerReady polls GET {baseURL}/readyz until it answers 200 or the
// deadline passes — the programmatic version of "wait for the snapshot
// restore before pointing traffic at it". A collector that does not answer
// yet (connection refused, say, because it is not listening) is polled like
// one answering 503, and the last transport error is returned at the
// deadline; a non-http(s) URL or an unexpected status fails at once. Each
// probe is bounded by the time left, so a collector that accepts the
// connection but answers slowly, or never, cannot hold the caller past the
// deadline.
func AwaitServerReady(baseURL string, hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	ctx, cancel := context.WithDeadline(context.TODO(), deadline)
	defer cancel()
	for {
		ok, detail, _, err := opsProbe(ctx, baseURL, "/readyz", hc)
		if err != nil && !errors.As(err, new(transportError)) {
			return fmt.Errorf("repro: await ready: %w", err)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("repro: await ready: no answer after %v: %w", timeout, err)
			}
			return fmt.Errorf("repro: await ready: not ready after %v (%s)", timeout, detail)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
