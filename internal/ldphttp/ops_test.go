package ldphttp

// Coverage for the operational surface: the /metrics exposition (linted
// through the telemetry parser), the health/readiness probes, the uniform
// error envelope across every endpoint and failure mode, admission control,
// and the chaos property — an overloaded collector sheds, it never stalls.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/federate"
	"repro/internal/sw"
	"repro/internal/telemetry"
)

// envelope is the uniform non-2xx body.
type envelope struct {
	Error struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	} `json:"error"`
}

// doReq fires one request and decodes the envelope (zero-valued on 2xx).
func doReq(t *testing.T, baseURL, method, path, body string) (*http.Response, envelope) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, baseURL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob := new(bytes.Buffer)
	blob.ReadFrom(resp.Body)
	var env envelope
	if resp.StatusCode >= 300 {
		if err := json.Unmarshal(blob.Bytes(), &env); err != nil {
			t.Fatalf("%s %s: %d with a non-envelope body %q: %v", method, path, resp.StatusCode, blob.Bytes(), err)
		}
	}
	return resp, env
}

// scrape fetches and lints /metrics through the exposition parser.
func scrape(t *testing.T, baseURL string) *telemetry.Scrape {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	sc, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	return sc
}

// TestEnvelopeMatrix drives every endpoint family through its failure modes
// and demands the same envelope shape — a stable machine-readable code, a
// human message — plus the status each mode owns.
func TestEnvelopeMatrix(t *testing.T) {
	s := NewServer(Config{
		Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour,
		Federation: FederationConfig{Accept: true},
		Ops:        OpsConfig{MaxBodyBytes: 2 << 10},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.CreateStream("age", StreamConfig{Epsilon: 2, Buckets: 16}); err != nil {
		t.Fatal(err)
	}
	ghostPush, err := federate.EncodePush("e1", 1, []federate.StreamDelta{{
		Stream: "ghost",
		Fingerprint: federate.Fingerprint{Mechanism: "sw", Epsilon: 1, Buckets: 8,
			OutputBuckets: 8, Bandwidth: sw.BOpt(1)},
		Epochs: []federate.EpochDelta{{Epoch: 0, N: 1, Counts: []uint64{1, 0, 0, 0, 0, 0, 0, 0}}},
	}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"v1 unknown stream", "GET", "/v1/streams/nope/estimate", "", 404, CodeUnknownStream},
		{"v1 delete unknown", "DELETE", "/v1/streams/nope", "", 404, CodeUnknownStream},
		{"malformed JSON", "POST", "/v1/streams/default/report", `{not json`, 400, CodeBadRequest},
		{"invalid report", "POST", "/v1/streams/default/report", `{"report": [1, 2]}`, 400, CodeBadRequest},
		{"empty batch", "POST", "/v1/streams/default/batch", `{"reports": []}`, 400, CodeBadRequest},
		{"stream mismatch", "POST", "/v1/streams/age/report", `{"stream": "default", "report": 0.5}`, 400, CodeStreamMismatch},
		{"declare conflict", "POST", "/v1/streams", `{"name": "age", "epsilon": 3, "buckets": 16}`, 409, CodeStreamConflict},
		{"estimate before reports", "GET", "/v1/streams/age/estimate", "", 409, CodeNoReports},
		{"window on unwindowed", "GET", "/v1/streams/age/estimate?window=last:2", "", 400, CodeNotWindowed},
		{"method not allowed", "PUT", "/v1/streams", "", 405, CodeMethodNotAllowed},
		{"v1 item method", "POST", "/v1/streams/age", "", 405, CodeMethodNotAllowed},
		{"no such route", "GET", "/nope", "", 404, CodeNotFound},
		{"v1 deep nesting", "GET", "/v1/streams/age/estimate/extra", "", 404, CodeNotFound},
		{"v1 unknown action", "GET", "/v1/streams/age/frobnicate", "", 404, CodeNotFound},
		{"v1 unknown action DELETE", "DELETE", "/v1/streams/age/frobnicate", "", 404, CodeNotFound},
		{"removed flat streams", "GET", "/streams", "", 404, CodeNotFound},
		{"removed flat stream item", "DELETE", "/streams/age", "", 404, CodeNotFound},
		{"removed flat report", "POST", "/report", `{"report": 0.5}`, 404, CodeNotFound},
		{"removed flat batch", "POST", "/batch", `{"reports": [0.5]}`, 404, CodeNotFound},
		{"removed flat estimate", "GET", "/estimate?stream=age", "", 404, CodeNotFound},
		{"removed flat query", "GET", "/query?type=mean", "", 404, CodeNotFound},
		{"removed flat config", "GET", "/config", "", 404, CodeNotFound},
		{"body too large", "POST", "/v1/streams/default/report", `{"report": [` + strings.Repeat("1,", 4096) + `1]}`, 413, CodeBodyTooLarge},
		{"federation unknown stream", "POST", "/federation/push", string(ghostPush), 409, federate.ReasonUnknownStream},
		{"federation malformed", "POST", "/federation/push", `{not json`, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, env := doReq(t, ts.URL, tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (envelope %+v)", tc.method, tc.path, resp.StatusCode, tc.wantStatus, env)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Errorf("%s %s: envelope carries no message", tc.method, tc.path)
			}
		})
	}
}

// TestRateLimitEnvelope covers the 429 modes: the global admission tier and
// the per-edge federation tier, each with an honest Retry-After.
func TestRateLimitEnvelope(t *testing.T) {
	s := NewServer(Config{
		Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
		Federation: FederationConfig{Accept: true, AutoDeclare: true},
		Ops:        OpsConfig{RateLimit: 0.001, RateBurst: 2, EdgeRateLimit: 0.001, EdgeRateBurst: 1},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Burst 2: two requests pass, the third sheds with ~1000s to wait.
	counts := []uint64{1, 0, 0, 0, 0, 0, 0, 0}
	push := func(seq int64) string {
		blob, err := federate.EncodePush("e1", seq, []federate.StreamDelta{{
			Stream: "s",
			Fingerprint: federate.Fingerprint{Mechanism: "sw", Epsilon: 1, Buckets: 8,
				OutputBuckets: 8, Bandwidth: sw.BOpt(1)},
			Epochs: []federate.EpochDelta{{Epoch: 0, N: 1, Counts: counts}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	if resp, _ := doReq(t, ts.URL, "POST", "/federation/push", push(1)); resp.StatusCode != 200 {
		t.Fatalf("first push: %d", resp.StatusCode)
	}
	// Second push: past the edge bucket (burst 1) but within the global
	// bucket (burst 2) — the 429 must come from the edge tier.
	resp, env := doReq(t, ts.URL, "POST", "/federation/push", push(2))
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != CodeRateLimited {
		t.Fatalf("edge-tier push: %d %+v, want 429 rate_limited", resp.StatusCode, env)
	}
	if env.Error.RetryAfterMS <= 0 {
		t.Fatalf("429 without retry_after_ms: %+v", env)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// Third request: the global bucket (2 tokens, both consumed) sheds.
	resp, env = doReq(t, ts.URL, "POST", "/v1/streams/default/report", `{"report": 0.5}`)
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != CodeRateLimited {
		t.Fatalf("global-tier report: %d %+v, want 429 rate_limited", resp.StatusCode, env)
	}
	// The operational endpoints stay exempt while the server sheds.
	for _, path := range []string{"/metrics", "/healthz", "/readyz"} {
		if resp, _ := doReq(t, ts.URL, "GET", path, ""); resp.StatusCode != 200 {
			t.Errorf("GET %s during shedding: %d, want 200", path, resp.StatusCode)
		}
	}
	sc := scrape(t, ts.URL)
	if v, _ := sc.Value("ldp_shed_total", "endpoint=/federation/push", "scope=edge"); v != 1 {
		t.Errorf("edge shed counter = %v, want 1", v)
	}
	if v := sc.Counter("ldp_shed_total", "scope=global"); v < 1 {
		t.Errorf("global shed counter = %v, want >= 1", v)
	}
}

// TestMetricsExposition is the golden test for /metrics: the exposition
// lints, every expected family is declared with the right type, and the
// counters agree with the traffic that produced them.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.CreateStream("age", StreamConfig{Epsilon: 2, Buckets: 16, Mechanism: "oue"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resp, _ := doReq(t, ts.URL, "POST", "/v1/streams/default/report", `{"report": 0.5}`); resp.StatusCode != 200 {
			t.Fatalf("report %d: %d", i, resp.StatusCode)
		}
	}
	getFreshEstimate(t, ts.URL, 3)

	sc := scrape(t, ts.URL)
	families := map[string]telemetry.Kind{
		"ldp_requests_total":                 telemetry.KindCounter,
		"ldp_request_duration_seconds":       telemetry.KindHistogram,
		"ldp_shed_total":                     telemetry.KindCounter,
		"ldp_reports_total":                  telemetry.KindCounter,
		"ldp_em_refresh_seconds":             telemetry.KindHistogram,
		"ldp_estimate_freshness_seconds":     telemetry.KindHistogram,
		"ldp_em_iterations":                  telemetry.KindHistogram,
		"ldp_em_refreshes_total":             telemetry.KindCounter,
		"ldp_em_refresh_queue_depth":         telemetry.KindGauge,
		"ldp_em_staleness_reports":           telemetry.KindGauge,
		"ldp_em_refresh_age_seconds":         telemetry.KindGauge,
		"ldp_epoch_rotations_total":          telemetry.KindCounter,
		"ldp_streams":                        telemetry.KindGauge,
		"ldp_snapshots_total":                telemetry.KindCounter,
		"ldp_snapshot_seconds":               telemetry.KindHistogram,
		"ldp_federation_absorbed_total":      telemetry.KindCounter,
		"ldp_federation_push_lag_seconds":    telemetry.KindGauge,
		"ldp_up":                             telemetry.KindGauge,
		"ldp_ready":                          telemetry.KindGauge,
		"ldp_healthy":                        telemetry.KindGauge,
		"ldp_scrape_duration_seconds":        telemetry.KindHistogram,
		"ldp_scrape_errors_total":            telemetry.KindCounter,
		"ldp_estimate_loglik":                telemetry.KindGauge,
		"ldp_estimate_ci_halfwidth":          telemetry.KindGauge,
		"ldp_em_converged":                   telemetry.KindGauge,
		"ldp_drift_score":                    telemetry.KindGauge,
		"ldp_drift_alerts_total":             telemetry.KindCounter,
		"ldp_telemetry_series":               telemetry.KindGauge,
		"ldp_telemetry_dropped_series_total": telemetry.KindCounter,
	}
	for name, kind := range families {
		fam, ok := sc.Families[name]
		if !ok {
			t.Errorf("family %s missing from the exposition", name)
			continue
		}
		if fam.Kind != kind {
			t.Errorf("family %s is a %s, want %s", name, fam.Kind, kind)
		}
		if fam.Help == "" {
			t.Errorf("family %s has no HELP", name)
		}
	}
	if v, ok := sc.Value("ldp_reports_total", "stream=default", "mechanism=sw"); !ok || v != 3 {
		t.Errorf("ldp_reports_total{stream=default} = %v (present %v), want 3", v, ok)
	}
	if v, _ := sc.Value("ldp_streams"); v != 2 {
		t.Errorf("ldp_streams = %v, want 2", v)
	}
	for _, probe := range []string{"ldp_up", "ldp_ready", "ldp_healthy"} {
		if v, _ := sc.Value(probe); v != 1 {
			t.Errorf("%s = %v, want 1", probe, v)
		}
	}
	// The EM refresh histogram observed at least the first reconstruction,
	// the iteration histogram observed its iteration count, and the refresh
	// was attributed to histogram growth.
	if v, _ := sc.Value("ldp_em_refresh_seconds_count", "stream=default"); v < 1 {
		t.Errorf("ldp_em_refresh_seconds_count{stream=default} = %v, want >= 1", v)
	}
	if v, _ := sc.Value("ldp_em_iterations_count", "stream=default"); v < 1 {
		t.Errorf("ldp_em_iterations_count{stream=default} = %v, want >= 1", v)
	}
	// The publish covering the three reports observed how long they waited.
	if v, _ := sc.Value("ldp_estimate_freshness_seconds_count", "stream=default"); v < 1 {
		t.Errorf("ldp_estimate_freshness_seconds_count{stream=default} = %v, want >= 1", v)
	}
	if v, _ := sc.Value("ldp_em_refreshes_total", "stream=default", "reason=growth"); v < 1 {
		t.Errorf("ldp_em_refreshes_total{stream=default,reason=growth} = %v, want >= 1", v)
	}
	// Staleness is zero right after a fresh estimate.
	if v, ok := sc.Value("ldp_em_staleness_reports", "stream=default"); !ok || v != 0 {
		t.Errorf("ldp_em_staleness_reports{stream=default} = %v, want 0", v)
	}
	// Requests were counted under stable route-template labels.
	if v, _ := sc.Value("ldp_requests_total", "endpoint=/v1/streams/{name}/report", "method=POST", "code=200"); v != 3 {
		t.Errorf("ldp_requests_total{endpoint=/v1/streams/{name}/report} = %v, want 3", v)
	}
	// Scrape self-metrics: the second exposition carries the first one's
	// duration observation and a zero error count.
	sc2 := scrape(t, ts.URL)
	if v, _ := sc2.Value("ldp_scrape_duration_seconds_count"); v < 1 {
		t.Errorf("ldp_scrape_duration_seconds_count = %v, want >= 1", v)
	}
	if v, ok := sc2.Value("ldp_scrape_errors_total"); !ok || v != 0 {
		t.Errorf("ldp_scrape_errors_total = %v (present %v), want 0", v, ok)
	}
}

// TestTelemetryDisabled covers the opt-out: no /metrics, no panics on the
// instrumented paths.
func TestTelemetryDisabled(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
		Ops: OpsConfig{DisableTelemetry: true}})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, _ := doReq(t, ts.URL, "POST", "/v1/streams/default/report", `{"report": 0.5}`); resp.StatusCode != 200 {
		t.Fatalf("report with telemetry disabled: %d", resp.StatusCode)
	}
	resp, env := doReq(t, ts.URL, "GET", "/metrics", "")
	if resp.StatusCode != 404 || env.Error.Code != CodeNotFound {
		t.Fatalf("GET /metrics with telemetry disabled: %d %+v, want 404 not_found", resp.StatusCode, env)
	}
	// The probes still work.
	if resp, _ := doReq(t, ts.URL, "GET", "/healthz", ""); resp.StatusCode != 200 {
		t.Fatalf("GET /healthz with telemetry disabled: %d", resp.StatusCode)
	}
}

// TestReadyzAwaitsRestore pins the readiness lifecycle: a server configured
// to await a snapshot restore fails /readyz (503 not_ready, with a
// Retry-After) until LoadSnapshot succeeds, while /healthz stays green the
// whole time.
func TestReadyzAwaitsRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	donor := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	if err := donor.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	donor.Close()

	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
		Ops: OpsConfig{AwaitRestore: true}})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, env := doReq(t, ts.URL, "GET", "/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeNotReady {
		t.Fatalf("pre-restore /readyz: %d %+v, want 503 not_ready", resp.StatusCode, env)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("pre-restore /readyz carries no Retry-After")
	}
	if resp, _ := doReq(t, ts.URL, "GET", "/healthz", ""); resp.StatusCode != 200 {
		t.Errorf("pre-restore /healthz: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
	if v, _ := scrape(t, ts.URL).Value("ldp_ready"); v != 0 {
		t.Errorf("pre-restore ldp_ready = %v, want 0", v)
	}

	if err := s.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if resp, _ := doReq(t, ts.URL, "GET", "/readyz", ""); resp.StatusCode != 200 {
		t.Fatalf("post-restore /readyz: %d, want 200", resp.StatusCode)
	}
	if v, _ := scrape(t, ts.URL).Value("ldp_ready"); v != 1 {
		t.Errorf("post-restore ldp_ready = %v, want 1", v)
	}

	// MarkReady is the cold-start path (no snapshot on disk yet).
	cold := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
		Ops: OpsConfig{AwaitRestore: true}})
	t.Cleanup(cold.Close)
	if cold.Ready() {
		t.Fatal("AwaitRestore server started ready")
	}
	cold.MarkReady()
	if !cold.Ready() {
		t.Fatal("MarkReady did not flip readiness")
	}
}

// TestHealthzReportsStoppedEngine: closing the server turns /healthz into a
// 503 engine_stopped.
func TestHealthzReportsStoppedEngine(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, _ := doReq(t, ts.URL, "GET", "/healthz", ""); resp.StatusCode != 200 {
		t.Fatalf("live /healthz: %d", resp.StatusCode)
	}
	s.Close()
	resp, env := doReq(t, ts.URL, "GET", "/healthz", "")
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeEngineStopped {
		t.Fatalf("closed /healthz: %d %+v, want 503 engine_stopped", resp.StatusCode, env)
	}
}

// TestV1StreamViewsAgree pins the /v1 views of one stream to each other:
// GET /v1/streams/{name} carries the full effective config — identical to
// GET .../config — plus links, the listing carries the same blocks, and
// DELETE through the path retires the stream.
func TestV1StreamViewsAgree(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.CreateStream("age", StreamConfig{Epsilon: 2, Buckets: 16}); err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	var info StreamInfo
	if err := json.Unmarshal(get("/v1/streams/age"), &info); err != nil {
		t.Fatal(err)
	}
	var cfg ConfigResponse
	if err := json.Unmarshal(get("/v1/streams/age/config"), &cfg); err != nil {
		t.Fatal(err)
	}
	if info.Config != cfg {
		t.Errorf("stream info config block %+v != GET /config %+v", info.Config, cfg)
	}
	if info.Links.Self != "/v1/streams/age" || info.Links.Report != "/v1/streams/age/report" {
		t.Errorf("stream info links wrong: %+v", info.Links)
	}
	var list struct {
		Streams []StreamInfo `json:"streams"`
	}
	if err := json.Unmarshal(get("/v1/streams"), &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, si := range list.Streams {
		if si.Name == "age" {
			found = true
			if si.Config != cfg || si.Links != info.Links {
				t.Errorf("listing entry diverges from item: %+v", si)
			}
		}
	}
	if !found {
		t.Fatal("stream age missing from GET /v1/streams")
	}

	if resp, _ := doReq(t, ts.URL, "DELETE", "/v1/streams/age", ""); resp.StatusCode != 200 {
		t.Fatalf("v1 delete: %d", resp.StatusCode)
	}
	if resp, env := doReq(t, ts.URL, "GET", "/v1/streams/age", ""); resp.StatusCode != 404 || env.Error.Code != CodeUnknownStream {
		t.Fatalf("deleted stream still answers: %d %+v", resp.StatusCode, env)
	}
}

// TestShedsNeverStalls is the chaos property: a collector drowning in
// traffic sheds the excess with 429s — and keeps answering its probes and
// serving its metrics the whole time. Nothing blocks, nothing 500s.
func TestShedsNeverStalls(t *testing.T) {
	s := NewServer(Config{
		Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour,
		Ops: OpsConfig{RateLimit: 25, RateBurst: 50},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const (
		workers   = 8
		perWorker = 50
		totalReqs = workers * perWorker
	)
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/streams/default/report", "application/json",
					strings.NewReader(`{"report": 0.5}`))
				if err != nil {
					other.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						other.Add(1)
					} else {
						shed.Add(1)
					}
				default:
					other.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	// While the storm runs, the operational surface must answer promptly.
	probeDone := make(chan struct{})
	var slowProbe atomic.Int64
	go func() {
		defer close(probeDone)
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
				start := time.Now()
				resp, err := http.Get(ts.URL + path)
				if err != nil || resp.StatusCode != http.StatusOK {
					slowProbe.Add(1)
					if err == nil {
						resp.Body.Close()
					}
					continue
				}
				resp.Body.Close()
				if time.Since(start) > 2*time.Second {
					slowProbe.Add(1)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-probeDone

	if other.Load() != 0 {
		t.Fatalf("%d requests answered something other than 200 or enveloped 429", other.Load())
	}
	if got := ok.Load() + shed.Load(); got != totalReqs {
		t.Fatalf("accounted for %d of %d requests", got, totalReqs)
	}
	if ok.Load() == 0 {
		t.Fatal("everything shed: the burst capacity admitted nothing")
	}
	if shed.Load() == 0 {
		t.Skip("load too slow to trip the limiter on this machine")
	}
	if slowProbe.Load() != 0 {
		t.Fatalf("%d probe requests failed or stalled during the storm", slowProbe.Load())
	}
	// The shed counter agrees with what the clients saw.
	sc := scrape(t, ts.URL)
	if v, _ := sc.Value("ldp_shed_total", "endpoint=/v1/streams/{name}/report", "scope=global"); int64(v) != shed.Load() {
		t.Errorf("ldp_shed_total = %v, clients saw %d 429s", v, shed.Load())
	}
	if v, _ := sc.Value("ldp_requests_total", "endpoint=/v1/streams/{name}/report", "method=POST", "code=429"); int64(v) != shed.Load() {
		t.Errorf("ldp_requests_total{code=429} = %v, clients saw %d", v, shed.Load())
	}
	// Ingestion stayed exact for everything admitted.
	if n := s.N(); n != int(ok.Load()) {
		t.Errorf("server ingested %d reports, admitted %d", n, ok.Load())
	}
}

// TestAccessLog covers both structured formats.
func TestAccessLog(t *testing.T) {
	for _, jsonFmt := range []bool{false, true} {
		var buf bytes.Buffer
		var mu sync.Mutex
		s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
			Ops: OpsConfig{AccessLog: &syncWriter{w: &buf, mu: &mu}, LogJSON: jsonFmt}})
		ts := httptest.NewServer(s.Handler())
		if resp, _ := doReq(t, ts.URL, "POST", "/v1/streams/default/report", `{"report": 0.5}`); resp.StatusCode != 200 {
			t.Fatalf("report: %d", resp.StatusCode)
		}
		ts.Close()
		s.Close()
		mu.Lock()
		line := strings.TrimSpace(buf.String())
		mu.Unlock()
		if jsonFmt {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access log line is not JSON: %q: %v", line, err)
			}
			if rec["method"] != "POST" || rec["status"] != float64(200) {
				t.Errorf("JSON access log fields wrong: %v", rec)
			}
		} else {
			if !strings.Contains(line, "method=POST") || !strings.Contains(line, "status=200") ||
				!strings.Contains(line, `path="/v1/streams/default/report"`) {
				t.Errorf("kv access log line wrong: %q", line)
			}
		}
	}
}

type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (sw *syncWriter) Write(b []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(b)
}

// BenchmarkTelemetryOverhead compares the report hot path across the
// observability configurations; the CI contract is under 5% regression for
// both telemetry (instrumented vs disabled) and tracing at the default
// sampling rate (traced vs untraced). traced-always is the worst case —
// every request allocating and recording spans — and is informational.
// traced and instrumented are the same configuration, an A/A check: they
// should read the same.
//
// All five servers are built and warmed before timing, then timed in
// round-robin chunks, so no configuration pays for running first; each
// reports its own <name>-ns/op, and its <name>-allocs/op and <name>-B/op
// from the warm-up.
func BenchmarkTelemetryOverhead(b *testing.B) {
	configs := []struct {
		name string
		ops  OpsConfig
	}{
		// traced: telemetry plus tracing at the default 1-in-128 sampling —
		// the shipped configuration. untraced: telemetry on, tracing off.
		{"traced", OpsConfig{}},
		{"untraced", OpsConfig{Trace: TraceConfig{Disable: true}}},
		{"traced-always", OpsConfig{Trace: TraceConfig{SampleEvery: 1}}},
		{"instrumented", OpsConfig{}},
		{"disabled", OpsConfig{DisableTelemetry: true, Trace: TraceConfig{Disable: true}}},
	}
	body := []byte(`{"report": 0.5}`)
	serve := func(h http.Handler) {
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/default/report", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("report answered %d", rec.Code)
		}
	}
	const warm, chunk = 2048, 64
	handlers := make([]http.Handler, len(configs))
	allocs, allocBytes := make([]float64, len(configs)), make([]float64, len(configs))
	for i, c := range configs {
		s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour, Ops: c.ops})
		defer s.Close()
		handlers[i] = s.Handler()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range warm {
			serve(handlers[i])
		}
		runtime.ReadMemStats(&after)
		allocs[i] = float64(after.Mallocs-before.Mallocs) / warm
		allocBytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / warm
	}
	elapsed := make([]time.Duration, len(configs))
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		n := min(chunk, b.N-done)
		for i, h := range handlers {
			start := time.Now()
			for range n {
				serve(h)
			}
			elapsed[i] += time.Since(start)
		}
	}
	b.StopTimer()
	for i, c := range configs {
		b.ReportMetric(float64(elapsed[i].Nanoseconds())/float64(b.N), c.name+"-ns/op")
		b.ReportMetric(allocs[i], c.name+"-allocs/op")
		b.ReportMetric(allocBytes[i], c.name+"-B/op")
	}
	b.ReportMetric(0, "ns/op") // one op serves all five; the per-configuration rows say more
}
