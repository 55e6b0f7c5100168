package ldphttp

// Coverage for the estimate-quality surface: the per-stream and fleet
// diagnostics endpoints (shape, filters, envelope discipline), the gzip
// content negotiation on /metrics, and the end-to-end drift story — a
// seeded cohort shift on one windowed stream raises a drift alert visible
// in /metrics, in the diagnostics JSON and through the fleet filter, while
// a stationary control stream stays quiet, and the alert clears again after
// enough quiet epochs.

import (
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/randx"
	"repro/internal/telemetry"
)

func getDiagnostics(t *testing.T, baseURL, stream string) StreamDiagnostics {
	t.Helper()
	resp, _ := doReq(t, baseURL, "GET", "/v1/streams/"+stream+"/diagnostics", "")
	if resp.StatusCode != 200 {
		t.Fatalf("GET diagnostics(%s): %d", stream, resp.StatusCode)
	}
	resp2, err := http.Get(baseURL + "/v1/streams/" + stream + "/diagnostics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var d StreamDiagnostics
	if err := json.NewDecoder(resp2.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiagnosticsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		if resp, _ := doReq(t, ts.URL, "POST", "/v1/streams/default/report", `{"report": 0.5}`); resp.StatusCode != 200 {
			t.Fatalf("report %d: %d", i, resp.StatusCode)
		}
	}
	getFreshEstimate(t, ts.URL, 3)

	d := getDiagnostics(t, ts.URL, "default")
	if d.Stream != "default" || d.Mechanism != "sw" {
		t.Errorf("identity = %s/%s, want default/sw", d.Stream, d.Mechanism)
	}
	if !d.EMBased {
		t.Error("sw stream should be EM-based")
	}
	if d.Refreshes < 1 {
		t.Errorf("refreshes = %d, want >= 1", d.Refreshes)
	}
	if d.Convergence.Iterations < 1 {
		t.Errorf("iterations = %d, want >= 1", d.Convergence.Iterations)
	}
	if d.Users != 3 || d.PendingReports != 0 {
		t.Errorf("users/pending = %d/%d, want 3/0", d.Users, d.PendingReports)
	}
	if d.LastRefreshAgeSeconds < 0 {
		t.Errorf("refresh age = %v, want >= 0 after a refresh", d.LastRefreshAgeSeconds)
	}
	if d.Confidence.Level != 0.95 || d.Confidence.HalfWidth <= 0 {
		t.Errorf("confidence = %+v, want level 0.95 and a positive half-width", d.Confidence)
	}
	if !d.Confidence.Approximate {
		t.Error("sw confidence should be flagged approximate")
	}
	if d.Drift != nil {
		t.Error("unwindowed stream grew a drift block")
	}
	if d.WarmStart.ColdIterations < 1 {
		t.Errorf("cold iterations = %d, want >= 1", d.WarmStart.ColdIterations)
	}

	// The estimate quality gauges landed in the exposition.
	sc := scrape(t, ts.URL)
	if v, ok := sc.Value("ldp_estimate_ci_halfwidth", "stream=default"); !ok || v <= 0 {
		t.Errorf("ldp_estimate_ci_halfwidth{stream=default} = %v (present %v), want > 0", v, ok)
	}
	if v, ok := sc.Value("ldp_em_converged", "stream=default"); !ok || v != 1 {
		t.Errorf("ldp_em_converged{stream=default} = %v (present %v), want 1", v, ok)
	}
	if _, ok := sc.Value("ldp_estimate_loglik", "stream=default"); !ok {
		t.Error("ldp_estimate_loglik{stream=default} missing")
	}

	// The stream's links advertise the resource.
	var info StreamInfo
	resp, err := http.Get(ts.URL + "/v1/streams/default")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Links.Diagnostics != "/v1/streams/default/diagnostics" {
		t.Errorf("links.diagnostics = %q", info.Links.Diagnostics)
	}

	// Envelope discipline: unknown stream 404s, wrong method 405s with Allow.
	if resp, env := doReq(t, ts.URL, "GET", "/v1/streams/nope/diagnostics", ""); resp.StatusCode != 404 || env.Error.Code != CodeUnknownStream {
		t.Errorf("unknown stream: %d %q", resp.StatusCode, env.Error.Code)
	}
	if resp, env := doReq(t, ts.URL, "POST", "/v1/streams/default/diagnostics", "{}"); resp.StatusCode != 405 ||
		env.Error.Code != CodeMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Errorf("POST diagnostics: %d %q Allow=%q", resp.StatusCode, env.Error.Code, resp.Header.Get("Allow"))
	}
	if resp, env := doReq(t, ts.URL, "DELETE", "/v1/diagnostics", ""); resp.StatusCode != 405 || env.Error.Code != CodeMethodNotAllowed {
		t.Errorf("DELETE fleet diagnostics: %d %q", resp.StatusCode, env.Error.Code)
	}
}

func TestFleetDiagnosticsFilters(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.CreateStream("age", StreamConfig{Epsilon: 2, Buckets: 16, Mechanism: "oue"}); err != nil {
		t.Fatal(err)
	}

	fetch := func(query string) FleetDiagnostics {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/diagnostics" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET /v1/diagnostics%s: %d", query, resp.StatusCode)
		}
		var f FleetDiagnostics
		if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
			t.Fatal(err)
		}
		return f
	}

	if f := fetch(""); len(f.Streams) != 2 {
		t.Fatalf("unfiltered fleet = %d streams, want 2", len(f.Streams))
	}
	if f := fetch("?stream=age"); len(f.Streams) != 1 || f.Streams[0].Stream != "age" {
		t.Errorf("stream filter returned %+v", f.Streams)
	}
	if f := fetch("?mechanism=oue"); len(f.Streams) != 1 || f.Streams[0].Mechanism != "oue" {
		t.Errorf("mechanism filter returned %+v", f.Streams)
	}
	if f := fetch("?alerting=false"); len(f.Streams) != 2 {
		t.Errorf("alerting=false returned %d streams, want 2 (nothing alerts)", len(f.Streams))
	}
	if f := fetch("?alerting=true"); len(f.Streams) != 0 {
		t.Errorf("alerting=true returned %d streams, want 0", len(f.Streams))
	}
	if resp, env := doReq(t, ts.URL, "GET", "/v1/diagnostics?alerting=sideways", ""); resp.StatusCode != 400 || env.Error.Code != CodeBadRequest {
		t.Errorf("bad alerting filter: %d %q", resp.StatusCode, env.Error.Code)
	}
}

func TestMetricsGzipNegotiation(t *testing.T) {
	_, ts := newTestServer(t)
	// A transport with transparent decompression disabled shows the raw
	// negotiation result.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	get := func(acceptEncoding string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("gzip")
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", resp.Header.Get("Content-Encoding"))
	}
	if !strings.Contains(resp.Header.Get("Vary"), "Accept-Encoding") {
		t.Errorf("Vary = %q, want Accept-Encoding", resp.Header.Get("Vary"))
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(gz)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("gzipped exposition does not lint: %v", err)
	}
	if v, _ := sc.Value("ldp_up"); v != 1 {
		t.Errorf("ldp_up through gzip = %v, want 1", v)
	}

	// No opt-in, or an explicit opt-out (any zero weight), keeps the
	// identity encoding.
	for _, enc := range []string{"", "identity", "gzip;q=0", "br", "gzip;q=0.0", "gzip;q=0.000", "gzip;q=0, *"} {
		resp := get(enc)
		if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Errorf("Accept-Encoding %q got Content-Encoding %q, want identity", enc, ce)
		}
		if _, err := telemetry.ParseText(resp.Body); err != nil {
			t.Errorf("identity exposition (%q) does not lint: %v", enc, err)
		}
		resp.Body.Close()
	}

	// q-valued and listed forms still negotiate gzip, and an explicit gzip
	// entry outranks "*".
	for _, enc := range []string{"gzip;q=0.5", "br, gzip", "GZIP", "*;q=0, gzip"} {
		resp := get(enc)
		if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
			t.Errorf("Accept-Encoding %q got Content-Encoding %q, want gzip", enc, ce)
		}
		resp.Body.Close()
	}
}

// postShapedReports ingests n sw reports drawn from Beta(a, b) into stream.
func postShapedReports(t *testing.T, url, stream string, seed uint64, n int, a, b float64) {
	t.Helper()
	client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
	rng := randx.New(seed)
	reports := make([]float64, n)
	for i := range reports {
		reports[i] = client.Report(rng.Beta(a, b), rng)
	}
	blob, _ := json.Marshal(map[string]any{"reports": reports})
	resp, err := http.Post(url+"/v1/streams/"+stream+"/batch", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
}

// waitDrift polls a stream's diagnostics until cond accepts the drift block.
func waitDrift(t *testing.T, baseURL, stream, what string, cond func(*diagnose.Drift) bool) StreamDiagnostics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last StreamDiagnostics
	for {
		last = getDiagnostics(t, baseURL, stream)
		if last.Drift != nil && cond(last.Drift) {
			return last
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %q never reached %s (last drift: %+v)", stream, what, last.Drift)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQualityGaugesMirrorDiagnostics pins the one writer of the estimate
// quality gauges: at scrape time each equals the matching field of the
// stream's diagnostics record, log-likelihood is exposed only for EM
// streams and drift scores only for windowed ones.
func TestQualityGaugesMirrorDiagnostics(t *testing.T) {
	clock := newMockClock()
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond, Clock: clock.Now})
	t.Cleanup(s.Close)
	if err := s.CreateStream("age", StreamConfig{Epsilon: 1, Buckets: 32, Mechanism: "oue"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	postShapedReports(t, ts.URL, "default", 1, 600, 5, 2)
	oue := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Mechanism: "oue"})
	rng := randx.New(2)
	reports := make([]any, 600)
	for i := range reports {
		reports[i] = oue.Perturb(rng.Beta(5, 2), rng)
	}
	blob, _ := json.Marshal(map[string]any{"reports": reports})
	if resp, _ := doReq(t, ts.URL, "POST", "/v1/streams/age/batch", string(blob)); resp.StatusCode != 200 {
		t.Fatalf("oue batch status %d", resp.StatusCode)
	}
	for e := 0; e < 2; e++ {
		postShapedReports(t, ts.URL, "lat", uint64(3+e), 600, 5, 2)
		clock.Advance(time.Minute)
		waitRotation(t, s, "lat", e+1)
	}
	waitDrift(t, ts.URL, "lat", "a first score", func(dr *diagnose.Drift) bool { return dr.EpochsScored >= 1 })

	for _, name := range []string{"default", "age", "lat"} {
		// Compare against a record that held still across the scrape, so
		// a refresh landing in between cannot split the two reads.
		var d StreamDiagnostics
		var sc *telemetry.Scrape
		deadline := time.Now().Add(10 * time.Second)
		for {
			before := getDiagnostics(t, ts.URL, name)
			sc = scrape(t, ts.URL)
			d = getDiagnostics(t, ts.URL, name)
			if d.Refreshes > 0 && d.PendingReports == 0 && reflect.DeepEqual(before.Record, d.Record) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: diagnostics never settled (last %+v)", name, d)
			}
			time.Sleep(5 * time.Millisecond)
		}
		label := "stream=" + name
		if v, ok := sc.Value("ldp_estimate_loglik", label); ok != d.EMBased || v != d.Convergence.LogLikelihood {
			t.Errorf("%s: ldp_estimate_loglik = %v (present %v), diagnostics log_likelihood %v (em_based %v)",
				name, v, ok, d.Convergence.LogLikelihood, d.EMBased)
		}
		if v, ok := sc.Value("ldp_estimate_ci_halfwidth", label); !ok || v != d.Confidence.HalfWidth {
			t.Errorf("%s: ldp_estimate_ci_halfwidth = %v (present %v), diagnostics half_width %v",
				name, v, ok, d.Confidence.HalfWidth)
		}
		conv := 0.0
		if d.Convergence.Converged {
			conv = 1
		}
		if v, ok := sc.Value("ldp_em_converged", label); !ok || v != conv {
			t.Errorf("%s: ldp_em_converged = %v (present %v), diagnostics converged %v",
				name, v, ok, d.Convergence.Converged)
		}
		w1, ok := sc.Value("ldp_drift_score", label, "metric=w1")
		ks, _ := sc.Value("ldp_drift_score", label, "metric=ks")
		switch {
		case ok != (d.Drift != nil):
			t.Errorf("%s: ldp_drift_score present %v, diagnostics drift block %+v", name, ok, d.Drift)
		case ok && (w1 != d.Drift.W1 || ks != d.Drift.KS):
			t.Errorf("%s: ldp_drift_score w1/ks = %v/%v, diagnostics %v/%v", name, w1, ks, d.Drift.W1, d.Drift.KS)
		}
	}
}

// TestDriftAlertEndToEnd is the acceptance story: a seeded cohort shift on
// one windowed stream fires a drift alert observable in /metrics, in the
// diagnostics endpoint and through the fleet filter, while a stationary
// control stream ingesting the same volume stays quiet; once the shifted
// cohort stabilizes, the alert clears after three quiet epochs.
func TestDriftAlertEndToEnd(t *testing.T) {
	clock := newMockClock()
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond, Clock: clock.Now})
	t.Cleanup(s.Close)
	for _, name := range []string{"shift", "control"} {
		if err := s.CreateStream(name, StreamConfig{
			Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const perEpoch = 1200
	epoch := func(e int, shiftA, shiftB float64) {
		postShapedReports(t, ts.URL, "shift", uint64(100+e), perEpoch, shiftA, shiftB)
		postShapedReports(t, ts.URL, "control", uint64(200+e), perEpoch, 5, 2)
		clock.Advance(time.Minute)
		waitRotation(t, s, "shift", e+1)
		waitRotation(t, s, "control", e+1)
	}

	// Epochs 0–1: both cohorts sample Beta(5, 2). Epoch 0 primes the drift
	// baseline, epoch 1 produces the first (quiet) score.
	epoch(0, 5, 2)
	epoch(1, 5, 2)
	d := waitDrift(t, ts.URL, "shift", "a first score", func(dr *diagnose.Drift) bool { return dr.EpochsScored >= 1 })
	if d.Drift.Alerting {
		t.Fatalf("stationary epochs already alert: %+v", d.Drift)
	}

	// Epoch 2: the shift cohort jumps to Beta(2, 5).
	epoch(2, 2, 5)
	d = waitDrift(t, ts.URL, "shift", "the drift alert", func(dr *diagnose.Drift) bool { return dr.Alerting })
	if d.Drift.AlertsTotal != 1 {
		t.Errorf("alerts_total = %d, want 1", d.Drift.AlertsTotal)
	}
	if d.Drift.W1 < 0.08 && d.Drift.KS < 0.2 {
		t.Errorf("alerting with sub-threshold scores: %+v", d.Drift)
	}

	// The alert is visible in the exposition, on this stream only.
	sc := scrape(t, ts.URL)
	if v, ok := sc.Value("ldp_drift_alerts_total", "stream=shift"); !ok || v != 1 {
		t.Errorf("ldp_drift_alerts_total{stream=shift} = %v (present %v), want 1", v, ok)
	}
	if v, _ := sc.Value("ldp_drift_alerts_total", "stream=control"); v != 0 {
		t.Errorf("ldp_drift_alerts_total{stream=control} = %v, want 0", v)
	}
	if w1, ok := sc.Value("ldp_drift_score", "stream=shift", "metric=w1"); !ok {
		t.Error("ldp_drift_score{stream=shift,metric=w1} missing")
	} else if ks, _ := sc.Value("ldp_drift_score", "stream=shift", "metric=ks"); w1 < 0.08 && ks < 0.2 {
		t.Errorf("exposed drift scores below both fire thresholds: w1=%v ks=%v", w1, ks)
	}

	// The control stream never alerted, and the fleet filter finds exactly
	// the alerting stream.
	if cd := getDiagnostics(t, ts.URL, "control"); cd.Drift == nil || cd.Drift.Alerting {
		t.Errorf("control drift = %+v, want quiet", cd.Drift)
	}
	resp, err := http.Get(ts.URL + "/v1/diagnostics?alerting=true")
	if err != nil {
		t.Fatal(err)
	}
	var fleet FleetDiagnostics
	json.NewDecoder(resp.Body).Decode(&fleet)
	resp.Body.Close()
	if len(fleet.Streams) != 1 || fleet.Streams[0].Stream != "shift" {
		t.Errorf("alerting fleet filter = %+v, want exactly [shift]", fleet.Streams)
	}

	// Epochs 3–5: the shifted cohort stabilizes on Beta(2, 5); three quiet
	// epochs clear the alert without a second raise.
	epoch(3, 2, 5)
	epoch(4, 2, 5)
	epoch(5, 2, 5)
	d = waitDrift(t, ts.URL, "shift", "the alert clearing", func(dr *diagnose.Drift) bool { return !dr.Alerting })
	if d.Drift.AlertsTotal != 1 {
		t.Errorf("alerts_total after clearing = %d, want still 1", d.Drift.AlertsTotal)
	}
	if d.Drift.EpochsScored < 5 {
		t.Errorf("epochs_scored = %d, want >= 5", d.Drift.EpochsScored)
	}
}
