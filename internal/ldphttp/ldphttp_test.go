package ldphttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mechanism"
	"repro/internal/randx"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: 20 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// wake queues every stream's refresh now, as the backstop sweep does.
func (s *Server) wake() { s.reg.Wake() }

// getFreshEstimate polls the default stream's estimate until the served
// reconstruction covers every ingested report (the background engine refreshes
// asynchronously, so a bounded number of responses may be stale and the very
// first polls may see 503 while the initial reconstruction runs).
func getFreshEstimate(t *testing.T, url string, wantN int) EstimateResponse {
	t.Helper()
	return getFreshStreamEstimate(t, url, "", wantN)
}

// streamPath is the /v1 resource path of a stream ("" = the default stream).
func streamPath(stream string) string {
	if stream == "" {
		stream = DefaultStream
	}
	return "/v1/streams/" + url.PathEscape(stream)
}

// getFreshStreamEstimate is getFreshEstimate for a named stream.
func getFreshStreamEstimate(t *testing.T, baseURL, stream string, wantN int) EstimateResponse {
	t.Helper()
	target := baseURL + streamPath(stream) + "/estimate"
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(target)
		if err != nil {
			t.Fatal(err)
		}
		var est EstimateResponse
		switch resp.StatusCode {
		case http.StatusOK:
			err = json.NewDecoder(resp.Body).Decode(&est)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if est.N == wantN {
				if est.PendingReports != 0 {
					t.Errorf("fresh estimate reports %d pending", est.PendingReports)
				}
				return est
			}
		case http.StatusServiceUnavailable:
			// First estimate pending — the server answered instead of
			// hanging; keep polling.
			resp.Body.Close()
		default:
			resp.Body.Close()
			t.Fatalf("estimate status = %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimate never caught up: N = %d, want %d", est.N, wantN)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestReportAndEstimate(t *testing.T) {
	srv, ts := newTestServer(t)

	// Client side: randomize locally, ship reports.
	client := core.NewClient(core.Config{Epsilon: 1, Buckets: 64, Smoothing: true})
	rng := randx.New(1)
	const n = 3000
	for i := 0; i < n; i++ {
		resp := postJSON(t, ts.URL+"/v1/streams/default/report", map[string]float64{"report": client.Report(rng.Beta(5, 2), rng)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if srv.N() != n {
		t.Errorf("server N = %d, want %d", srv.N(), n)
	}

	est := getFreshEstimate(t, ts.URL, n)
	if len(est.Distribution) != 64 {
		t.Errorf("estimate buckets=%d", len(est.Distribution))
	}
	if math.Abs(est.Mean-5.0/7.0) > 0.05 {
		t.Errorf("estimated mean = %v, want ≈ 0.714", est.Mean)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	client := core.NewClient(core.Config{Epsilon: 1, Buckets: 64, Smoothing: true})
	rng := randx.New(2)
	reports := make([]float64, 500)
	for i := range reports {
		reports[i] = client.Report(rng.Float64(), rng)
	}
	resp := postJSON(t, ts.URL+"/v1/streams/default/batch", map[string]any{"reports": reports})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if srv.N() != 500 {
		t.Errorf("N = %d", srv.N())
	}
}

func TestConfigEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/streams/default/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cfg ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Epsilon != 1 || cfg.Buckets != 64 {
		t.Errorf("config = %+v", cfg)
	}
	// The response carries the FULL effective configuration: the concrete
	// mechanism, the resolved (not declared-zero) bandwidth, the derived
	// output granularity and the effective stripe count.
	if cfg.Mechanism != "sw" {
		t.Errorf("config mechanism = %q, want sw", cfg.Mechanism)
	}
	if cfg.Bandwidth <= 0 || cfg.Bandwidth > 2 {
		t.Errorf("config bandwidth not resolved: %v", cfg.Bandwidth)
	}
	if cfg.OutputBuckets != 64 {
		t.Errorf("config output_buckets = %d, want 64", cfg.OutputBuckets)
	}
	if cfg.Shards <= 0 {
		t.Errorf("config shards not resolved: %d", cfg.Shards)
	}
}

// TestConfigEndpointWindowed: epoch/retain — the fields PR 2/3 added — come
// back on the config endpoint, so clients can reproduce a windowed stream's setup.
func TestConfigEndpointWindowed(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	if err := s.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32,
		Epoch: Duration(time.Minute), Retain: 6}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/streams/lat/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cfg ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Epoch != Duration(time.Minute) || cfg.Retain != 6 {
		t.Errorf("windowed config = %+v, want epoch 1m retain 6", cfg)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	// Estimate before any reports: 409.
	resp, _ := http.Get(ts.URL + "/v1/streams/default/estimate")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("empty estimate status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	// Wrong method.
	resp, _ = http.Get(ts.URL + "/v1/streams/default/report")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET .../report status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Malformed JSON.
	r, _ := http.Post(ts.URL+"/v1/streams/default/report", "application/json", bytes.NewReader([]byte("{")))
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", r.StatusCode)
	}
	r.Body.Close()
	// Empty batch.
	resp = postJSON(t, ts.URL+"/v1/streams/default/batch", map[string]any{"reports": []float64{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestEstimatePending503 pins the non-blocking contract: reports are in but
// the first reconstruction has not been published, so GET .../estimate must
// answer immediately with 503 and the pending count — never hang the client.
func TestEstimatePending503(t *testing.T) {
	// A huge refresh interval guarantees the engine has not run when the
	// first GET arrives (nothing kicks it before that).
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	postJSON(t, ts.URL+"/v1/streams/default/report", map[string]any{"report": 0.4}).Body.Close()

	done := make(chan struct{})
	var status int
	var body struct {
		PendingReports int `json:"pending_reports"`
	}
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/streams/default/estimate")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		json.NewDecoder(resp.Body).Decode(&body)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("GET .../estimate blocked waiting for the first estimate")
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("pending estimate status = %d, want 503", status)
	}
	if body.PendingReports != 1 {
		t.Errorf("pending_reports = %d, want 1", body.PendingReports)
	}
	// The 503 also woke the engine, so the estimate materializes without
	// waiting for the hour-long tick.
	est := getFreshEstimate(t, ts.URL, 1)
	if est.N != 1 {
		t.Errorf("post-wake estimate N = %d", est.N)
	}
}

// TestRefreshRequestDuringRefreshRuns pins, over HTTP, that a refresh
// request landing while the stream's refresh is running is not dropped: the
// worker holding the stream runs it again, so reports acknowledged after the
// running refresh merged its histogram get published without waiting for
// the next tick (an hour here) or another stale read. Package engine's test
// of the same name watches the worker's busy flag; from here the second
// batch lands a fixed time after the wake, which a cold B=4096
// reconstruction outlasts.
func TestRefreshRequestDuringRefreshRuns(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 4096, RefreshInterval: time.Hour, RefreshWorkers: 2})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	st := s.lookup(DefaultStream)
	getEstimate := func() {
		resp, err := http.Get(ts.URL + streamPath(DefaultStream) + "/estimate")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	postReports(t, ts.URL, DefaultStream, 1, 5000)
	getEstimate() // 503: wakes the engine for the first reconstruction
	// Past the refresh's histogram merge, so the next reports land after
	// it. Landing before it would only make the first refresh cover them.
	time.Sleep(30 * time.Millisecond)
	postReports(t, ts.URL, DefaultStream, 2, 3000)
	getEstimate() // lands while the first refresh is still running

	// Stream info does not wake the engine, so only the requested refresh
	// can publish the last 3,000 reports. (Under -race the two refreshes
	// take seconds.)
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := streamInfo(st)
		if info.EstimateN == 8000 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimate_n = %d with n = %d: the refresh requested mid-refresh never ran", info.EstimateN, info.N)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStreamLifecycle(t *testing.T) {
	srv, ts := newTestServer(t)

	// The default stream exists from birth.
	resp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Streams []StreamInfo `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Streams) != 1 || listing.Streams[0].Name != DefaultStream {
		t.Fatalf("initial streams = %+v", listing.Streams)
	}

	// Declare a stream with its own domain parameters.
	resp = postJSON(t, ts.URL+"/v1/streams", map[string]any{"name": "age", "epsilon": 2.0, "buckets": 32})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create stream status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Redeclaring identically is idempotent; changing parameters conflicts.
	resp = postJSON(t, ts.URL+"/v1/streams", map[string]any{"name": "age", "epsilon": 2.0, "buckets": 32})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("idempotent redeclare status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/streams", map[string]any{"name": "age", "epsilon": 0.5, "buckets": 32})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting redeclare status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Shards is a performance knob, not a mechanism parameter: redeclaring
	// with a different stripe count must not conflict (a restart with a
	// different -shards value re-declares restored streams this way).
	if err := srv.CreateStream("age", StreamConfig{Epsilon: 2, Buckets: 32, Shards: 2}); err != nil {
		t.Errorf("shards-only redeclare rejected: %v", err)
	}

	// Invalid names and parameters are rejected. Stream names are wide
	// (spaces, '%', '/' are all fine — they travel escaped in v1 URLs) but
	// control characters and over-long names are not.
	for _, bad := range []map[string]any{
		{"name": "", "epsilon": 1.0},
		{"name": "ctrl\x00char", "epsilon": 1.0},
		{"name": strings.Repeat("x", 65), "epsilon": 1.0},
		{"name": "x", "epsilon": -1.0},
		{"name": "x", "epsilon": 1.0, "buckets": 1},
		{"name": "x", "epsilon": 1.0, "buckets": mechanism.MaxBuckets + 1},
	} {
		resp = postJSON(t, ts.URL+"/v1/streams", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create %v status = %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Reports route to their stream; unknown streams 404.
	resp = postJSON(t, ts.URL+"/v1/streams/age/report", map[string]any{"stream": "age", "report": 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream report status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/streams/nope/report", map[string]any{"stream": "nope", "report": 0.5})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stream report status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if n := srv.StreamN("age"); n != 1 {
		t.Errorf("age stream N = %d, want 1", n)
	}
	if n := srv.StreamN(""); n != 0 {
		t.Errorf("default stream N = %d, want 0", n)
	}
	if srv.StreamN("nope") != -1 {
		t.Error("StreamN of unknown stream should be -1")
	}

	// Per-stream config is served.
	resp, err = http.Get(ts.URL + "/v1/streams/age/config")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Stream  string  `json:"stream"`
		Epsilon float64 `json:"epsilon"`
		Buckets int     `json:"buckets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cfg.Stream != "age" || cfg.Epsilon != 2 || cfg.Buckets != 32 {
		t.Errorf("age config = %+v", cfg)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// Ingest a tight population around 0.7 so the analytics are sharp.
	client := core.NewClient(core.Config{Epsilon: 1, Buckets: 64, Smoothing: true})
	rng := randx.New(7)
	reports := make([]float64, 4000)
	for i := range reports {
		reports[i] = client.Report(rng.Beta(5, 2), rng)
	}
	postJSON(t, ts.URL+"/v1/streams/default/batch", map[string]any{"reports": reports}).Body.Close()
	getFreshEstimate(t, ts.URL, len(reports))

	get := func(t *testing.T, path string) (int, QueryResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out QueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}

	status, q := get(t, "/v1/streams/default/query?type=quantile&q=0.1,0.5,0.9")
	if status != http.StatusOK || len(q.Values) != 3 {
		t.Fatalf("quantile query: status %d, values %v", status, q.Values)
	}
	if q.Values[0] >= q.Values[1] || q.Values[1] >= q.Values[2] {
		t.Errorf("quantiles not monotone: %v", q.Values)
	}
	if math.Abs(q.Values[1]-0.736) > 0.08 { // Beta(5,2) median ≈ 0.7356
		t.Errorf("median = %v, want ≈ 0.736", q.Values[1])
	}
	if q.N != 4000 {
		t.Errorf("query N = %d", q.N)
	}

	status, q = get(t, "/v1/streams/default/query?type=cdf&q=0,1")
	if status != http.StatusOK || len(q.Values) != 2 {
		t.Fatalf("cdf query: status %d, %v", status, q.Values)
	}
	if math.Abs(q.Values[0]) > 1e-6 || math.Abs(q.Values[1]-1) > 1e-6 {
		t.Errorf("cdf endpoints = %v, want [0, 1]", q.Values)
	}

	status, q = get(t, "/v1/streams/default/query?type=range&lo=0.5&hi=1")
	if status != http.StatusOK {
		t.Fatalf("range query status %d", status)
	}
	if math.Abs(q.Value-0.89) > 0.08 { // Pr[Beta(5,2) > 0.5] ≈ 0.891
		t.Errorf("range mass = %v, want ≈ 0.89", q.Value)
	}

	status, q = get(t, "/v1/streams/default/query?type=mean")
	if status != http.StatusOK || math.Abs(q.Value-5.0/7.0) > 0.05 {
		t.Errorf("mean query: status %d, value %v, want ≈ 0.714", status, q.Value)
	}

	status, q = get(t, "/v1/streams/default/query?type=topk&k=3")
	if status != http.StatusOK || len(q.Bins) != 3 {
		t.Fatalf("topk query: status %d, bins %v", status, q.Bins)
	}
	if c := (q.Bins[0].Lo + q.Bins[0].Hi) / 2; c < 0.5 || c > 0.95 {
		t.Errorf("top bin centered at %v, want near the Beta(5,2) mode", c)
	}

	// Malformed queries are 400s.
	for _, bad := range []string{
		"/v1/streams/default/query?type=quantile",         // no points
		"/v1/streams/default/query?type=quantile&q=junk",  // unparsable
		"/v1/streams/default/query?type=nope&q=0.5",       // unknown type
		"/v1/streams/default/query?type=range&lo=1&hi=0",  // inverted
		"/v1/streams/default/query?type=topk&k=0",         // bad k
		"/v1/streams/default/query?type=topk&k=notanint",  // unparsable k
		"/v1/streams/default/query?type=range&lo=x&hi=.5", // unparsable lo
	} {
		if status, _ := get(t, bad); status != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", bad, status)
		}
	}
	// Unknown stream is 404.
	if status, _ := get(t, "/v1/streams/nope/query?type=mean"); status != http.StatusNotFound {
		t.Errorf("unknown stream query status = %d, want 404", status)
	}

	// Batched POST .../query answers every query against one estimate.
	resp := postJSON(t, ts.URL+"/v1/streams/default/query", map[string]any{
		"queries": []map[string]any{
			{"type": "quantile", "q": []float64{0.5}},
			{"type": "range", "lo": 0.25, "hi": 0.75},
			{"type": "variance"},
			{"type": "histogram"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch query status = %d", resp.StatusCode)
	}
	var batch BatchQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Results) != 4 || batch.N != 4000 {
		t.Fatalf("batch = %+v", batch)
	}
	if len(batch.Results[3].Values) != 64 {
		t.Errorf("histogram result has %d buckets", len(batch.Results[3].Values))
	}

	// A bad query anywhere in the batch rejects the whole batch.
	resp = postJSON(t, ts.URL+"/v1/streams/default/query", map[string]any{
		"queries": []map[string]any{{"type": "mean"}, {"type": "bogus"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mixed batch status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// An empty batch is a 400 too.
	resp = postJSON(t, ts.URL+"/v1/streams/default/query", map[string]any{"queries": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestQueryBeforeReports pins the query endpoint's not-ready statuses: 409 with no
// reports, 503 while the first estimate is pending.
func TestQueryBeforeReports(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/streams/default/query?type=mean")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("query with no reports status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	postJSON(t, ts.URL+"/v1/streams/default/report", map[string]any{"report": 0.4}).Body.Close()
	resp, err = http.Get(ts.URL + "/v1/streams/default/query?type=mean")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query with pending estimate status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestReadsArmTheirStream pins the refresh scheduler end to end: an estimate
// read refreshes its own stream only, and a stream read once publishes
// steady ingest with no further read, wake or sweep (an hour away here).
func TestReadsArmTheirStream(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.CreateStream("other", StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	batch := map[string]any{"reports": []float64{0.1, 0.5, 0.9}}
	for _, name := range []string{DefaultStream, "other"} {
		postJSON(t, ts.URL+streamPath(name)+"/batch", batch).Body.Close()
	}
	getFreshEstimate(t, ts.URL, 3)
	published := func(name string) int {
		for _, info := range s.Streams() { // the listing arms nothing
			if info.Name == name {
				return info.EstimateN
			}
		}
		return -1
	}
	for want := 6; want <= 12; want += 3 {
		postJSON(t, ts.URL+streamPath(DefaultStream)+"/batch", batch).Body.Close()
		deadline := time.Now().Add(10 * time.Second)
		for published(DefaultStream) != want {
			if time.Now().After(deadline) {
				t.Fatalf("the read stream publishes %d reports, want %d", published(DefaultStream), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if n := published("other"); n != 0 {
		t.Errorf("reading the default stream refreshed %q (estimate_n %d)", "other", n)
	}
}

func TestConcurrentIngestion(t *testing.T) {
	srv, ts := newTestServer(t)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := core.NewClient(core.Config{Epsilon: 1, Buckets: 64, Smoothing: true})
			rng := randx.New(uint64(id + 1))
			for i := 0; i < perWorker; i++ {
				blob, _ := json.Marshal(map[string]float64{"report": client.Report(rng.Float64(), rng)})
				resp, err := http.Post(ts.URL+"/v1/streams/default/report", "application/json", bytes.NewReader(blob))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.N() != workers*perWorker {
		t.Errorf("N = %d, want %d", srv.N(), workers*perWorker)
	}
}
