package ldphttp

// Tests of the windowed-collection subsystem: mock-clock rotation through
// the engine, window selectors on /estimate and /query, DELETE /streams,
// windowed CreateStream validation, and the acceptance criterion that
// sliding-window estimates survive a snapshot save → kill → restore cycle
// bit-identically.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
)

// mockClock is a thread-safe manual clock for Config.Clock.
type mockClock struct {
	mu  sync.Mutex
	now time.Time
}

func newMockClock() *mockClock {
	return &mockClock{now: time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)}
}

func (c *mockClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *mockClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newWindowedServer(t *testing.T, clock *mockClock) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond, Clock: clock.Now})
	t.Cleanup(s.Close)
	if err := s.CreateStream("lat", StreamConfig{
		Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: 4,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postReports(t *testing.T, url, stream string, seed uint64, n int) {
	t.Helper()
	client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
	rng := randx.New(seed)
	reports := make([]float64, n)
	for i := range reports {
		reports[i] = client.Report(rng.Beta(5, 2), rng)
	}
	blob, _ := json.Marshal(map[string]any{"stream": stream, "reports": reports})
	resp, err := http.Post(url+streamPath(stream)+"/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
}

// waitRotation polls the server until the stream's live epoch reaches want.
func waitRotation(t *testing.T, s *Server, stream string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, info := range s.Streams() {
			if info.Name == stream && info.Window != nil && info.Window.CurrentEpoch >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %q never rotated to epoch %d", stream, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getWindowEstimate polls until the window estimate covers wantN reports.
func getWindowEstimate(t *testing.T, url, stream, sel string, wantN int) EstimateResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var est EstimateResponse
	for {
		resp, err := http.Get(url + streamPath(stream) + "/estimate?window=" + sel)
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		if status == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
				resp.Body.Close()
				t.Fatal(err)
			}
			resp.Body.Close()
			if est.N >= wantN {
				return est
			}
		} else {
			resp.Body.Close()
			if status != http.StatusServiceUnavailable && status != http.StatusConflict {
				t.Fatalf("GET /estimate window=%s status %d", sel, status)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("window %s never covered %d reports (last N=%d)", sel, wantN, est.N)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWindowRotationAndSelectors(t *testing.T) {
	clock := newMockClock()
	s, ts := newWindowedServer(t, clock)

	// Epoch 0: 600 reports.
	postReports(t, ts.URL, "lat", 1, 600)
	est := getWindowEstimate(t, ts.URL, "lat", "last:1", 600)
	if est.Window != "epochs:0..0" || est.Epochs == nil || est.Epochs.Lo != 0 || est.Epochs.Hi != 0 {
		t.Fatalf("live window answer mislabeled: window=%q epochs=%+v", est.Window, est.Epochs)
	}

	// Rotate; epoch 1 gets 400 reports.
	clock.Advance(time.Minute)
	waitRotation(t, s, "lat", 1)
	postReports(t, ts.URL, "lat", 2, 400)

	if est := getWindowEstimate(t, ts.URL, "lat", "last:1", 400); est.N != 400 {
		t.Fatalf("last:1 after rotation covers %d, want 400", est.N)
	}
	if est := getWindowEstimate(t, ts.URL, "lat", "epochs:0..0", 600); est.N != 600 {
		t.Fatalf("sealed epoch 0 covers %d, want 600", est.N)
	}
	if est := getWindowEstimate(t, ts.URL, "lat", "last:2", 1000); est.N != 1000 {
		t.Fatalf("last:2 covers %d, want 1000", est.N)
	}
	// The whole-stream estimate covers everything retained.
	if est := getFreshStreamEstimate(t, ts.URL, "lat", 1000); est.Window != "" {
		t.Fatalf("whole-stream estimate carries window %q", est.Window)
	}

	// Selector errors.
	for _, tc := range []struct {
		sel, stream string
		status      int
	}{
		{"hourly", "lat", http.StatusBadRequest},
		{"last:0", "lat", http.StatusBadRequest},
		{"epochs:2..9", "lat", http.StatusBadRequest}, // future
		{"last:1", "", http.StatusBadRequest},         // default stream is not windowed
	} {
		resp, err := http.Get(ts.URL + streamPath(tc.stream) + "/estimate?window=" + tc.sel)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("window=%s stream=%q: status %d, want %d", tc.sel, tc.stream, resp.StatusCode, tc.status)
		}
	}

	// An empty window answers 409, not 503: rotate to an empty live epoch.
	clock.Advance(time.Minute)
	waitRotation(t, s, "lat", 2)
	resp, err := http.Get(ts.URL + "/v1/streams/lat/estimate?window=last:1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("empty window status %d, want 409", resp.StatusCode)
	}

	// Age out epoch 0 (retain 4): rotate until oldest > 0, then 410.
	for e := 3; e <= 6; e++ {
		clock.Advance(time.Minute)
		waitRotation(t, s, "lat", e)
	}
	resp, err = http.Get(ts.URL + "/v1/streams/lat/estimate?window=epochs:0..0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("aged-out window status %d, want 410", resp.StatusCode)
	}
}

func TestWindowQueries(t *testing.T) {
	clock := newMockClock()
	s, ts := newWindowedServer(t, clock)
	postReports(t, ts.URL, "lat", 3, 500)
	getWindowEstimate(t, ts.URL, "lat", "last:1", 500) // wait until computed
	clock.Advance(time.Minute)
	waitRotation(t, s, "lat", 1)
	postReports(t, ts.URL, "lat", 4, 300)
	getWindowEstimate(t, ts.URL, "lat", "epochs:1..1", 300)

	// GET .../query with a window selector answers from that window's cache.
	resp, err := http.Get(ts.URL + "/v1/streams/lat/query?type=mean&window=epochs:0..0")
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed query status %d", resp.StatusCode)
	}
	if qr.N != 500 || qr.Window != "epochs:0..0" || qr.Epochs == nil || qr.Epochs.Hi != 0 {
		t.Fatalf("windowed query provenance: N=%d window=%q epochs=%+v", qr.N, qr.Window, qr.Epochs)
	}
	if qr.Value <= 0 || qr.Value >= 1 {
		t.Fatalf("windowed mean %v out of (0,1)", qr.Value)
	}

	// POST .../query with a window field scopes the whole batch. Warm the
	// last:2 window first — a cold window cache answers 503 by design.
	getWindowEstimate(t, ts.URL, "lat", "last:2", 800)
	blob, _ := json.Marshal(map[string]any{
		"stream": "lat", "window": "last:2",
		"queries": []map[string]any{{"type": "mean"}, {"type": "quantile", "q": []float64{0.5}}},
	})
	resp, err = http.Post(ts.URL+"/v1/streams/lat/query", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch windowed query status %d", resp.StatusCode)
	}
	if br.N != 800 || br.Window != "epochs:0..1" || len(br.Results) != 2 {
		t.Fatalf("batch windowed query: N=%d window=%q results=%d", br.N, br.Window, len(br.Results))
	}
}

func TestDropStream(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: 5 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.CreateStream("tmp", StreamConfig{Epsilon: 1, Buckets: 16}); err != nil {
		t.Fatal(err)
	}
	postReports(t, ts.URL, "tmp", 5, 50)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/tmp", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	// Gone from the registry, from the listing, and from request routing.
	if s.StreamN("tmp") != -1 {
		t.Error("dropped stream still resolvable")
	}
	for _, info := range s.Streams() {
		if info.Name == "tmp" {
			t.Error("dropped stream still listed")
		}
	}
	resp, err = http.Get(ts.URL + "/v1/streams/tmp/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("estimate on dropped stream status %d, want 404", resp.StatusCode)
	}

	// Deleting again is 404 unknown_stream; a nameless path is 404 not_found;
	// a method the stream resource does not serve is 405.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/tmp", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double DELETE status %d, want 404", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("nameless DELETE status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/streams/whatever", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/streams/{name} status %d, want 405", resp.StatusCode)
	}

	// A dropped name can be redeclared fresh — including with new windowing.
	if err := s.CreateStream("tmp", StreamConfig{
		Epsilon: 1, Buckets: 16, Epoch: Duration(time.Minute),
	}); err != nil {
		t.Fatalf("redeclare after drop: %v", err)
	}
	if s.StreamN("tmp") != 0 {
		t.Errorf("redeclared stream inherited %d reports", s.StreamN("tmp"))
	}
}

func TestWindowedStreamConfigRules(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)

	// Retain without epoch, negative epoch: rejected.
	if err := s.CreateStream("a", StreamConfig{Epsilon: 1, Buckets: 16, Retain: 3}); err == nil {
		t.Error("retain without epoch accepted")
	}
	if err := s.CreateStream("b", StreamConfig{Epsilon: 1, Buckets: 16, Epoch: Duration(-time.Second)}); err == nil {
		t.Error("negative epoch accepted")
	}

	// Windowed declaration fills the default retention.
	if err := s.CreateStream("win", StreamConfig{Epsilon: 1, Buckets: 16, Epoch: Duration(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	var info *StreamInfo
	for _, row := range s.Streams() {
		if row.Name == "win" {
			row := row
			info = &row
		}
	}
	if info == nil || info.Window == nil {
		t.Fatal("windowed stream not reported as windowed")
	}
	if info.Window.Retain == 0 || info.Window.Epoch != Duration(time.Minute) {
		t.Fatalf("window info %+v", info.Window)
	}

	// Redeclaration: zero window fields inherit; matching values are a
	// no-op; different values or de-windowing attempts are errors.
	if err := s.CreateStream("win", StreamConfig{Epsilon: 1, Buckets: 16}); err != nil {
		t.Errorf("inheriting redeclaration failed: %v", err)
	}
	if err := s.CreateStream("win", StreamConfig{Epsilon: 1, Buckets: 16, Epoch: Duration(time.Minute)}); err != nil {
		t.Errorf("matching redeclaration failed: %v", err)
	}
	if err := s.CreateStream("win", StreamConfig{Epsilon: 1, Buckets: 16, Epoch: Duration(2 * time.Minute)}); err == nil {
		t.Error("epoch change accepted")
	}
	if err := s.CreateStream("win", StreamConfig{Epsilon: 1, Buckets: 16, Epoch: Duration(time.Minute), Retain: 99}); err == nil {
		t.Error("retain change accepted")
	}
	// Windowing a plain stream is an error (drop and redeclare instead).
	if err := s.CreateStream(DefaultStream, StreamConfig{Epsilon: 1, Buckets: 16, Epoch: Duration(time.Minute)}); err == nil {
		t.Error("windowing an existing plain stream accepted")
	}
}

// TestWindowSnapshotDeterminism is the acceptance criterion: sliding-window
// estimates are bit-identical across a snapshot save → kill → restore
// cycle, and the restored collector resumes mid-epoch on the same rotation
// clock.
func TestWindowSnapshotDeterminism(t *testing.T) {
	clock := newMockClock()
	s, ts := newWindowedServer(t, clock)

	// Two sealed cohorts plus a live partial epoch.
	postReports(t, ts.URL, "lat", 11, 700)
	getWindowEstimate(t, ts.URL, "lat", "last:1", 700)
	clock.Advance(time.Minute)
	waitRotation(t, s, "lat", 1)
	postReports(t, ts.URL, "lat", 12, 500)
	getWindowEstimate(t, ts.URL, "lat", "epochs:1..1", 500)
	clock.Advance(time.Minute)
	waitRotation(t, s, "lat", 2)
	postReports(t, ts.URL, "lat", 13, 300) // live, mid-epoch
	clock.Advance(30 * time.Second)        // ...and mid-period on the clock

	selectors := []string{"epochs:0..0", "epochs:1..1", "last:2", "last:3"}
	before := make(map[string]EstimateResponse)
	for _, sel := range selectors {
		before[sel] = getWindowEstimate(t, ts.URL, "lat", sel, 1)
	}
	wholeBefore := getFreshStreamEstimate(t, ts.URL, "lat", 1500)

	path := filepath.Join(t.TempDir(), "win.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s.Close() // "kill" the collector

	// Restart: declare the stream (the boot shape), restore, re-serve.
	s2 := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour, Clock: clock.Now})
	t.Cleanup(s2.Close)
	if err := s2.CreateStream("lat", StreamConfig{
		Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	for _, sel := range selectors {
		after := getWindowEstimate(t, ts2.URL, "lat", sel, before[sel].N)
		if !after.Restored {
			t.Errorf("window %s not served from the restored cache", sel)
		}
		if after.N != before[sel].N {
			t.Errorf("window %s N = %d, want %d", sel, after.N, before[sel].N)
		}
		if len(after.Distribution) != len(before[sel].Distribution) {
			t.Fatalf("window %s distribution length changed", sel)
		}
		for i := range after.Distribution {
			if after.Distribution[i] != before[sel].Distribution[i] {
				t.Fatalf("window %s bucket %d: %v != %v (not bit-identical)",
					sel, i, after.Distribution[i], before[sel].Distribution[i])
			}
		}
	}
	wholeAfter := getFreshStreamEstimate(t, ts2.URL, "lat", 1500)
	for i := range wholeAfter.Distribution {
		if wholeAfter.Distribution[i] != wholeBefore.Distribution[i] {
			t.Fatalf("whole-stream bucket %d differs after restore", i)
		}
	}

	// The restored collector resumed mid-epoch: same epoch index, same
	// live count, and the next rotation lands on the original boundary
	// (30s away, not a full minute).
	var win *WindowInfo
	for _, info := range s2.Streams() {
		if info.Name == "lat" {
			win = info.Window
		}
	}
	if win == nil || win.CurrentEpoch != 2 || win.LiveN != 300 {
		t.Fatalf("restored window state %+v, want epoch 2 with 300 live reports", win)
	}
	clock.Advance(30 * time.Second)
	s2.wake()
	waitRotation(t, s2, "lat", 3)
}

// TestWindowV1SnapshotCompat: a v1-shaped restore (no window block) into a
// windowed declaration lands in the live epoch and seals whole at the next
// rotation.
func TestWindowV1SnapshotCompat(t *testing.T) {
	// Build a v1-style snapshot from a plain server.
	plain := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(plain.Close)
	tsPlain := httptest.NewServer(plain.Handler())
	t.Cleanup(tsPlain.Close)
	if err := plain.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
		t.Fatal(err)
	}
	postReports(t, tsPlain.URL, "lat", 21, 400)
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := plain.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	clock := newMockClock()
	s, ts := newWindowedServer(t, clock)
	if err := s.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if n := s.StreamN("lat"); n != 400 {
		t.Fatalf("restored %d reports, want 400", n)
	}
	// The old history is the live epoch; the first rotation seals it whole.
	clock.Advance(time.Minute)
	waitRotation(t, s, "lat", 1)
	if est := getWindowEstimate(t, ts.URL, "lat", "epochs:0..0", 400); est.N != 400 {
		t.Fatalf("sealed old history covers %d, want 400", est.N)
	}

	// The reverse mismatch fails loudly: a windowed snapshot cannot restore
	// into a plain declaration.
	winPath := filepath.Join(t.TempDir(), "win.snap")
	if err := s.SaveSnapshot(winPath); err != nil {
		t.Fatal(err)
	}
	plain2 := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(plain2.Close)
	if err := plain2.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
		t.Fatal(err)
	}
	if err := plain2.LoadSnapshot(winPath); err == nil {
		t.Fatal("windowed snapshot restored into a plain stream")
	}
	// A fresh server (stream undeclared) restores the windowed stream whole.
	fresh := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour, Clock: clock.Now})
	t.Cleanup(fresh.Close)
	if err := fresh.LoadSnapshot(winPath); err != nil {
		t.Fatal(err)
	}
	for _, info := range fresh.Streams() {
		if info.Name == "lat" {
			if info.Window == nil || info.Window.CurrentEpoch != 1 {
				t.Fatalf("fresh restore window state %+v", info.Window)
			}
		}
	}
}

func TestWindowDurationJSON(t *testing.T) {
	var cfg StreamConfig
	if err := json.Unmarshal([]byte(`{"epsilon":1,"buckets":16,"epoch":"90s","retain":5}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if time.Duration(cfg.Epoch) != 90*time.Second || cfg.Retain != 5 {
		t.Fatalf("parsed %+v", cfg)
	}
	if err := json.Unmarshal([]byte(`{"epoch":60000000000}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if time.Duration(cfg.Epoch) != time.Minute {
		t.Fatalf("nanosecond epoch parsed as %v", time.Duration(cfg.Epoch))
	}
	if err := json.Unmarshal([]byte(`{"epoch":"soon"}`), &cfg); err == nil {
		t.Error("bad duration accepted")
	}
	blob, err := json.Marshal(StreamConfig{Epsilon: 1, Buckets: 16, Epoch: Duration(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"epoch":"1m0s"`)) {
		t.Errorf("epoch marshaled as %s", blob)
	}

	// Declaring a windowed stream over HTTP round-trips the syntax.
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/streams", "application/json",
		bytes.NewReader([]byte(`{"name":"w","epsilon":1,"buckets":16,"epoch":"2m","retain":6}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("windowed POST /v1/streams status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/streams/w/config")
	if err != nil {
		t.Fatal(err)
	}
	var cfgOut struct {
		Epoch  string `json:"epoch"`
		Retain int    `json:"retain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfgOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cfgOut.Epoch != "2m0s" || cfgOut.Retain != 6 {
		t.Fatalf("config reports epoch=%q retain=%d", cfgOut.Epoch, cfgOut.Retain)
	}
}
