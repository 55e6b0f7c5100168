package repro

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ldphttp"
)

// newOpsServer boots a real collector for the accessor tests.
func newOpsServer(t *testing.T, ops ldphttp.OpsConfig) (*ldphttp.Server, *httptest.Server) {
	t.Helper()
	s := ldphttp.NewServer(ldphttp.Config{Epsilon: 1, Buckets: 32,
		RefreshInterval: time.Hour, Ops: ops})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestFetchServerStats(t *testing.T) {
	_, ts := newOpsServer(t, ldphttp.OpsConfig{})
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/streams/default/report", "application/json",
			strings.NewReader(`{"report": 0.5}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: %d", i, resp.StatusCode)
		}
	}

	st, err := FetchServerStats(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Up || !st.Ready || !st.Healthy {
		t.Errorf("probe gauges wrong: up=%v ready=%v healthy=%v", st.Up, st.Ready, st.Healthy)
	}
	if st.Streams != 1 {
		t.Errorf("Streams = %d, want 1", st.Streams)
	}
	if st.Reports["default"] != 4 {
		t.Errorf(`Reports["default"] = %d, want 4`, st.Reports["default"])
	}
	if st.Requests < 4 {
		t.Errorf("Requests = %d, want >= 4", st.Requests)
	}
	if st.Shed != 0 {
		t.Errorf("Shed = %d, want 0", st.Shed)
	}
	// Raw carries every sample under its exposition-style key.
	if v, ok := st.Raw[`ldp_reports_total{mechanism="sw",stream="default"}`]; !ok || v != 4 {
		t.Errorf("Raw reports sample = %v (present %v), want 4", v, ok)
	}
	if _, ok := st.Raw["ldp_up"]; !ok {
		t.Error("Raw misses the unlabeled ldp_up sample")
	}

	// A server with telemetry disabled answers 404 → accessor error.
	_, off := newOpsServer(t, ldphttp.OpsConfig{DisableTelemetry: true})
	if _, err := FetchServerStats(off.URL, nil); err == nil {
		t.Error("FetchServerStats against disabled telemetry did not error")
	}
	if _, err := FetchServerStats("not a url", nil); err == nil {
		t.Error("bad URL accepted")
	}
}

func TestCheckServerHealth(t *testing.T) {
	s, ts := newOpsServer(t, ldphttp.OpsConfig{AwaitRestore: true})
	h, err := CheckServerHealth(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Healthy || h.Ready {
		t.Fatalf("pre-restore health %+v, want healthy and unready", h)
	}
	if !strings.Contains(h.Detail, "not_ready") {
		t.Errorf("Detail %q does not carry the probe code", h.Detail)
	}

	s.MarkReady()
	h, err = CheckServerHealth(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Healthy || !h.Ready || h.Detail != "" {
		t.Fatalf("post-ready health %+v, want healthy+ready with no detail", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("UptimeSeconds = %v", h.UptimeSeconds)
	}

	// A closed server fails liveness but the accessor still answers typed.
	s.Close()
	h, err = CheckServerHealth(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Healthy {
		t.Fatal("closed server reported healthy")
	}
	if !strings.Contains(h.Detail, "engine_stopped") {
		t.Errorf("Detail %q does not carry engine_stopped", h.Detail)
	}

	if _, err := CheckServerHealth("ftp://x", nil); err == nil {
		t.Error("non-http scheme accepted")
	}
}

func TestAwaitServerReady(t *testing.T) {
	s, ts := newOpsServer(t, ldphttp.OpsConfig{AwaitRestore: true})
	if err := AwaitServerReady(ts.URL, nil, 100*time.Millisecond); err == nil {
		t.Fatal("AwaitServerReady returned before the restore")
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		s.MarkReady()
	}()
	if err := AwaitServerReady(ts.URL, nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitServerReadyBoundsEachProbe pins the deadline to the whole call:
// a /readyz that takes 2 s to answer, or never answers, must not hold
// AwaitServerReady past its timeout.
func TestAwaitServerReadyBoundsEachProbe(t *testing.T) {
	for name, delay := range map[string]time.Duration{"slow": 2 * time.Second, "silent": time.Hour} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
			}
		}))
		start := time.Now()
		err := AwaitServerReady(ts.URL, nil, 100*time.Millisecond)
		waited := time.Since(start)
		ts.Close()
		if err == nil {
			t.Errorf("%s: AwaitServerReady succeeded against a collector that never answered", name)
		}
		if waited > time.Second {
			t.Errorf("%s: AwaitServerReady(timeout 100ms) returned after %v", name, waited)
		}
	}
}

// refusingTransport fails its first n round trips at the transport layer,
// as a collector that is not listening yet does.
type refusingTransport struct {
	mu sync.Mutex
	n  int
}

func (rt *refusingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	refuse := rt.n > 0
	if refuse {
		rt.n--
	}
	rt.mu.Unlock()
	if refuse {
		return nil, errors.New("connection refused")
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestAwaitServerReadyRetriesTransportErrors(t *testing.T) {
	_, ts := newOpsServer(t, ldphttp.OpsConfig{})
	rt := &refusingTransport{n: 2}
	if err := AwaitServerReady(ts.URL, &http.Client{Transport: rt}, 5*time.Second); err != nil {
		t.Fatalf("AwaitServerReady gave up on a collector that answers on the third try: %v", err)
	}
	if rt.n != 0 {
		t.Errorf("%d refusals left unconsumed", rt.n)
	}

	// A collector that never answers: the last transport error at the
	// deadline.
	err := AwaitServerReady(ts.URL, &http.Client{Transport: &refusingTransport{n: 1 << 30}}, 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Errorf("never-answering collector: %v, want the last transport error", err)
	}

	// A non-http(s) URL and an unexpected status stay immediate errors.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	for _, base := range []string{"ftp://x", broken.URL} {
		start := time.Now()
		if err := AwaitServerReady(base, nil, 5*time.Second); err == nil {
			t.Errorf("AwaitServerReady(%s) succeeded", base)
		} else if waited := time.Since(start); waited > time.Second {
			t.Errorf("AwaitServerReady(%s) retried for %v before failing: %v", base, waited, err)
		}
	}
}
