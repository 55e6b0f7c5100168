package ldphttp

// Idempotent stream declaration, its races, and uniform method-not-allowed
// handling (405 + Allow header + JSON error body) across every endpoint.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/federate"
	"repro/internal/sw"
)

func TestStreamsDeclareIdempotent(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	declare := func(body string) (StreamCreateResponse, int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/streams", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out StreamCreateResponse
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out, resp.StatusCode
	}

	// First declaration: 201 with the full effective config.
	out, code := declare(`{"name": "age", "epsilon": 2, "buckets": 32, "mechanism": "oue"}`)
	if code != http.StatusCreated || !out.Created {
		t.Fatalf("create answered %d %+v", code, out)
	}
	if out.Stream != "age" || out.Mechanism != "oue" || out.OutputBuckets == 0 || out.Shards == 0 {
		t.Fatalf("create response not the full config: %+v", out)
	}

	// Byte-identical re-declaration: 200, created=false, same config — the
	// edge auto-sync path.
	out, code = declare(`{"name": "age", "epsilon": 2, "buckets": 32, "mechanism": "oue"}`)
	if code != http.StatusOK || out.Created {
		t.Fatalf("re-declare answered %d %+v", code, out)
	}
	if out.Stream != "age" || out.Epsilon != 2 || out.Buckets != 32 || out.Mechanism != "oue" {
		t.Fatalf("re-declare did not echo the existing config: %+v", out)
	}

	// Conflicting config: 409.
	if _, code = declare(`{"name": "age", "epsilon": 3, "buckets": 32, "mechanism": "oue"}`); code != http.StatusConflict {
		t.Fatalf("conflicting re-declare answered %d, want 409", code)
	}
	// A malformed declaration is 400 even when the stream exists — 409 is
	// reserved for genuine conflicts.
	if _, code = declare(`{"name": "age", "epsilon": -1}`); code != http.StatusBadRequest {
		t.Fatalf("invalid re-declare answered %d, want 400", code)
	}
	if _, code = declare(`{"name": "age", "epsilon": 2, "buckets": 32, "mechanism": "bogus"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown-mechanism re-declare answered %d, want 400", code)
	}
}

func TestStreamsRedeclareAfterAutoDeclare(t *testing.T) {
	// An auto-declared stream carries the RESOLVED bandwidth from the
	// pushed fingerprint; a human (or edge) re-declaring it with the
	// equivalent "0 = optimal" default must still get the idempotent 200 —
	// compatibility is judged on effective values, not declared ones.
	_, ts := newRoot(t, true)
	counts := make([]uint64, 64)
	counts[5] = 3
	body, err := federate.EncodePush("e1", 1, []federate.StreamDelta{{
		Stream: "age",
		Fingerprint: federate.Fingerprint{Mechanism: "sw", Epsilon: 1, Buckets: 64,
			OutputBuckets: 64, Bandwidth: sw.BOpt(1)},
		Epochs: []federate.EpochDelta{{Epoch: 0, N: 3, Counts: counts}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pr, code := pushBody(t, ts.URL, body); code != 200 || !pr.Applied {
		t.Fatalf("auto-declare push answered %d %+v", code, pr)
	}

	resp, err := http.Post(ts.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"name": "age", "epsilon": 1, "buckets": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("equivalent re-declare answered %d, want 200", resp.StatusCode)
	}
	var out StreamCreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Created || out.Bandwidth != sw.BOpt(1) {
		t.Fatalf("re-declare response %+v", out)
	}
	// An explicit non-optimal bandwidth is still a conflict.
	resp2, err := http.Post(ts.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"name": "age", "epsilon": 1, "buckets": 64, "bandwidth": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("non-optimal re-declare answered %d, want 409", resp2.StatusCode)
	}
}

// TestDeclareRaces pins POST /v1/streams under concurrency: a declare that
// races a drop of the same name (DropStream, what DELETE /v1/streams/{name}
// runs) still answers 200 or 201 with the stream's config, never a dropped
// connection, and concurrent declares of a fresh name create it exactly
// once.
func TestDeclareRaces(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	declare := func(name string) (int, StreamCreateResponse, error) {
		resp, err := http.Post(ts.URL+"/v1/streams", "application/json",
			strings.NewReader(`{"name": "`+name+`", "epsilon": 1, "buckets": 16}`))
		if err != nil {
			return 0, StreamCreateResponse{}, err
		}
		defer resp.Body.Close()
		var out StreamCreateResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out, err
	}

	t.Run("declare vs delete", func(t *testing.T) {
		stop := make(chan struct{})
		var deleter sync.WaitGroup
		deleter.Add(1)
		go func() {
			defer deleter.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.DropStream("churn")
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					code, out, err := declare("churn")
					if err != nil {
						t.Errorf("declare %d: %v", i, err)
						return
					}
					if code != http.StatusOK && code != http.StatusCreated {
						t.Errorf("declare %d answered %d", i, code)
						return
					}
					if out.Stream != "churn" || out.Buckets != 16 || out.Created != (code == http.StatusCreated) {
						t.Errorf("declare %d answered %d with %+v", i, code, out)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		deleter.Wait()
	})

	t.Run("fresh name created once", func(t *testing.T) {
		const declarers = 16
		for round := 0; round < 50; round++ {
			name := fmt.Sprintf("fresh-%d", round)
			start := make(chan struct{})
			var created atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < declarers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					code, out, err := declare(name)
					switch {
					case err != nil:
						t.Errorf("declare %s: %v", name, err)
					case code == http.StatusCreated && out.Created:
						created.Add(1)
					case code != http.StatusOK || out.Created:
						t.Errorf("declare %s answered %d with %+v", name, code, out)
					}
				}()
			}
			close(start)
			wg.Wait()
			if n := created.Load(); n != 1 {
				t.Fatalf("round %d: %d declares of %s answered 201, want exactly 1", round, n, name)
			}
		}
	})
}

func TestMethodNotAllowedMatrix(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
		Federation: FederationConfig{Accept: true}})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		path   string
		method string
		allow  string
	}{
		{"/v1/streams", http.MethodDelete, "GET, POST"},
		{"/v1/streams", http.MethodPut, "GET, POST"},
		{"/v1/streams/age", http.MethodPost, "GET, DELETE"},
		{"/v1/streams/age", http.MethodPut, "GET, DELETE"},
		{"/v1/streams/age/report", http.MethodGet, "POST"},
		{"/v1/streams/age/report", http.MethodDelete, "POST"},
		{"/v1/streams/age/batch", http.MethodGet, "POST"},
		{"/v1/streams/age/estimate", http.MethodPost, "GET"},
		{"/v1/streams/age/estimate", http.MethodDelete, "GET"},
		{"/v1/streams/age/query", http.MethodDelete, "GET, POST"},
		{"/v1/streams/age/config", http.MethodPost, "GET"},
		{"/v1/streams/age/diagnostics", http.MethodPost, "GET"},
		{"/v1/diagnostics", http.MethodPost, "GET"},
		{"/federation/push", http.MethodGet, "POST"},
		{"/federation/peers", http.MethodPost, "GET"},
		{"/metrics", http.MethodPost, "GET"},
		{"/healthz", http.MethodPost, "GET"},
		{"/readyz", http.MethodDelete, "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
		var body struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error.Message == "" {
			t.Errorf("%s %s: body is not a JSON error envelope (%v)", tc.method, tc.path, err)
		}
		if body.Error.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s: error code %q, want %q", tc.method, tc.path, body.Error.Code, CodeMethodNotAllowed)
		}
		resp.Body.Close()
	}
}
