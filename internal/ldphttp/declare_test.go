package ldphttp

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/federate"
	"repro/internal/mechanism"
)

// TestCreateStreamRejectsNonFinite declares streams with a non-finite ε or
// bandwidth: each is refused with an error (never a panic), and the stream
// list and snapshots keep working.
func TestCreateStreamRejectsNonFinite(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, cfg := range []StreamConfig{
		{Epsilon: math.NaN(), Buckets: 16},
		{Epsilon: math.Inf(1), Buckets: 16},
		{Epsilon: 1, Buckets: 16, Bandwidth: math.NaN()},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("CreateStream(%+v) panicked: %v", cfg, r)
				}
			}()
			if err := s.CreateStream("x", cfg); err == nil {
				t.Errorf("CreateStream(%+v) accepted", cfg)
			}
		}()
	}
	resp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/streams = %d", resp.StatusCode)
	}
	if err := s.SaveSnapshot(filepath.Join(t.TempDir(), "s.snap")); err != nil {
		t.Errorf("save: %v", err)
	}
}

// TestCreateStreamRejectsOversize declares streams whose stripe count or
// retention lies past the declaration bounds (engine.MaxShards,
// window.MaxRetain): each answers 400 bad_request and declares nothing.
// The buckets stay small, so no case makes a large allocation even where
// the bound is missing.
func TestCreateStreamRejectsOversize(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, body := range []string{
		`{"name":"wide","epsilon":1,"buckets":2,"shards":257}`,
		`{"name":"long","epsilon":1,"buckets":2,"epoch":"1m","retain":65537}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/streams", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error ErrorBody `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
			t.Errorf("POST /v1/streams %s = %d code %q (%v), want 400 %q",
				body, resp.StatusCode, env.Error.Code, err, CodeBadRequest)
		}
	}
	if got := len(s.Streams()); got != 1 {
		t.Errorf("%d streams declared, want only the default", got)
	}
}

// TestFederationPushNonFiniteFingerprint pushes binary deltas whose
// fingerprints declare a non-finite ε or bandwidth to an auto-declaring
// root: each answers 409, declares nothing, and leaves the federation lock
// free (Peers answers).
func TestFederationPushNonFiniteFingerprint(t *testing.T) {
	s, ts := newRoot(t, true)
	counts := make([]uint64, 16)
	counts[3] = 5
	d, _ := federate.NewEpochDelta(0, counts)
	for i, fp := range []federate.Fingerprint{
		{Mechanism: "sw", Epsilon: math.NaN(), Buckets: 16, OutputBuckets: 16},
		{Mechanism: "sw", Epsilon: math.Inf(1), Buckets: 16, OutputBuckets: 16},
		{Mechanism: "sw", Epsilon: 1, Buckets: 16, OutputBuckets: 16, Bandwidth: math.NaN()},
	} {
		body, err := federate.EncodePushBinary("e1", 1, []federate.StreamDelta{
			{Stream: "x", Fingerprint: fp, Epochs: []federate.EpochDelta{d}},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/federation/push", "application/x-ldp-binary", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		var pr federate.PushResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusConflict || pr.Applied {
			t.Errorf("push %d: status %d, %+v, %v; want a 409 rejection", i, resp.StatusCode, pr, err)
		}
		if s.lookup("x") != nil {
			t.Errorf("push %d declared its stream", i)
		}
	}
	done := make(chan struct{})
	go func() {
		s.Peers()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Peers blocked: a push left the federation lock held")
	}
}

// TestFederationRejectedAutoDeclareRegistersNothing pins that a push is
// applied in full or not at all, declarations included: an auto-declaring
// root that rejects a push keeps none of the streams it would have declared
// for it, neither the mismatched one nor a valid one earlier in the push.
func TestFederationRejectedAutoDeclareRegistersNothing(t *testing.T) {
	s, ts := newRoot(t, true)
	counts := make([]uint64, 16)
	counts[3] = 5
	d, _ := federate.NewEpochDelta(0, counts)
	good := federate.Fingerprint{Mechanism: "sw", Epsilon: 1, Buckets: 16, OutputBuckets: 16,
		Bandwidth: mechanism.EffectiveBandwidth(mechanism.SW, 1, 0)}
	bad := good
	bad.OutputBuckets = 99
	for _, streams := range [][]federate.StreamDelta{
		{{Stream: "x", Fingerprint: bad, Epochs: []federate.EpochDelta{d}}},
		{
			{Stream: "y", Fingerprint: good, Epochs: []federate.EpochDelta{d}},
			{Stream: "x", Fingerprint: bad, Epochs: []federate.EpochDelta{d}},
		},
	} {
		body, err := federate.EncodePush("e1", 1, streams)
		if err != nil {
			t.Fatal(err)
		}
		pr, status := pushBody(t, ts.URL, body)
		if status != http.StatusConflict || pr.Reason != federate.ReasonFingerprint {
			t.Fatalf("push of %d streams: status %d, %+v; want 409 %s", len(streams), status, pr, federate.ReasonFingerprint)
		}
		for _, sd := range streams {
			if s.lookup(sd.Stream) != nil {
				t.Errorf("rejected push left stream %q registered", sd.Stream)
			}
		}
	}
	// The accepted path still auto-declares.
	body, err := federate.EncodePush("e1", 1, []federate.StreamDelta{{Stream: "y", Fingerprint: good, Epochs: []federate.EpochDelta{d}}})
	if err != nil {
		t.Fatal(err)
	}
	if pr, status := pushBody(t, ts.URL, body); status != http.StatusOK || !pr.Applied {
		t.Fatalf("valid push: status %d, %+v", status, pr)
	}
	if n := s.StreamN("y"); n != 5 {
		t.Errorf("auto-declared stream holds %d reports, want 5", n)
	}
}
