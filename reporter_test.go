package repro_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/ldphttp"
)

// reporterCollector spins a collector whose refresh engine stays quiet and
// returns its base URL plus a probe for the default stream's report count.
func reporterCollector(t *testing.T) (string, func() int) {
	t.Helper()
	s := ldphttp.NewServer(ldphttp.Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	streamN := func() int {
		resp, err := http.Get(ts.URL + "/v1/streams/default")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info struct {
			N int `json:"n"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info.N
	}
	return ts.URL, streamN
}

func TestReporterShipsBatches(t *testing.T) {
	for _, binary := range []bool{false, true} {
		name := "json"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			url, streamN := reporterCollector(t)
			rep, err := repro.NewReporter(repro.ReporterOptions{
				URL:      url,
				Options:  repro.Options{Epsilon: 1, Buckets: 64, Seed: 7},
				Binary:   binary,
				MaxBatch: 8,
				MaxDelay: time.Hour, // only size- and Close-triggered flushes
			})
			if err != nil {
				t.Fatal(err)
			}
			const reports = 20
			for i := 0; i < reports; i++ {
				if err := rep.Report(float64(i) / reports); err != nil {
					t.Fatal(err)
				}
			}
			// Two full batches of 8 have shipped on size; 4 remain queued
			// until Flush/Close.
			if err := rep.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if got := streamN(); got != reports {
				t.Fatalf("collector has %d reports after Flush, want %d", got, reports)
			}
			if err := rep.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := rep.Report(0.5); err == nil {
				t.Fatal("Report after Close succeeded")
			}
		})
	}
}

// TestReporterJSONShapes captures what the Reporter sends: an sw batch is
// {"reports": [...]} of bare numbers, an oue batch keeps its arrays, and
// both decode, as the collector decodes them, to the reports a client with
// the same seed perturbs.
func TestReporterJSONShapes(t *testing.T) {
	for _, mech := range []string{"sw", "oue"} {
		t.Run(mech, func(t *testing.T) {
			var mu sync.Mutex
			var bodies [][]byte
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				mu.Lock()
				bodies = append(bodies, body)
				mu.Unlock()
				w.Write([]byte(`{"accepted": 1}`))
			}))
			t.Cleanup(ts.Close)
			opts := repro.Options{Epsilon: 1, Buckets: 16, Seed: 11, Mechanism: mech}
			rep, err := repro.NewReporter(repro.ReporterOptions{URL: ts.URL, Options: opts,
				MaxBatch: 5, MaxDelay: time.Hour, DisableTracing: true})
			if err != nil {
				t.Fatal(err)
			}
			client, err := repro.NewClient(opts)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]float64
			for i := 0; i < 10; i++ {
				v := float64(i) / 10
				want = append(want, client.Perturb(v))
				if err := rep.Report(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := rep.Close(); err != nil {
				t.Fatal(err)
			}
			var got [][]float64
			for _, body := range bodies {
				var shape struct {
					Reports []json.RawMessage `json:"reports"`
				}
				if err := json.Unmarshal(body, &shape); err != nil {
					t.Fatalf("body %s: %v", body, err)
				}
				for _, raw := range shape.Reports {
					if bare := !bytes.HasPrefix(raw, []byte("[")); bare != (mech == "sw") {
						t.Errorf("%s report sent as %s", mech, raw)
					}
				}
				var batch struct {
					Reports []ldphttp.WireReport `json:"reports"`
				}
				if err := json.Unmarshal(body, &batch); err != nil {
					t.Fatalf("body %s does not decode: %v", body, err)
				}
				for _, r := range batch.Reports {
					got = append(got, r)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d reports arrived, want %d", len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("report %d: got %v, want %v", i, got[i], want[i])
				}
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("report %d: got %v, want %v", i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestReporterRejectsBadTargets(t *testing.T) {
	if _, err := repro.NewReporter(repro.ReporterOptions{}); err == nil {
		t.Fatal("missing URL accepted")
	}
	if _, err := repro.NewReporter(repro.ReporterOptions{URL: "ftp://x"}); err == nil {
		t.Fatal("non-http URL accepted")
	}
	if _, err := repro.NewReporter(repro.ReporterOptions{
		URL: "http://localhost:1", Options: repro.Options{Epsilon: -3},
	}); err == nil {
		t.Fatal("invalid randomizer options accepted")
	}
}

func TestReporterSurfacesCollectorErrors(t *testing.T) {
	// A collector refusing the batch (unknown stream) must surface through
	// Flush, and the reports stay queued rather than vanish.
	url, _ := reporterCollector(t)
	rep, err := repro.NewReporter(repro.ReporterOptions{
		URL:      url,
		Stream:   "not-declared",
		Options:  repro.Options{Epsilon: 1, Buckets: 64, Seed: 7},
		MaxBatch: 64,
		MaxDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Report(0.5); err != nil {
		t.Fatal(err)
	}
	if err := rep.Flush(); err == nil {
		t.Fatal("Flush against an unknown stream returned nil")
	}
	rep.Close()
}
