package ldphttp

// Serving-path acceptance for the pluggable mechanism layer: streams
// declared with non-SW mechanisms must serve /estimate and /query end to
// end through the same HTTP surface, /config must echo the full effective
// configuration, snapshots must carry the mechanism through a restart
// bit-identically (payload version 3), and mixing mechanisms across streams
// must stay race-free under concurrent load.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldptest"
	"repro/internal/randx"
	"repro/internal/snapshot"
)

// TestServingAcceptanceGRR drives seeded synthetic GRR clients through full
// HTTP rounds: categorical randomized response on the client, scalar wire
// reports, EM/EMS reconstruction through the structured flat+diagonal
// channel on the server.
func TestServingAcceptanceGRR(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: 10 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if err := s.CreateStream("os", StreamConfig{Epsilon: 4, Buckets: 32, Mechanism: "grr"}); err != nil {
		t.Fatal(err)
	}
	rep, err := ldptest.CheckServing(ts.URL,
		func(rng *randx.Rand) float64 { return rng.Beta(5, 2) },
		ldptest.ServingOptions{
			Stream: "os", Mechanism: "grr", Epsilon: 4, Buckets: 32,
			Clients: 5000, Seed: 21, MaxW1: acceptW1, MaxKS: acceptKS,
		})
	t.Logf("grr: N=%d W1=%.4f KS=%.4f", rep.N, rep.W1, rep.KS)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 5000 {
		t.Errorf("estimate covers %d reports, want 5000", rep.N)
	}
}

// TestServingAcceptanceOUE drives seeded synthetic OUE clients end to end:
// vector wire reports (set-bit indices), fan-out ingestion with the user
// marker cell, matrix-free debiased reconstruction.
func TestServingAcceptanceOUE(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: 10 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if err := s.CreateStream("lang", StreamConfig{Epsilon: 3, Buckets: 32, Mechanism: "oue"}); err != nil {
		t.Fatal(err)
	}
	rep, err := ldptest.CheckServing(ts.URL,
		func(rng *randx.Rand) float64 { return rng.Beta(2, 6) },
		ldptest.ServingOptions{
			Stream: "lang", Mechanism: "oue", Epsilon: 3, Buckets: 32,
			Clients: 5000, Seed: 23, MaxW1: acceptW1, MaxKS: acceptKS,
		})
	t.Logf("oue: N=%d W1=%.4f KS=%.4f", rep.N, rep.W1, rep.KS)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 5000 {
		t.Errorf("estimate covers %d reports, want 5000", rep.N)
	}
}

// TestMechanismStreamsEndToEnd is the acceptance criterion of the mechanism
// layer: for each of oue, grr, olh and auto, a stream declared over HTTP
// serves /estimate and /query, /config reports the full effective
// configuration, and the stream survives a snapshot restart (written as
// payload v3) with a bit-identical cached estimate.
func TestMechanismStreamsEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mech.snap")

	s1 := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: 10 * time.Millisecond})
	ts1 := httptest.NewServer(s1.Handler())

	streams := []struct {
		name     string
		declared string // mechanism as declared
		want     string // concrete mechanism after auto-resolution
		eps      float64
		buckets  int
	}{
		{"s-oue", "oue", "oue", 2, 32},
		{"s-grr", "grr", "grr", 2, 32},
		{"s-olh", "olh", "olh", 2, 32},
		// ε=2, d=64: 62 ≥ 3e² ≈ 22.2 — auto must resolve to olh.
		{"s-auto", "auto", "olh", 2, 64},
	}
	estimates := make(map[string][]float64)
	for _, tc := range streams {
		blob, _ := json.Marshal(map[string]any{
			"name": tc.name, "epsilon": tc.eps, "buckets": tc.buckets, "mechanism": tc.declared,
		})
		resp, err := http.Post(ts1.URL+"/v1/streams", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("declare %s: status %d", tc.name, resp.StatusCode)
		}

		// The full effective configuration comes back on .../config.
		var cfg ConfigResponse
		getJSON(t, ts1.URL+streamPath(tc.name)+"/config", &cfg)
		if cfg.Mechanism != tc.want {
			t.Errorf("%s: /config mechanism = %q, want %q", tc.name, cfg.Mechanism, tc.want)
		}
		if cfg.Epsilon != tc.eps || cfg.Buckets != tc.buckets {
			t.Errorf("%s: /config = %+v", tc.name, cfg)
		}
		if cfg.OutputBuckets == 0 || cfg.Shards == 0 {
			t.Errorf("%s: /config missing effective values: %+v", tc.name, cfg)
		}

		// Full serving round, loose bounds (small n — this checks the
		// plumbing; the statistical acceptance lives in the dedicated
		// GRR/OUE tests above).
		rep, err := ldptest.CheckServing(ts1.URL,
			func(rng *randx.Rand) float64 { return rng.Beta(5, 2) },
			ldptest.ServingOptions{
				Stream: tc.name, Mechanism: tc.want, Epsilon: tc.eps, Buckets: tc.buckets,
				Clients: 3000, Seed: 31, MaxW1: 0.12, MaxKS: 0.25,
			})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.N != 3000 {
			t.Errorf("%s: estimate covers %d reports, want 3000", tc.name, rep.N)
		}
		estimates[tc.name] = rep.Estimate

		// .../query serves analytics computed from the same reconstruction.
		var q struct {
			N      int       `json:"n"`
			Values []float64 `json:"values"`
		}
		getJSON(t, ts1.URL+streamPath(tc.name)+"/query?type=quantile&q=0.5", &q)
		if q.N != 3000 || len(q.Values) != 1 || q.Values[0] < 0 || q.Values[0] > 1 {
			t.Errorf("%s: /query answered %+v", tc.name, q)
		}
	}

	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	// The snapshot is a v3 file carrying concrete mechanism ids.
	recs, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]snapshot.Stream)
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	for _, tc := range streams {
		if got := byName[tc.name].Mechanism; got != tc.want {
			t.Errorf("snapshot %s mechanism = %q, want %q", tc.name, got, tc.want)
		}
	}

	// Restart: streams come back with their mechanisms and bit-identical
	// cached estimates.
	s2 := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
	t.Cleanup(s2.Close)
	if err := s2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	for _, tc := range streams {
		est := getFreshStreamEstimate(t, ts2.URL, tc.name, 3000)
		if !est.Restored {
			t.Errorf("%s: restored estimate not marked restored", tc.name)
		}
		if est.Mechanism != tc.want {
			t.Errorf("%s: restored estimate mechanism = %q, want %q", tc.name, est.Mechanism, tc.want)
		}
		want := estimates[tc.name]
		if len(est.Distribution) != len(want) {
			t.Fatalf("%s: restored %d buckets, want %d", tc.name, len(est.Distribution), len(want))
		}
		for i := range want {
			if est.Distribution[i] != want[i] {
				t.Fatalf("%s bucket %d: restored %v != original %v (not bit-identical)",
					tc.name, i, est.Distribution[i], want[i])
			}
		}
	}
	// Redeclaring a restored stream with a different mechanism must fail.
	if err := s2.CreateStream("s-oue", StreamConfig{Epsilon: 2, Buckets: 32, Mechanism: "grr"}); err == nil {
		t.Error("redeclaring s-oue as grr was accepted")
	}
}

// TestMechanismWireValidation: malformed vector reports are a 400, never a
// panic or a silent mis-ingest, and a bad report in a batch rejects the
// whole batch.
func TestMechanismWireValidation(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, Mechanism: "oue", RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, body := range []string{
		`{"report": [3, 3]}`,      // duplicate set bit
		`{"report": [16]}`,        // out of domain
		`{"report": [2.5]}`,       // non-integer
		`{"report": "zz"}`,        // not a number or array
		`{"report": [-1]}`,        // negative index
		`{"report": [5, 2]}`,      // not increasing
		`{"report": [0, 1, 2.7]}`, // trailing junk
	} {
		resp, err := http.Post(ts.URL+"/v1/streams/default/report", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST .../report %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := s.StreamN(""); n != 0 {
		t.Fatalf("invalid reports were ingested: N = %d", n)
	}

	// A batch with one bad report must be rejected atomically.
	blob := []byte(`{"reports": [[1], [2], [99]]}`)
	resp, err := http.Post(ts.URL+"/v1/streams/default/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad batch status %d, want 400", resp.StatusCode)
	}
	if n := s.StreamN(""); n != 0 {
		t.Fatalf("half-applied batch: N = %d, want 0", n)
	}

	// And a valid empty OUE report (no surviving bits) still counts.
	resp, err = http.Post(ts.URL+"/v1/streams/default/report", "application/json", bytes.NewReader([]byte(`{"report": []}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty oue report status %d, want 200", resp.StatusCode)
	}
	if n := s.StreamN(""); n != 1 {
		t.Errorf("empty oue report: N = %d, want 1", n)
	}
}

// TestStressMixedMechanisms mixes four mechanisms across four streams under
// concurrent ingestion, estimate/query pollers and live snapshots — the
// -race case of the mechanism layer.
func TestStressMixedMechanisms(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	snapPath := filepath.Join(t.TempDir(), "mix.snap")

	mechs := []string{"sw", "grr", "oue", "olh"}
	for _, name := range mechs {
		if err := s.CreateStream(name, StreamConfig{Epsilon: 2, Buckets: 16, Mechanism: name}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		perStreamWorkers = 2
		perWorker        = 150
	)
	var wg sync.WaitGroup
	errs := make(chan error, len(mechs)*perStreamWorkers+8)

	for _, name := range mechs {
		for w := 0; w < perStreamWorkers; w++ {
			wg.Add(1)
			go func(mech string, id int) {
				defer wg.Done()
				client := core.NewClient(core.Config{Epsilon: 2, Buckets: 16, Mechanism: mech, Smoothing: true})
				rng := randx.New(uint64(1000 + id))
				for i := 0; i < perWorker; i++ {
					rep := client.Perturb(rng.Beta(5, 2), rng)
					var wire any = []float64(rep)
					if client.Mechanism().Scalar() {
						wire = rep[0]
					}
					blob, _ := json.Marshal(map[string]any{"stream": mech, "report": wire})
					resp, err := http.Post(ts.URL+streamPath(mech)+"/report", "application/json", bytes.NewReader(blob))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s report status %d", mech, resp.StatusCode)
						return
					}
				}
			}(name, len(errs)+w)
		}
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	// Estimate/query pollers across all streams.
	for i := 0; i < 2; i++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range mechs {
					resp, err := http.Get(ts.URL + streamPath(name) + "/estimate")
					if err == nil {
						resp.Body.Close()
					}
					resp, err = http.Get(ts.URL + streamPath(name) + "/query?type=mean")
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}
	// Live snapshots while everything churns.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SaveSnapshot(snapPath); err != nil {
				errs <- fmt.Errorf("snapshot: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	aux.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	wantPerStream := perStreamWorkers * perWorker
	for _, name := range mechs {
		if n := s.StreamN(name); n != wantPerStream {
			t.Errorf("stream %s N = %d, want %d (lost or duplicated reports)", name, n, wantPerStream)
		}
	}
	// The final snapshot must restore every stream with its mechanism.
	if err := s.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(s2.Close)
	if err := s2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	for _, name := range mechs {
		if n := s2.StreamN(name); n != wantPerStream {
			t.Errorf("restored stream %s N = %d, want %d", name, n, wantPerStream)
		}
	}
	for _, info := range s2.Streams() {
		if info.Name == DefaultStream {
			continue
		}
		if info.Mechanism != info.Name {
			t.Errorf("restored stream %s carries mechanism %q", info.Name, info.Mechanism)
		}
	}
}

// getJSON decodes a 200 response into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
