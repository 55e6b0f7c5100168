package ldphttp

// Wire compatibility of plain (never-rotating) streams. A mixed-version
// fleet — edges and roots of different builds, snapshots written by one
// build and read by another — relies on a plain stream looking exactly the
// way it always has on every surface that leaves the process: the push
// fingerprint carries no epoch geometry, the gathered state is one epoch 0,
// the snapshot record has no window block, and /config omits the windowing
// fields. This test pins those shapes.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/federate"
)

func TestPlainStreamWireCompat(t *testing.T) {
	edge := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(edge.Close)
	if err := edge.CreateStream("os", StreamConfig{Epsilon: 1, Buckets: 16, Mechanism: "oue"}); err != nil {
		t.Fatal(err)
	}
	ets := httptest.NewServer(edge.Handler())
	t.Cleanup(ets.Close)

	// Gathered federation state of an empty plain stream: one epoch 0 with
	// nil counts, under a fingerprint with no epoch geometry.
	wantOut := map[string]int{}
	for _, st := range edge.federationStates() {
		fp := st.Fingerprint
		if fp.EpochNanos != 0 || fp.EpochOriginNanos != 0 || fp.Retain != 0 {
			t.Errorf("%s: plain fingerprint carries epoch fields: %+v", st.Name, fp)
		}
		if len(st.Epochs) != 1 || st.Epochs[0].Epoch != 0 || st.Epochs[0].Counts != nil {
			t.Errorf("%s: empty plain state = %+v, want one epoch 0 with nil counts", st.Name, st.Epochs)
		}
		wantOut[st.Name] = fp.OutputBuckets
	}
	if len(wantOut) != 2 {
		t.Fatalf("gathered %d streams, want 2", len(wantOut))
	}

	// Snapshot and config shapes hold for the empty stream and a fed one.
	snapDir := t.TempDir()
	checkSurfaces := func(label string) {
		t.Helper()
		path := filepath.Join(snapDir, label+".snap")
		if err := edge.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		for name, rec := range rawSnapshotStreams(t, path) {
			if _, ok := rec["window"]; ok {
				t.Errorf("%s: plain snapshot record %q has a window key", label, name)
			}
			var counts []uint64
			if err := json.Unmarshal(rec["counts"], &counts); err != nil {
				t.Fatalf("%s: %q counts: %v", label, name, err)
			}
			if len(counts) != wantOut[name] {
				t.Errorf("%s: %q persisted %d counts, want the full %d", label, name, len(counts), wantOut[name])
			}
		}
		for name := range wantOut {
			cfg := getRawJSON(t, ets.URL+"/v1/streams/"+name+"/config")
			for _, key := range []string{"epoch", "retain"} {
				if _, ok := cfg[key]; ok {
					t.Errorf("%s: %q /config carries %q", label, name, key)
				}
			}
			info := getRawJSON(t, ets.URL+"/v1/streams/"+name)
			if _, ok := info["window"]; ok {
				t.Errorf("%s: %q stream info carries a window block", label, name)
			}
			var icfg map[string]json.RawMessage
			if err := json.Unmarshal(info["config"], &icfg); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"epoch", "retain"} {
				if _, ok := icfg[key]; ok {
					t.Errorf("%s: %q stream info config carries %q", label, name, key)
				}
			}
		}
	}
	checkSurfaces("empty")

	postReports(t, ets.URL, DefaultStream, 5, 200)
	resp := postJSON(t, ets.URL+"/v1/streams/os/batch", map[string]any{
		"reports": [][]float64{{1, 2}, {3}, {}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oue batch status %d", resp.StatusCode)
	}
	for _, st := range edge.federationStates() {
		if len(st.Epochs) != 1 || st.Epochs[0].Epoch != 0 || len(st.Epochs[0].Counts) != wantOut[st.Name] {
			t.Errorf("%s: fed plain state = %+v, want one full-length epoch 0", st.Name, st.Epochs)
		}
	}
	checkSurfaces("fed")

	// The pushed payload: one epoch-0 delta per stream, zero epoch fields.
	_, rts := newRoot(t, true)
	var pushes []federate.Push
	capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		if push, err := federate.DecodePushAuto(body); err == nil {
			pushes = append(pushes, push)
		} else {
			t.Errorf("decode pushed payload: %v", err)
		}
		req, _ := http.NewRequest(r.Method, rts.URL+r.URL.Path, bytes.NewReader(body))
		req.Header = r.Header
		fwd, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer fwd.Body.Close()
		w.Header().Set("Content-Type", fwd.Header.Get("Content-Type"))
		w.WriteHeader(fwd.StatusCode)
		io.Copy(w, fwd.Body)
	}))
	t.Cleanup(capture.Close)
	if err := edge.EnablePush(PushOptions{URL: capture.URL, Edge: "e1", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if ok, err := edge.PushNow(); !ok || err != nil {
		t.Fatalf("PushNow = %v, %v", ok, err)
	}
	if len(pushes) != 1 || len(pushes[0].Streams) != 2 {
		t.Fatalf("captured %d pushes (%+v), want one carrying both streams", len(pushes), pushes)
	}
	for _, sd := range pushes[0].Streams {
		if sd.Fingerprint.EpochNanos != 0 || sd.Fingerprint.EpochOriginNanos != 0 {
			t.Errorf("%s: pushed plain fingerprint carries epoch fields: %+v", sd.Stream, sd.Fingerprint)
		}
		if len(sd.Epochs) != 1 || sd.Epochs[0].Epoch != 0 {
			t.Errorf("%s: pushed deltas %+v, want exactly one epoch-0 delta", sd.Stream, sd.Epochs)
		}
	}
}

// rawSnapshotStreams reads a snapshot file's stream records as raw JSON
// objects keyed by stream name, so tests can assert on key presence.
func rawSnapshotStreams(t *testing.T, path string) map[string]map[string]json.RawMessage {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(blob, '\n')
	if nl < 0 {
		t.Fatal("snapshot has no header line")
	}
	var payload struct {
		Streams []map[string]json.RawMessage `json:"streams"`
	}
	if err := json.Unmarshal(blob[nl+1:], &payload); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]json.RawMessage, len(payload.Streams))
	for _, rec := range payload.Streams {
		var name string
		if err := json.Unmarshal(rec["name"], &name); err != nil {
			t.Fatal(err)
		}
		out[name] = rec
	}
	return out
}

// getRawJSON GETs url and decodes a 200 JSON object body into raw fields.
func getRawJSON(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}
