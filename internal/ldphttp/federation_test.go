package ldphttp

// Handler-level federation tests: the push protocol state machine (replay,
// sequence gaps, fingerprint conflicts, auto-declaration), epoch placement
// into windowed streams, peer bookkeeping, and snapshot persistence of the
// cursors on both sides.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/federate"
	"repro/internal/window"
)

// newRoot builds an accepting root server (auto-declare per flag).
func newRoot(t *testing.T, autoDeclare bool) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour,
		Federation: FederationConfig{Accept: true, AutoDeclare: autoDeclare},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// pushBody POSTs a raw payload to /federation/push and decodes the answer.
func pushBody(t *testing.T, url string, body []byte) (federate.PushResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/federation/push", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr federate.PushResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode push response: %v", err)
	}
	return pr, resp.StatusCode
}

// encodePush builds a payload for one stream/epoch with the fingerprint of
// the given server stream.
func encodePush(t *testing.T, s *Server, edge string, seq int64, stream string, epoch int, counts []uint64) []byte {
	t.Helper()
	st := s.lookup(stream)
	if st == nil {
		t.Fatalf("stream %q not found for fingerprint", stream)
	}
	d, ok := federate.NewEpochDelta(epoch, counts)
	if !ok {
		t.Fatal("empty delta")
	}
	body, err := federate.EncodePush(edge, seq, []federate.StreamDelta{{
		Stream: stream, Fingerprint: s.fingerprintOf(st), Epochs: []federate.EpochDelta{d},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestFederationPushDisabled(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := encodePush(t, s, "e1", 1, DefaultStream, 0, []uint64{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	pr, code := pushBody(t, ts.URL, body)
	if code != http.StatusForbidden || pr.Reason != federate.ReasonDisabled {
		t.Fatalf("disabled root answered %d %+v", code, pr)
	}
}

func TestFederationPushAppliesAndCounts(t *testing.T) {
	s, ts := newRoot(t, false)
	counts := make([]uint64, 32)
	counts[3], counts[17] = 5, 2
	pr, code := pushBody(t, ts.URL, encodePush(t, s, "e1", 1, DefaultStream, 0, counts))
	if code != http.StatusOK || !pr.Applied || pr.Reports != 7 || pr.LastSeq != 1 {
		t.Fatalf("push answered %d %+v", code, pr)
	}
	if got := s.StreamN(DefaultStream); got != 7 {
		t.Fatalf("root stream has %d reports, want 7", got)
	}
	// The engine's staleness accounting covers federated increments: the
	// estimate eventually covers them.
	est := getFreshStreamEstimate(t, ts.URL, "", 7)
	if est.N != 7 {
		t.Fatalf("estimate covers %d, want 7", est.N)
	}

	peers := s.Peers()
	if len(peers) != 1 || peers[0].Edge != "e1" || peers[0].LastSeq != 1 ||
		peers[0].Reports != 7 || len(peers[0].Streams) != 1 || peers[0].Streams[0].N != 7 {
		t.Fatalf("peers %+v", peers)
	}
}

func TestFederationReplayAndSeqGap(t *testing.T) {
	s, ts := newRoot(t, false)
	counts := make([]uint64, 32)
	counts[0] = 4
	body := encodePush(t, s, "e1", 1, DefaultStream, 0, counts)
	if pr, code := pushBody(t, ts.URL, body); code != 200 || !pr.Applied {
		t.Fatalf("first push %d %+v", code, pr)
	}
	// Byte-identical replay: skipped, CRC echoed, nothing double-counted.
	pr, code := pushBody(t, ts.URL, body)
	if code != 200 || !pr.Duplicate || pr.Applied || pr.CRC == "" {
		t.Fatalf("replay answered %d %+v", code, pr)
	}
	if got := s.StreamN(DefaultStream); got != 4 {
		t.Fatalf("replay double-counted: N=%d", got)
	}
	// A sequence far ahead is a gap conflict.
	pr, code = pushBody(t, ts.URL, encodePush(t, s, "e1", 9, DefaultStream, 0, counts))
	if code != http.StatusConflict || pr.Reason != federate.ReasonSeqGap || pr.LastSeq != 1 {
		t.Fatalf("gap push answered %d %+v", code, pr)
	}
}

func TestFederationUnknownStreamAndAutoDeclare(t *testing.T) {
	// Without auto-declare: 409 with the machine-readable reason.
	s, ts := newRoot(t, false)
	body, err := federate.EncodePush("e1", 1, []federate.StreamDelta{{
		Stream: "mystery",
		Fingerprint: federate.Fingerprint{
			Mechanism: "grr", Epsilon: 1, Buckets: 8, OutputBuckets: 8,
		},
		Epochs: []federate.EpochDelta{{Epoch: 0, N: 1, Counts: []uint64{1, 0, 0, 0, 0, 0, 0, 0}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pr, code := pushBody(t, ts.URL, body)
	if code != http.StatusConflict || pr.Reason != federate.ReasonUnknownStream {
		t.Fatalf("unknown stream answered %d %+v", code, pr)
	}
	if s.lookup("mystery") != nil {
		t.Fatal("stream appeared without auto-declare")
	}

	// With auto-declare: the stream is created from the fingerprint and the
	// delta lands.
	s2, ts2 := newRoot(t, true)
	pr, code = pushBody(t, ts2.URL, body)
	if code != 200 || !pr.Applied {
		t.Fatalf("auto-declare push answered %d %+v", code, pr)
	}
	st := s2.lookup("mystery")
	if st == nil {
		t.Fatal("auto-declared stream missing")
	}
	if st.cfg.Mechanism != "grr" || st.cfg.Buckets != 8 || st.cfg.Epsilon != 1 {
		t.Fatalf("auto-declared config %+v", st.cfg)
	}
	if got := s2.StreamN("mystery"); got != 1 {
		t.Fatalf("auto-declared stream has %d reports", got)
	}
}

func TestFederationFingerprintMismatch(t *testing.T) {
	s, ts := newRoot(t, true)
	if err := s.CreateStream("age", StreamConfig{Epsilon: 2, Buckets: 16}); err != nil {
		t.Fatal(err)
	}
	st := s.lookup("age")
	fp := s.fingerprintOf(st)
	fp.Epsilon = 1 // the edge disagrees about ε
	body, err := federate.EncodePush("e1", 1, []federate.StreamDelta{{
		Stream: "age", Fingerprint: fp,
		Epochs: []federate.EpochDelta{{Epoch: 0, N: 1, Counts: append([]uint64{1}, make([]uint64, 15)...)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pr, code := pushBody(t, ts.URL, body)
	if code != http.StatusConflict || pr.Reason != federate.ReasonFingerprint {
		t.Fatalf("mismatched push answered %d %+v", code, pr)
	}
	if got := s.StreamN("age"); got != 0 {
		t.Fatalf("mismatched push merged %d reports", got)
	}
	// The sequence did not advance: a corrected payload with the same seq
	// applies.
	good := encodePush(t, s, "e1", 1, "age", 0, append([]uint64{1}, make([]uint64, 15)...))
	if pr, code := pushBody(t, ts.URL, good); code != 200 || !pr.Applied {
		t.Fatalf("corrected push answered %d %+v", code, pr)
	}
}

func TestFederationPushAtomicAcrossStreams(t *testing.T) {
	// A payload with one good stream and one conflicting stream must apply
	// nothing.
	s, ts := newRoot(t, false)
	if err := s.CreateStream("good", StreamConfig{Epsilon: 1, Buckets: 16}); err != nil {
		t.Fatal(err)
	}
	goodSt := s.lookup("good")
	body, err := federate.EncodePush("e1", 1, []federate.StreamDelta{
		{Stream: "good", Fingerprint: s.fingerprintOf(goodSt),
			Epochs: []federate.EpochDelta{{Epoch: 0, N: 3, Counts: append([]uint64{3}, make([]uint64, 15)...)}}},
		{Stream: "absent", Fingerprint: fingerprintStub(),
			Epochs: []federate.EpochDelta{{Epoch: 0, N: 1, Counts: []uint64{1, 0}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr, code := pushBody(t, ts.URL, body); code != http.StatusConflict || pr.Applied {
		t.Fatalf("partial push answered %d %+v", code, pr)
	}
	if got := s.StreamN("good"); got != 0 {
		t.Fatalf("rejected push still merged %d reports into the good stream", got)
	}
}

func fingerprintStub() federate.Fingerprint {
	return federate.Fingerprint{Mechanism: "sw", Epsilon: 1, Buckets: 2, OutputBuckets: 2, Bandwidth: 0.5}
}

func TestFederationMalformedPayloads(t *testing.T) {
	s, ts := newRoot(t, false)
	cases := map[string][]byte{
		"not json": []byte("nope"),
		"empty":    nil,
		"bad crc":  []byte(`{"version":1,"edge":"e","seq":1,"payload_crc32":"00000000","streams":[]}`),
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/federation/push", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// A delta whose width disagrees with the stream's histogram is 400, and
	// the sequence does not advance.
	body, err := federate.EncodePush("e1", 1, []federate.StreamDelta{{
		Stream: DefaultStream, Fingerprint: s.fingerprintOf(s.lookup(DefaultStream)),
		Epochs: []federate.EpochDelta{{Epoch: 0, N: 1, Counts: []uint64{1}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, code := pushBody(t, ts.URL, body); code != http.StatusBadRequest {
		t.Fatalf("wrong-width delta answered %d", code)
	}
	if len(s.Peers()) != 0 {
		t.Fatal("failed push left a peer cursor behind")
	}

	// A delta addressing a non-zero epoch of a plain stream is 400.
	counts := make([]uint64, 32)
	counts[0] = 1
	if _, code := pushBody(t, ts.URL, encodePush(t, s, "e1", 1, DefaultStream, 3, counts)); code != http.StatusBadRequest {
		t.Fatalf("plain-stream epoch-3 delta answered %d", code)
	}
}

func TestFederationWindowedEpochPlacement(t *testing.T) {
	clock := newMockClock()
	s := NewServer(Config{
		Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour, Clock: clock.Now,
		Federation: FederationConfig{Accept: true},
	})
	t.Cleanup(s.Close)
	if err := s.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 16,
		Epoch: Duration(time.Minute), Retain: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	one := func(b int) []uint64 { c := make([]uint64, 16); c[b] = 1; return c }

	// Epoch 0 while live.
	if pr, code := pushBody(t, ts.URL, encodePush(t, s, "e1", 1, "lat", 0, one(0))); code != 200 || !pr.Applied {
		t.Fatalf("live push %d %+v", code, pr)
	}
	// Rotate to epoch 2; epoch 0 is now sealed. The push path itself
	// advances the ring on the shared clock.
	clock.Advance(2 * time.Minute)
	if pr, code := pushBody(t, ts.URL, encodePush(t, s, "e1", 2, "lat", 0, one(1))); code != 200 || pr.Streams[0].AppliedEpochs != 1 {
		t.Fatalf("sealed push %d %+v", code, pr)
	}
	st := s.lookup("lat")
	if cur, _ := st.ring.Current(); cur != 2 {
		t.Fatalf("push did not advance the ring: current %d", cur)
	}
	// The sealed epoch holds both increments.
	hist, n, err := st.ring.Merge(window.Range{Lo: 0, Hi: 0}, nil)
	if err != nil || n != 2 || hist[0] != 1 || hist[1] != 1 {
		t.Fatalf("sealed epoch 0: hist=%v n=%d err=%v", hist, n, err)
	}

	// A future epoch is dropped and reported, not an error.
	pr, code := pushBody(t, ts.URL, encodePush(t, s, "e1", 3, "lat", 9, one(2)))
	if code != 200 || !pr.Applied || len(pr.Streams[0].DroppedEpochs) != 1 || pr.Streams[0].DroppedEpochs[0] != 9 {
		t.Fatalf("future-epoch push %d %+v", code, pr)
	}
	// An aged-out epoch likewise (retain 2, current 2 → oldest kept is 0;
	// advance so epoch 0 ages out).
	clock.Advance(2 * time.Minute)
	pr, code = pushBody(t, ts.URL, encodePush(t, s, "e1", 4, "lat", 0, one(3)))
	if code != 200 || !pr.Applied || pr.Streams[0].DroppedN != 1 {
		t.Fatalf("aged-epoch push %d %+v", code, pr)
	}
	peers := s.Peers()
	if peers[0].Dropped != 2 {
		t.Fatalf("dropped counter %d, want 2", peers[0].Dropped)
	}
	// Watermarks for aged epochs are pruned.
	for _, psi := range peers[0].Streams {
		for _, ep := range psi.Epochs {
			if ep.Epoch < st.ring.Oldest() {
				t.Fatalf("stale watermark for epoch %d survives", ep.Epoch)
			}
		}
	}
}

func TestFederationRootSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "root.snap")
	s, ts := newRoot(t, false)
	counts := make([]uint64, 32)
	counts[5] = 6
	body := encodePush(t, s, "e1", 1, DefaultStream, 0, counts)
	if pr, code := pushBody(t, ts.URL, body); code != 200 || !pr.Applied {
		t.Fatalf("push %d %+v", code, pr)
	}
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// A restored root remembers the peer cursor: the replay is skipped and
	// the histogram is not double-counted.
	s2 := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour,
		Federation: FederationConfig{Accept: true}})
	t.Cleanup(s2.Close)
	if err := s2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	if got := s2.StreamN(DefaultStream); got != 6 {
		t.Fatalf("restored root has %d reports", got)
	}
	pr, code := pushBody(t, ts2.URL, body)
	if code != 200 || !pr.Duplicate || pr.CRC == "" {
		t.Fatalf("replay on restored root answered %d %+v", code, pr)
	}
	if got := s2.StreamN(DefaultStream); got != 6 {
		t.Fatalf("restored root double-counted: %d", got)
	}
	peers := s2.Peers()
	if len(peers) != 1 || peers[0].LastSeq != 1 || peers[0].Reports != 6 {
		t.Fatalf("restored peers %+v", peers)
	}
}

func TestFederationPeersEndpointAndMethods(t *testing.T) {
	_, ts := newRoot(t, false)
	resp, err := http.Get(ts.URL + "/federation/peers")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Peers []PeerInfo `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(out.Peers) != 0 {
		t.Fatalf("empty peers answered %d %+v", resp.StatusCode, out)
	}
}

func TestEnablePushValidation(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 8, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	if err := s.EnablePush(PushOptions{URL: "http://x", Edge: "bad name!"}); err == nil {
		t.Fatal("invalid edge id accepted")
	}
	if err := s.EnablePush(PushOptions{URL: ":/bad", Edge: "e"}); err == nil {
		t.Fatal("invalid URL accepted")
	}
	if _, err := s.PushNow(); err == nil {
		t.Fatal("PushNow without EnablePush succeeded")
	}
	if st := s.PushStatus(); st.Edge != "" {
		t.Fatalf("status without pusher: %+v", st)
	}
	if err := s.EnablePush(PushOptions{URL: "http://127.0.0.1:0", Edge: "e", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnablePush(PushOptions{URL: "http://127.0.0.1:0", Edge: "e", Interval: time.Hour}); err == nil {
		t.Fatal("double EnablePush accepted")
	}
}

func TestFederationEdgeSnapshotCursorStash(t *testing.T) {
	// An edge snapshot with a push cursor loads before EnablePush (the
	// normal boot order) and the cursor survives into the tracker.
	dir := t.TempDir()
	path := filepath.Join(dir, "edge.snap")

	root, rootTS := newRoot(t, true)
	_ = root

	edge := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	if err := edge.EnablePush(PushOptions{URL: rootTS.URL, Edge: "e1", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	edgeTS := httptest.NewServer(edge.Handler())
	t.Cleanup(edgeTS.Close)
	if resp := postJSON(t, edgeTS.URL+"/v1/streams/default/report", map[string]float64{"report": 0.25}); resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if acked, err := edge.PushNow(); err != nil || !acked {
		t.Fatalf("edge push: acked=%v err=%v", acked, err)
	}
	if err := edge.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	edge.Close()

	edge2 := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(edge2.Close)
	if err := edge2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := edge2.EnablePush(PushOptions{URL: rootTS.URL, Edge: "e1", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if got := edge2.PushStatus().AckedSeq; got != 1 {
		t.Fatalf("restored edge acked seq %d, want 1", got)
	}
	// Nothing new to ship: the acked basis survived, so no delta is built
	// and the root is not double-fed.
	if acked, err := edge2.PushNow(); err != nil || acked {
		t.Fatalf("restored edge re-shipped: acked=%v err=%v", acked, err)
	}
	if got := root.StreamN(DefaultStream); got != 1 {
		t.Fatalf("root has %d reports, want 1", got)
	}
}

func TestFederationWindowedOriginMismatch(t *testing.T) {
	// Two windowed streams whose epoch indexes name different wall-clock
	// intervals must not merge: the origin is part of the fingerprint, so
	// the misalignment is a loud 409 instead of reports silently landing
	// in the wrong epochs.
	clock := newMockClock()
	root := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
		Clock: clock.Now, Federation: FederationConfig{Accept: true}})
	t.Cleanup(root.Close)
	if err := root.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 16,
		Epoch: Duration(time.Minute), Retain: 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(root.Handler())
	t.Cleanup(ts.Close)

	st := root.lookup("lat")
	fp := root.fingerprintOf(st)
	fp.EpochOriginNanos += int64(30 * time.Second) // an edge born 30s later
	counts := make([]uint64, 16)
	counts[0] = 1
	body, err := federate.EncodePush("late-edge", 1, []federate.StreamDelta{{
		Stream: "lat", Fingerprint: fp,
		Epochs: []federate.EpochDelta{{Epoch: 0, N: 1, Counts: counts}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pr, code := pushBody(t, ts.URL, body)
	if code != http.StatusConflict || pr.Reason != federate.ReasonFingerprint {
		t.Fatalf("misaligned push answered %d %+v", code, pr)
	}
	if got := root.StreamN("lat"); got != 0 {
		t.Fatalf("misaligned push merged %d reports", got)
	}
}

func TestFederationAutoDeclareAdoptsEdgeOrigin(t *testing.T) {
	// A root that auto-declares a windowed stream re-anchors its ring on
	// the edge's epoch origin, fast-forwarded to the root's clock — so the
	// edge's epoch indexes land in the right wall-clock intervals even
	// though the root first heard of the stream much later.
	clock := newMockClock()
	root := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour,
		Clock: clock.Now, Federation: FederationConfig{Accept: true, AutoDeclare: true}})
	t.Cleanup(root.Close)
	ts := httptest.NewServer(root.Handler())
	t.Cleanup(ts.Close)

	// The edge's stream was born 3 epochs before the push arrives.
	origin := clock.Now().Add(-3 * time.Minute).UnixNano()
	fp := federate.Fingerprint{
		Mechanism: "sw", Epsilon: 1, Buckets: 16, OutputBuckets: 16,
		Bandwidth:  swBOpt1(t),
		EpochNanos: int64(time.Minute), Retain: 8, EpochOriginNanos: origin,
	}
	counts := make([]uint64, 16)
	counts[2] = 4
	body, err := federate.EncodePush("e1", 1, []federate.StreamDelta{{
		Stream: "lat", Fingerprint: fp,
		Epochs: []federate.EpochDelta{{Epoch: 3, N: 4, Counts: counts}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pr, code := pushBody(t, ts.URL, body)
	if code != 200 || !pr.Applied || pr.Streams[0].AppliedEpochs != 1 {
		t.Fatalf("origin-adopting push answered %d %+v", code, pr)
	}
	st := root.lookup("lat")
	if cur, _ := st.ring.Current(); cur != 3 {
		t.Fatalf("auto-declared ring current epoch %d, want 3", cur)
	}
	if got := root.fingerprintOf(st).EpochOriginNanos; got != origin {
		t.Fatalf("auto-declared origin %d, want %d", got, origin)
	}
	if got := root.StreamN("lat"); got != 4 {
		t.Fatalf("stream has %d reports, want 4", got)
	}
}

// swBOpt1 resolves the effective optimal sw bandwidth for ε=1 through a
// throwaway stream, keeping the test independent of internal/sw.
func swBOpt1(t *testing.T) float64 {
	t.Helper()
	s := NewServer(Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	return s.fingerprintOf(s.lookup(DefaultStream)).Bandwidth
}

func TestLoadSnapshotAbortsBeforeMergeOnCursorConflict(t *testing.T) {
	// A v4 snapshot carrying an edge push cursor must not half-apply when
	// the live tracker already acked pushes: the load fails before any
	// histogram merge, so a later retry cannot double-count.
	dir := t.TempDir()
	path := filepath.Join(dir, "edge.snap")
	root, rootTS := newRoot(t, true)
	_ = root

	edge := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(edge.Close)
	if err := edge.EnablePush(PushOptions{URL: rootTS.URL, Edge: "e1", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	edgeTS := httptest.NewServer(edge.Handler())
	t.Cleanup(edgeTS.Close)
	if resp := postJSON(t, edgeTS.URL+"/v1/streams/default/report", map[string]float64{"report": 0.5}); resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if acked, err := edge.PushNow(); err != nil || !acked {
		t.Fatalf("push: acked=%v err=%v", acked, err)
	}
	if err := edge.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	before := edge.StreamN(DefaultStream)
	// The tracker has acked seq 1, so restoring the same cursor conflicts.
	if err := edge.LoadSnapshot(path); err == nil {
		t.Fatal("cursor-conflicting load succeeded")
	}
	if got := edge.StreamN(DefaultStream); got != before {
		t.Fatalf("failed load still merged: %d -> %d reports", before, got)
	}
}
