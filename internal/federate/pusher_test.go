package federate

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stubRoot speaks the root half of the push protocol: seq/CRC replay
// detection plus a merged histogram per stream/epoch, so pusher tests can
// assert exactness without the full collector.
type stubRoot struct {
	mu      sync.Mutex
	lastSeq int64
	lastCRC string
	merged  map[string]map[int][]uint64
	pushes  int
	// lastContentType records the most recent request's Content-Type so
	// codec tests can assert what the pusher declared.
	lastContentType string
	// failNext makes the next request fail at the HTTP layer.
	failNext int
}

func newStubRoot() *stubRoot {
	return &stubRoot{merged: make(map[string]map[int][]uint64)}
}

func (r *stubRoot) handler(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failNext > 0 {
		r.failNext--
		http.Error(w, "root on fire", http.StatusInternalServerError)
		return
	}
	r.lastContentType = req.Header.Get("Content-Type")
	body := make([]byte, req.ContentLength)
	if _, err := req.Body.Read(body); err != nil && err.Error() != "EOF" {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	push, err := DecodePushAuto(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.pushes++
	resp := PushResponse{Seq: push.Seq, LastSeq: r.lastSeq}
	switch {
	case push.Seq <= r.lastSeq:
		resp.Duplicate = true
		if push.Seq == r.lastSeq {
			resp.CRC = r.lastCRC
		}
	case push.Seq > r.lastSeq+1:
		resp.Reason = ReasonSeqGap
		resp.Error = fmt.Sprintf("push seq %d but high-water mark is %d", push.Seq, r.lastSeq)
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(resp)
		return
	default:
		for _, sd := range push.Streams {
			epochs := r.merged[sd.Stream]
			if epochs == nil {
				epochs = make(map[int][]uint64)
				r.merged[sd.Stream] = epochs
			}
			for _, d := range sd.Epochs {
				dense, err := d.Dense(sd.Fingerprint.OutputBuckets)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				if epochs[d.Epoch] == nil {
					epochs[d.Epoch] = make([]uint64, len(dense))
				}
				for b, c := range dense {
					epochs[d.Epoch][b] += c
					resp.Reports += c
				}
			}
		}
		r.lastSeq = push.Seq
		r.lastCRC = push.CRC
		resp.Applied = true
		resp.LastSeq = push.Seq
	}
	json.NewEncoder(w).Encode(resp)
}

func (r *stubRoot) counts(stream string, epoch int) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.merged[stream][epoch]...)
}

// edgeHist is a mutable fake edge histogram feeding Gather.
type edgeHist struct {
	mu     sync.Mutex
	counts []uint64
}

func (h *edgeHist) add(b int, n uint64) {
	h.mu.Lock()
	h.counts[b] += n
	h.mu.Unlock()
}

func (h *edgeHist) states() []StreamState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return []StreamState{{
		Name:        "age",
		Fingerprint: Fingerprint{Mechanism: "sw", Epsilon: 1, Buckets: 4, OutputBuckets: 4},
		Epochs:      []EpochCounts{{Epoch: 0, Counts: append([]uint64(nil), h.counts...)}},
	}}
}

func newTestPusher(t *testing.T, url string, h *edgeHist, mutate func(*PusherConfig)) *Pusher {
	t.Helper()
	cfg := PusherConfig{URL: url, Edge: "edge-1", Gather: h.states}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPusher(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPusherShipsAndAcks(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{3, 0, 1, 0}}
	p := newTestPusher(t, ts.URL, h, nil)

	acked, err := p.PushOnce()
	if err != nil || !acked {
		t.Fatalf("push: acked=%v err=%v", acked, err)
	}
	if got := root.counts("age", 0); got[0] != 3 || got[2] != 1 {
		t.Fatalf("root merged %v", got)
	}
	// Nothing new: no request needed.
	if acked, err := p.PushOnce(); err != nil || acked {
		t.Fatalf("idle push: acked=%v err=%v", acked, err)
	}
	h.add(1, 2)
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("incremental push: acked=%v err=%v", acked, err)
	}
	if got := root.counts("age", 0); got[0] != 3 || got[1] != 2 {
		t.Fatalf("root merged %v", got)
	}
	st := p.Status()
	if st.Pushes != 2 || st.Reports != 6 || st.AckedSeq != 2 || st.Diverged {
		t.Fatalf("status %+v", st)
	}
}

func TestPusherRetriesFrozenPayloadThroughFailures(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{5, 0, 0, 0}}
	p := newTestPusher(t, ts.URL, h, nil)

	root.mu.Lock()
	root.failNext = 2
	root.mu.Unlock()
	for i := 0; i < 2; i++ {
		if _, err := p.PushOnce(); err == nil {
			t.Fatal("push succeeded against a failing root")
		}
	}
	// Reports arriving during the outage must not leak into the frozen
	// payload — they ship with the next sequence.
	h.add(3, 4)
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("recovery push: acked=%v err=%v", acked, err)
	}
	if got := root.counts("age", 0); got[0] != 5 || got[3] != 0 {
		t.Fatalf("after recovery root has %v", got)
	}
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("follow-up push: %v", err)
	}
	if got := root.counts("age", 0); got[0] != 5 || got[3] != 4 {
		t.Fatalf("final root %v", got)
	}
}

// duplicateDropTransport forwards requests but reports failure to the caller,
// simulating a response lost in flight.
type dropResponseTransport struct {
	inner http.RoundTripper
	drops int
	mu    sync.Mutex
}

func (d *dropResponseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.inner.RoundTrip(req)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil && d.drops > 0 {
		d.drops--
		resp.Body.Close()
		return nil, errors.New("response lost in flight")
	}
	return resp, err
}

func TestPusherLostResponseReplaysExactly(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{7, 0, 0, 0}}
	drop := &dropResponseTransport{inner: http.DefaultTransport, drops: 1}
	p := newTestPusher(t, ts.URL, h, func(c *PusherConfig) {
		c.HTTPClient = &http.Client{Transport: drop}
	})

	// The root applies the push but the edge never hears the ack.
	if _, err := p.PushOnce(); err == nil {
		t.Fatal("lost response reported success")
	}
	if got := root.counts("age", 0); got[0] != 7 {
		t.Fatalf("root did not apply the first transmission: %v", got)
	}
	// The retry replays the identical payload; the root detects the
	// duplicate by CRC and the edge folds without double counting.
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("replay: acked=%v err=%v", acked, err)
	}
	if got := root.counts("age", 0); got[0] != 7 {
		t.Fatalf("replay double-counted: %v", got)
	}
	if p.Status().Diverged {
		t.Fatal("exact replay marked the edge diverged")
	}
}

func TestPusherFreshEdgeAdoptsRootSeq(t *testing.T) {
	root := newStubRoot()
	root.lastSeq = 5
	root.lastCRC = "deadbeef"
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{2, 0, 0, 0}}
	p := newTestPusher(t, ts.URL, h, nil)

	// First attempt collides with the root's history for this edge id and
	// adopts its high-water mark.
	if _, err := p.PushOnce(); err == nil {
		t.Fatal("colliding push reported success")
	}
	if p.Status().Diverged {
		t.Fatal("fresh edge marked diverged")
	}
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("post-adopt push: acked=%v err=%v", acked, err)
	}
	root.mu.Lock()
	gotSeq := root.lastSeq
	root.mu.Unlock()
	if gotSeq != 6 {
		t.Fatalf("root seq %d, want 6", gotSeq)
	}
}

func TestPusherRootLostStateReships(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{4, 0, 0, 0}}
	p := newTestPusher(t, ts.URL, h, nil)
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatal(err)
	}

	// The root loses its disk.
	root.mu.Lock()
	root.lastSeq, root.lastCRC = 0, ""
	root.merged = map[string]map[int][]uint64{}
	root.mu.Unlock()

	h.add(1, 1)
	// seq 2 against a root at 0 → gap → reset → full history re-ships.
	if _, err := p.PushOnce(); err == nil {
		t.Fatal("gap push reported success")
	}
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("re-ship: acked=%v err=%v", acked, err)
	}
	if got := root.counts("age", 0); got[0] != 4 || got[1] != 1 {
		t.Fatalf("re-shipped root %v", got)
	}
}

func TestPusherPartialRootRollbackParks(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{1, 0, 0, 0}}
	p := newTestPusher(t, ts.URL, h, nil)
	for i := 0; i < 2; i++ {
		h.add(0, 1)
		if acked, err := p.PushOnce(); err != nil || !acked {
			t.Fatal(err)
		}
	}

	// The root rolls back to seq 1 (restored an older snapshot): exact
	// recovery is impossible, the pusher must park rather than guess.
	root.mu.Lock()
	root.lastSeq = 1
	root.mu.Unlock()
	h.add(2, 1)
	if _, err := p.PushOnce(); err == nil {
		t.Fatal("rollback push reported success")
	}
	if !p.Status().Diverged {
		t.Fatal("partial rollback did not park the pusher")
	}
	if _, err := p.PushOnce(); err == nil {
		t.Fatal("parked pusher pushed")
	}
}

func TestPusherWriteAheadPersist(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{6, 0, 0, 0}}

	var persisted []CursorState
	failPersist := true
	var p *Pusher
	p = newTestPusher(t, ts.URL, h, func(c *PusherConfig) {
		c.Persist = func() error {
			if failPersist {
				return errors.New("disk full")
			}
			persisted = append(persisted, p.Tracker().State())
			return nil
		}
	})

	// Persist failure discards the unsent payload; nothing reaches the root.
	if _, err := p.PushOnce(); err == nil {
		t.Fatal("push succeeded despite persist failure")
	}
	if root.pushes != 0 {
		t.Fatal("payload traveled before being persisted")
	}
	failPersist = false
	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("push: acked=%v err=%v", acked, err)
	}
	if len(persisted) != 1 {
		t.Fatalf("persist called %d times, want 1", len(persisted))
	}
	// The persisted cursor carries the frozen pending payload: a crash here
	// restores the exact bytes that were (about to be) sent.
	if persisted[0].Pending == nil || persisted[0].Pending.Seq != 1 {
		t.Fatalf("persisted cursor %+v lacks the pending payload", persisted[0])
	}
}

func TestPusherRunLoopAndBackoff(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{9, 0, 0, 0}}
	p := newTestPusher(t, ts.URL, h, func(c *PusherConfig) { c.Interval = time.Millisecond })
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.Run(done) }()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := root.counts("age", 0); len(got) > 0 && got[0] == 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run loop never shipped the histogram")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	wg.Wait()
}

func TestPusherConfigValidation(t *testing.T) {
	gather := func() []StreamState { return nil }
	bad := []PusherConfig{
		{},
		{URL: "http://x", Edge: "e"}, // no gather
		{URL: "ftp://x", Edge: "e", Gather: gather},
		{URL: "http://x", Gather: gather},       // no edge
		{URL: "://", Edge: "e", Gather: gather}, // unparsable
	}
	for i, cfg := range bad {
		if _, err := NewPusher(cfg, nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewPusher(PusherConfig{URL: "http://x", Edge: "e", Gather: gather}, nil); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

// TestPusherBackoffPacesRun: two failed attempts leave Status().Backoff at
// 2s (minBackoff doubled once) and Run's next sleep within ±10% of it; a
// success puts the loop back on its interval.
// TestPushWait: a healthy loop's sleep is the jittered interval less the
// time the last attempt took, never negative, so attempts start Interval
// apart; a failing loop sleeps its whole jittered backoff.
func TestPushWait(t *testing.T) {
	const iv = 10 * time.Second
	for _, tc := range []struct {
		name                    string
		interval, backoff, took time.Duration
		u                       float64
		want                    time.Duration
	}{
		{"idle attempt", iv, 0, 0, 0.5, iv},
		{"attempt cost", iv, 0, 4 * time.Millisecond, 0.5, iv - 4*time.Millisecond},
		{"jitter low", iv, 0, time.Second, 0, 9*time.Second - time.Second},
		{"jitter high", iv, 0, time.Second, 1, 11*time.Second - time.Second},
		{"attempt as long as the interval", iv, 0, iv, 0.5, 0},
		{"attempt longer than the interval", iv, 0, 3 * iv, 0.5, 0},
		{"backoff ignores attempt cost", iv, 4 * time.Second, 3 * time.Second, 0.5, 4 * time.Second},
		{"backoff jitter", iv, 4 * time.Second, 0, 0, 3600 * time.Millisecond},
	} {
		if got := pushWait(tc.interval, tc.backoff, tc.took, tc.u); got != tc.want {
			t.Errorf("%s: pushWait(%v, %v, %v, %v) = %v, want %v",
				tc.name, tc.interval, tc.backoff, tc.took, tc.u, got, tc.want)
		}
	}
}

func TestPusherBackoffPacesRun(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{1, 0, 0, 0}}
	p := newTestPusher(t, ts.URL, h, func(c *PusherConfig) { c.Interval = time.Hour })

	root.mu.Lock()
	root.failNext = 2
	root.mu.Unlock()
	for i := 0; i < 2; i++ {
		if _, err := p.PushOnce(); err == nil {
			t.Fatal("push succeeded against a failing root")
		}
	}
	if st := p.Status(); st.Failures != 2 || st.Backoff != 2*time.Second {
		t.Fatalf("after two failures: failures=%d backoff=%v, want 2 and 2s", st.Failures, st.Backoff)
	}
	for i := 0; i < 100; i++ {
		if w := p.nextWait(0); w < 1800*time.Millisecond || w > 2200*time.Millisecond {
			t.Fatalf("next wait %v outside 2s ±10%%", w)
		}
	}

	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("recovery push: acked=%v err=%v", acked, err)
	}
	if st := p.Status(); st.Failures != 0 || st.Backoff != 0 {
		t.Fatalf("after success: failures=%d backoff=%v", st.Failures, st.Backoff)
	}
	for i := 0; i < 100; i++ {
		if w := p.nextWait(0); w < 54*time.Minute || w > 66*time.Minute {
			t.Fatalf("next wait %v outside the 1h interval ±10%%", w)
		}
	}

	for n, want := range map[int]time.Duration{
		0: 0, 1: time.Second, 2: 2 * time.Second, 9: 256 * time.Second,
		10: maxBackoff, 1000: maxBackoff,
	} {
		if got := backoffFor(n); got != want {
			t.Errorf("backoffFor(%d) = %v, want %v", n, got, want)
		}
	}
}
