package ldphttp

// Tracing acceptance: a client-stamped trace survives the whole pipeline —
// edge ingest (decode/bucketize/ingest stage spans), epoch sealing, the
// federation push, and the root's absorb — and stays recoverable from the
// root's flight recorder as an absorb-link marker. Also: the
// /v1/debug/traces filter surface, a mock-clock test proving the federation
// lag gauge and the push/absorb spans agree on a delayed edge, and a -race
// stress mixing tracing with ingestion, rotation, scrapes and snapshots.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/trace"
)

// fetchTraces hits a DebugHandler test server with a raw query string.
func fetchTraces(t *testing.T, debugURL, query string) DebugTracesResponse {
	t.Helper()
	u := debugURL + "/v1/debug/traces"
	if query != "" {
		u += "?" + query
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", u, resp.StatusCode)
	}
	var out DebugTracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// stageSet indexes records by stage name.
func stageSet(recs []trace.Record) map[string][]trace.Record {
	out := make(map[string][]trace.Record)
	for _, rec := range recs {
		out[rec.Stage] = append(out[rec.Stage], rec)
	}
	return out
}

// attrOf returns the value of a span attribute ("" when absent).
func attrOf(rec trace.Record, key string) string {
	for _, a := range rec.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// postTracedBatch ships one batch stamped with a client-minted traceparent,
// exactly as repro.Reporter does, and returns the trace context.
func postTracedBatch(t *testing.T, url, stream string, seed uint64, n int) trace.SpanContext {
	t.Helper()
	client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
	rng := randx.New(seed)
	reports := make([]float64, n)
	for i := range reports {
		reports[i] = client.Report(rng.Beta(5, 2), rng)
	}
	blob, err := json.Marshal(map[string]any{"reports": reports})
	if err != nil {
		t.Fatal(err)
	}
	sc := trace.NewContext()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/streams/"+stream+"/batch", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", sc.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced batch: status %d", resp.StatusCode)
	}
	return sc
}

func TestTraceEndToEndFederation(t *testing.T) {
	// The acceptance path: Reporter-style stamped batch → edge ingest with
	// decode/bucketize/ingest stage spans → epoch seal → federation push →
	// root absorb — and the client's trace ID is recoverable from the
	// root's flight recorder.
	clock := newMockClock()
	mk := func(fed FederationConfig) (*Server, *httptest.Server, *httptest.Server) {
		s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond,
			Clock: clock.Now, Federation: fed})
		t.Cleanup(s.Close)
		if err := s.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32,
			Epoch: Duration(time.Minute), Retain: 6}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		dts := httptest.NewServer(s.DebugHandler())
		t.Cleanup(dts.Close)
		return s, ts, dts
	}
	root, rootTS, rootDbg := mk(FederationConfig{Accept: true})
	edge, edgeTS, edgeDbg := mk(FederationConfig{})

	sc := postTracedBatch(t, edgeTS.URL, "lat", 7, 200)

	// The edge recorded the full ingest pipeline under the client's trace.
	got := fetchTraces(t, edgeDbg.URL, "trace="+sc.TraceID)
	stages := stageSet(got.Spans)
	httpRoot := stages["http /v1/streams/{name}/batch"]
	if len(httpRoot) != 1 {
		t.Fatalf("trace %s: http root spans = %d, want 1 (stages %v)", sc.TraceID, len(httpRoot), len(got.Spans))
	}
	if httpRoot[0].TraceID != sc.TraceID {
		t.Fatalf("continued trace ID %s, want %s", httpRoot[0].TraceID, sc.TraceID)
	}
	for _, stage := range []string{"decode", "bucketize", "ingest"} {
		children := stages[stage]
		if len(children) != 1 {
			t.Fatalf("trace %s: %q spans = %d, want 1", sc.TraceID, stage, len(children))
		}
		if children[0].ParentID != httpRoot[0].SpanID {
			t.Errorf("%q span parent %s, want the http span %s", stage, children[0].ParentID, httpRoot[0].SpanID)
		}
	}
	if codec := attrOf(stages["decode"][0], "codec"); codec != "json" {
		t.Errorf("decode codec attr %q, want json", codec)
	}
	if n := attrOf(stages["bucketize"][0], "reports"); n != "200" {
		t.Errorf("bucketize reports attr %q, want 200", n)
	}
	if stream := stages["ingest"][0].Stream; stream != "lat" {
		t.Errorf("ingest span stream %q, want lat", stream)
	}

	// Epoch seal: both tiers rotate on the shared clock, and the rotation
	// itself leaves a stream-scoped engine span.
	clock.Advance(time.Minute)
	waitRotation(t, edge, "lat", 1)
	waitRotation(t, root, "lat", 1)
	if rot := stageSet(fetchTraces(t, edgeDbg.URL, "stream=lat").Spans)["epoch/rotate"]; len(rot) == 0 {
		t.Fatal("edge recorded no epoch/rotate span for lat")
	}

	// Push: the edge span and the root's absorb span bracket the transfer,
	// and the sampled ingest trace ID rides along as a link.
	if err := edge.EnablePush(PushOptions{URL: rootTS.URL, Edge: "trace-edge", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if acked, err := edge.PushNow(); err != nil || !acked {
		t.Fatalf("push: acked=%v err=%v", acked, err)
	}
	pushSpans := stageSet(fetchTraces(t, edgeDbg.URL, "").Spans)["federation/push"]
	if len(pushSpans) != 1 {
		t.Fatalf("edge federation/push spans = %d, want 1", len(pushSpans))
	}
	if e := attrOf(pushSpans[0], "edge"); e != "trace-edge" {
		t.Errorf("push span edge attr %q", e)
	}
	if pushSpans[0].Err != "" {
		t.Errorf("push span failed: %s", pushSpans[0].Err)
	}

	rootStages := stageSet(fetchTraces(t, rootDbg.URL, "route=/federation/push").Spans)
	absorb := rootStages["absorb"]
	if len(absorb) != 1 {
		t.Fatalf("root absorb spans = %d, want 1", len(absorb))
	}
	if e := attrOf(absorb[0], "edge"); e != "trace-edge" {
		t.Errorf("absorb span edge attr %q", e)
	}
	if attrOf(absorb[0], "seq") != attrOf(pushSpans[0], "seq") || attrOf(absorb[0], "seq") == "" {
		t.Errorf("push/absorb seq attrs disagree: %q vs %q",
			attrOf(pushSpans[0], "seq"), attrOf(absorb[0], "seq"))
	}
	if len(rootStages["http /federation/push"]) != 1 {
		t.Error("root did not trace the push request itself")
	}

	// The client's trace ID is recoverable at the root: the absorbed push
	// minted a link marker under the original trace.
	links := fetchTraces(t, rootDbg.URL, "trace="+sc.TraceID).Spans
	if len(links) == 0 {
		t.Fatalf("trace %s not recoverable at the root", sc.TraceID)
	}
	for _, rec := range links {
		if rec.Stage != "federation/absorb-link" {
			t.Errorf("root span under the client trace has stage %q", rec.Stage)
		}
		if e := attrOf(rec, "edge"); e != "trace-edge" {
			t.Errorf("absorb-link edge attr %q", e)
		}
	}
}

func TestDebugTracesFilters(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour,
		Ops: OpsConfig{Trace: TraceConfig{SampleEvery: 1}}})
	t.Cleanup(s.Close)
	for _, name := range []string{"a", "b"} {
		if err := s.CreateStream(name, StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	dts := httptest.NewServer(s.DebugHandler())
	t.Cleanup(dts.Close)

	postReports(t, ts.URL, "a", 1, 10)
	postReports(t, ts.URL, "b", 2, 10)
	sc := postTracedBatch(t, ts.URL, "a", 3, 5)

	all := fetchTraces(t, dts.URL, "")
	if all.Capacity != 4096 {
		t.Errorf("default recorder capacity %d, want 4096", all.Capacity)
	}
	if all.Recorded == 0 || len(all.Spans) == 0 {
		t.Fatalf("recorder empty: recorded=%d spans=%d", all.Recorded, len(all.Spans))
	}
	// Exemplars bridge the latency histogram to trace IDs.
	ex, ok := all.Exemplars["/v1/streams/{name}/batch"]
	if !ok {
		t.Fatalf("no exemplar for the batch endpoint (have %v)", len(all.Exemplars))
	}
	if ex.TraceID != sc.TraceID {
		t.Errorf("batch exemplar trace %s, want the most recent batch %s", ex.TraceID, sc.TraceID)
	}

	for _, rec := range fetchTraces(t, dts.URL, "stream=a").Spans {
		if rec.Stream != "a" {
			t.Errorf("stream=a filter returned span of stream %q", rec.Stream)
		}
	}
	byRoute := fetchTraces(t, dts.URL, "route=/v1/streams/{name}/batch").Spans
	if len(byRoute) == 0 {
		t.Fatal("route filter returned nothing")
	}
	roots := make(map[string]bool)
	for _, rec := range byRoute {
		if rec.Stage == "http /v1/streams/{name}/batch" {
			roots[rec.TraceID] = true
		}
	}
	for _, rec := range byRoute {
		if !roots[rec.TraceID] {
			t.Errorf("route filter returned span of unrooted trace %s (stage %q)", rec.TraceID, rec.Stage)
		}
	}
	for _, rec := range fetchTraces(t, dts.URL, "trace="+strings.ToUpper(sc.TraceID)).Spans {
		if rec.TraceID != sc.TraceID {
			t.Errorf("trace filter returned %s", rec.TraceID)
		}
	}
	if n := len(fetchTraces(t, dts.URL, "min_duration=1h").Spans); n != 0 {
		t.Errorf("min_duration=1h returned %d spans", n)
	}
	if n := len(fetchTraces(t, dts.URL, "limit=2").Spans); n > 2 {
		t.Errorf("limit=2 returned %d spans", n)
	}

	// Error surface: bad filters 400, wrong method 405.
	for _, filter := range []string{"min_duration=fast", "limit=5abc", "limit=1.5", "limit=-1"} {
		resp, err := http.Get(dts.URL + "/v1/debug/traces?" + filter)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad filter %s: status %d", filter, resp.StatusCode)
		}
	}
	resp, err := http.Post(dts.URL+"/v1/debug/traces", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/debug/traces: status %d", resp.StatusCode)
	}

	// A server with tracing disabled serves 404 and records nothing.
	off := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour,
		Ops: OpsConfig{Trace: TraceConfig{Disable: true}}})
	t.Cleanup(off.Close)
	offDbg := httptest.NewServer(off.DebugHandler())
	t.Cleanup(offDbg.Close)
	resp, err = http.Get(offDbg.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled tracing: status %d, want 404", resp.StatusCode)
	}
}

func TestErrorEnvelopeRequestID(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/streams/default/report", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	var envelope struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.RequestID == "" {
		t.Fatal("error envelope carries no request_id")
	}
	if hdr := resp.Header.Get("X-Request-Id"); hdr != envelope.Error.RequestID {
		t.Errorf("X-Request-Id header %q != envelope request_id %q", hdr, envelope.Error.RequestID)
	}
}

func TestFederationLagTraceAgreement(t *testing.T) {
	// A delayed edge, mock clocks: the root runs 2 epochs ahead of an edge
	// that never rotated. The lag gauge — computed against the root's own
	// clock — and the push/absorb span pair must tell the same story:
	// the push applied (same seq on both sides, no failure) exactly one
	// epoch of gauge-visible lag after the root last heard from the edge.
	rootClock := newMockClock()
	edgeClock := newMockClock() // same origin, so the streams fingerprint equal
	mk := func(clock *mockClock, fed FederationConfig) *Server {
		s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond,
			Clock: clock.Now, Federation: fed})
		t.Cleanup(s.Close)
		// Pre-declare on both tiers: auto-declaring from the pushed
		// fingerprint would align the root's ring to its own (advanced)
		// clock and drop the skewed edge's epoch-0 deltas.
		if err := s.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32,
			Epoch: Duration(time.Minute), Retain: 6}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	root := mk(rootClock, FederationConfig{Accept: true})
	rootTS := httptest.NewServer(root.Handler())
	t.Cleanup(rootTS.Close)
	rootDbg := httptest.NewServer(root.DebugHandler())
	t.Cleanup(rootDbg.Close)
	edge := mk(edgeClock, FederationConfig{})
	edgeTS := httptest.NewServer(edge.Handler())
	t.Cleanup(edgeTS.Close)
	edgeDbg := httptest.NewServer(edge.DebugHandler())
	t.Cleanup(edgeDbg.Close)
	if err := edge.EnablePush(PushOptions{URL: rootTS.URL, Edge: "lag-edge", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}

	// The edge collects in its (still live) epoch 0 while the root's clock
	// runs two epochs ahead — skew ≥ 1 epoch.
	postReports(t, edgeTS.URL, "lat", 5, 200)
	rootClock.Advance(2 * time.Minute)
	waitRotation(t, root, "lat", 2)

	if acked, err := edge.PushNow(); err != nil || !acked {
		t.Fatalf("delayed-edge push: acked=%v err=%v", acked, err)
	}

	// One more root epoch passes with no further pushes: the lag gauge must
	// read exactly one epoch, on the root's clock, not wall time.
	rootClock.Advance(time.Minute)
	lag, ok := scrape(t, rootTS.URL).Value("ldp_federation_push_lag_seconds", "edge=lag-edge")
	if !ok || lag != 60 {
		t.Fatalf("federation lag gauge = %v (present %v), want exactly 60", lag, ok)
	}

	// Span agreement: the edge's push span and the root's absorb span carry
	// the same sequence number and neither failed — the delta was applied,
	// not dropped, despite the skew.
	pushSpans := stageSet(fetchTraces(t, edgeDbg.URL, "").Spans)["federation/push"]
	if len(pushSpans) != 1 {
		t.Fatalf("edge push spans = %d, want 1", len(pushSpans))
	}
	absorbSpans := stageSet(fetchTraces(t, rootDbg.URL, "route=/federation/push").Spans)["absorb"]
	if len(absorbSpans) != 1 {
		t.Fatalf("root absorb spans = %d, want 1", len(absorbSpans))
	}
	push, absorb := pushSpans[0], absorbSpans[0]
	if push.Err != "" || absorb.Err != "" {
		t.Fatalf("push/absorb failed: %q / %q", push.Err, absorb.Err)
	}
	if seq := attrOf(push, "seq"); seq == "" || seq != attrOf(absorb, "seq") {
		t.Fatalf("push seq %q != absorb seq %q", seq, attrOf(absorb, "seq"))
	}
	if attrOf(absorb, "edge") != "lag-edge" || attrOf(absorb, "reports") == "" {
		t.Fatalf("absorb span attrs incomplete: %+v", absorb.Attrs)
	}
	// The peer really did apply — nothing dropped outside the window.
	for _, p := range root.Peers() {
		if p.Edge == "lag-edge" && p.Dropped != 0 {
			t.Fatalf("root dropped %d increments from the delayed edge", p.Dropped)
		}
	}
}

func TestStressTracing(t *testing.T) {
	// Race-detector workout for the tracing subsystem: every request traced
	// (SampleEvery 1, small recorder so the ring wraps constantly) while
	// ingestion, epoch rotation, snapshots, scrapes and debug reads all run
	// concurrently.
	if testing.Short() {
		t.Skip("tracing stress in -short mode")
	}
	dir := t.TempDir()
	clock := newMockClock()
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 3 * time.Millisecond,
		Clock: clock.Now,
		Ops:   OpsConfig{Trace: TraceConfig{SampleEvery: 1, Capacity: 64}}})
	t.Cleanup(s.Close)
	if err := s.CreateStream("win", StreamConfig{Epsilon: 1, Buckets: 32,
		Epoch: Duration(40 * time.Millisecond), Retain: 64}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	dts := httptest.NewServer(s.DebugHandler())
	t.Cleanup(dts.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Ingesters: alternate default/windowed streams, every third batch
	// stamped with a client traceparent.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
			rng := randx.New(uint64(2000 + w))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				stream := "default"
				if n%2 == 0 {
					stream = "win"
				}
				blob, _ := json.Marshal(map[string]any{"reports": []float64{client.Report(rng.Beta(5, 2), rng)}})
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams/"+stream+"/batch", bytes.NewReader(blob))
				req.Header.Set("Content-Type", "application/json")
				if n%3 == 0 {
					req.Header.Set("traceparent", trace.NewContext().Header())
				}
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}
	// Debug reader, scraper, snapshotter, clock advancer.
	readers := []func(){
		func() {
			resp, err := http.Get(dts.URL + "/v1/debug/traces?stream=win&limit=16")
			if err == nil {
				resp.Body.Close()
			}
		},
		func() {
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				resp.Body.Close()
			}
		},
		func() { s.SaveSnapshot(filepath.Join(dir, "trace-stress.snap")) },
		func() { clock.Advance(10 * time.Millisecond); time.Sleep(2 * time.Millisecond) },
	}
	for _, fn := range readers {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}(fn)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	got := fetchTraces(t, dts.URL, "")
	if got.Recorded == 0 {
		t.Fatal("stress run recorded no spans")
	}
	if len(got.Spans) > got.Capacity {
		t.Fatalf("recorder over capacity: %d > %d", len(got.Spans), got.Capacity)
	}
}
