package ldphttp

// The two ingest endpoints share one pipeline: /report is a batch of one.
// These tests pin what each answers — status, error code, message and the
// success body's keys — and that a null report counts nothing.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// ingestAnswer is the part of an ingest answer the table pins.
type ingestAnswer struct {
	status   int
	code     string // error.code ("" on success)
	message  string // error.message ("" on success)
	keys     string // the success body's keys, sorted and comma-joined
	accepted any    // the success body's "accepted"
}

func postIngest(t *testing.T, h http.Handler, path, contentType string, body []byte) ingestAnswer {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST %s %q: %d with a non-JSON body %q", path, body, rec.Code, rec.Body)
	}
	a := ingestAnswer{status: rec.Code}
	if e, ok := out["error"].(map[string]any); ok {
		a.code, _ = e["code"].(string)
		a.message, _ = e["message"].(string)
		return a
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	a.keys, a.accepted = strings.Join(keys, ","), out["accepted"]
	return a
}

func TestIngestAnswers(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour,
		Ops: OpsConfig{MaxBodyBytes: 256}})
	t.Cleanup(s.Close)
	h := s.Handler()
	const js = "application/json"
	overCap := []byte(`{"report": [` + strings.Repeat("1,", 200) + `1]}`)
	overCapBatch := []byte(`{"reports": [` + strings.Repeat("0.5,", 100) + `1]}`)
	unknown := `unknown stream "nope" (declare it with POST /v1/streams)`
	badArity := "mechanism: sw report wants 1 component, got 2"
	ok := func(accepted any) ingestAnswer {
		return ingestAnswer{status: 200, keys: "accepted,n,stream", accepted: accepted}
	}
	fail := func(status int, code, message string) ingestAnswer {
		return ingestAnswer{status: status, code: code, message: message}
	}
	cases := []struct {
		name, path, contentType string
		body                    []byte
		want                    ingestAnswer
	}{
		{"report", "/v1/streams/default/report", js, []byte(`{"report": 0.5}`), ok(true)},
		{"batch", "/v1/streams/default/batch", js, []byte(`{"reports": [0.5, [0.25]]}`), ok(2.0)},
		{"binary report", "/v1/streams/default/report", wire.ContentType,
			wire.EncodeReports([][]float64{{0.5}}), ok(true)},
		{"binary batch", "/v1/streams/default/batch", wire.ContentType,
			wire.EncodeReports([][]float64{{0.5}, {0.25}}), ok(2.0)},
		{"report unknown stream", "/v1/streams/nope/report", js, []byte(`{"report": 0.5}`),
			fail(404, CodeUnknownStream, unknown)},
		{"batch unknown stream", "/v1/streams/nope/batch", js, []byte(`{"reports": [0.5]}`),
			fail(404, CodeUnknownStream, unknown)},
		{"report unknown stream, bad report", "/v1/streams/nope/report", js, []byte(`{"report": [1, 2]}`),
			fail(404, CodeUnknownStream, unknown)},
		{"report bad report", "/v1/streams/default/report", js, []byte(`{"report": [1, 2]}`),
			fail(400, CodeBadRequest, badArity)},
		{"batch bad report", "/v1/streams/default/batch", js, []byte(`{"reports": [0.5, [1, 2]]}`),
			fail(400, CodeBadRequest, "report 1: "+badArity)},
		{"report without report", "/v1/streams/default/report", js, []byte(`{}`),
			fail(400, CodeBadRequest, "mechanism: sw report wants 1 component, got 0")},
		{"report stream mismatch", "/v1/streams/default/report", js, []byte(`{"stream": "age", "report": 0.5}`),
			fail(400, CodeStreamMismatch, `body addresses stream "age" but the path addresses "default"`)},
		{"batch stream mismatch", "/v1/streams/default/batch", js, []byte(`{"stream": "age", "reports": [0.5]}`),
			fail(400, CodeStreamMismatch, `body addresses stream "age" but the path addresses "default"`)},
		{"two-report frame on report", "/v1/streams/default/report", wire.ContentType,
			wire.EncodeReports([][]float64{{0.5}, {0.25}}),
			fail(400, CodeBadRequest, "binary report frame carries 2 reports; POST the frame to the batch endpoint")},
		{"empty frame on report", "/v1/streams/default/report", wire.ContentType,
			wire.EncodeReports(nil),
			fail(400, CodeBadRequest, "binary report frame carries 0 reports; POST the frame to the batch endpoint")},
		{"empty batch", "/v1/streams/default/batch", js, []byte(`{"reports": []}`),
			fail(400, CodeBadRequest, "empty batch")},
		{"null batch", "/v1/streams/default/batch", js, []byte(`{"reports": null}`),
			fail(400, CodeBadRequest, "empty batch")},
		{"empty batch, unknown stream", "/v1/streams/nope/batch", js, []byte(`{"reports": []}`),
			fail(400, CodeBadRequest, "empty batch")},
		{"empty binary batch", "/v1/streams/default/batch", wire.ContentType, wire.EncodeReports(nil),
			fail(400, CodeBadRequest, "empty batch")},
		{"report over cap", "/v1/streams/default/report", js, overCap,
			fail(413, CodeBodyTooLarge, "request body exceeds the 256-byte admission bound")},
		{"batch over cap", "/v1/streams/default/batch", js, overCapBatch,
			fail(413, CodeBodyTooLarge, "request body exceeds the 256-byte admission bound")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := postIngest(t, h, tc.path, tc.contentType, tc.body)
			if got != tc.want {
				t.Errorf("POST %s %q:\n got %+v\nwant %+v", tc.path, tc.body, got, tc.want)
			}
		})
	}
}

// TestNullReportsRejected: encoding/json leaves a number untouched on null,
// so a null report used to count as the value 0. It is a 400 now, and no
// stream counts anything.
func TestNullReportsRejected(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	if err := s.CreateStream("oue", StreamConfig{Epsilon: 1, Buckets: 16, Mechanism: "oue"}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct{ path, body string }{
		{"/v1/streams/default/report", `{"report": null}`},
		{"/v1/streams/default/batch", `{"reports": [null, 0.5]}`},
		{"/v1/streams/oue/report", `{"report": [null]}`},
		{"/v1/streams/oue/batch", `{"reports": [[1], [2, null]]}`},
	} {
		got := postIngest(t, h, tc.path, "application/json", []byte(tc.body))
		if got.status != http.StatusBadRequest || got.code != CodeBadRequest {
			t.Errorf("POST %s %s: %d %q, want 400 %s", tc.path, tc.body, got.status, got.code, CodeBadRequest)
		}
		if !strings.Contains(got.message, "null") {
			t.Errorf("POST %s %s: message %q does not name the null", tc.path, tc.body, got.message)
		}
	}
	if n := s.N(); n != 0 {
		t.Fatalf("null reports counted: %d reports across the streams, want 0", n)
	}
}

// TestReportAllocs pins the allocations of one untraced JSON report request
// through the handler: routing, metrics, decode, bucketize, ingest and the
// JSON answer. The writer and the request are reused, so only the handler
// allocates.
func TestReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops pooled buffers at random")
	}
	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour,
		Ops: OpsConfig{Trace: TraceConfig{Disable: true}}})
	t.Cleanup(s.Close)
	h := s.Handler()
	body := []byte(`{"report": 0.5}`)
	var rd rewindBody
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/default/report", &rd)
	req.Header.Set("Content-Type", "application/json")
	w := &discardWriter{header: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		req.Body = &rd
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("report answered %d", w.status)
		}
	})
	const pinned = 14
	if allocs > pinned {
		t.Errorf("an untraced JSON report request allocates %v times, want at most %d", allocs, pinned)
	}
	t.Logf("%v allocations per request", allocs)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// rewindBody is a request body that can be refilled between requests.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
