package ldphttp

// Tests for the request-parsing fixes and the wire-codec negotiation: the
// v1 router must resolve percent-escaped stream names exactly once, JSON
// bodies must be exactly one value, unknown Content-Types must 415 with the
// stable code, and the binary codec must land reports identically to JSON.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestV1EscapedStreamNameRoundTrip is the regression test for the
// double-unescape bug: a stream named `50%off` or `a b/c` must be
// creatable, and the self-links the server emits must resolve back to the
// same stream — previously the router unescaped r.URL.Path a second time,
// so the server's own links 404ed.
func TestV1EscapedStreamNameRoundTrip(t *testing.T) {
	for _, name := range []string{"50%off", "a b/c", "emoji✓", "q?x=1"} {
		t.Run(name, func(t *testing.T) {
			_, ts := newTestServer(t)
			resp := postJSON(t, ts.URL+"/v1/streams", map[string]any{"name": name, "epsilon": 1.0, "buckets": 16})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create %q status = %d", name, resp.StatusCode)
			}
			var info StreamCreateResponse
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
				t.Fatalf("decode create response: %v", err)
			}
			resp.Body.Close()
			if info.Stream != name {
				t.Fatalf("created stream %q, want %q", info.Stream, name)
			}

			// The emitted links must round-trip: GET self, POST report.
			resp, err := http.Get(ts.URL + info.Links.Self)
			if err != nil {
				t.Fatal(err)
			}
			var got StreamInfo
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatalf("decode GET %s: %v", info.Links.Self, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || got.Name != name {
				t.Fatalf("GET %s = %d stream %q, want 200 %q", info.Links.Self, resp.StatusCode, got.Name, name)
			}
			resp, err = http.Post(ts.URL+info.Links.Report, "application/json",
				strings.NewReader(`{"report": 0.5}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", info.Links.Report, resp.StatusCode, body)
			}
		})
	}
}

// TestDecodeJSONRejectsTrailingGarbage: a body with trailing bytes after
// the first JSON value must answer 400 bad_request on every enveloped
// endpoint, not be silently half-parsed.
func TestDecodeJSONRejectsTrailingGarbage(t *testing.T) {
	_, ts := newTestServer(t)
	paths := []string{
		"/v1/streams/default/report", "/v1/streams/default/batch",
		"/v1/streams/default/query",
	}
	bodies := []string{
		`{"report":0.5}garbage`,
		`{"report":0.5}{"report":0.5}`,
		`{"reports":[0.5]} []`,
	}
	for _, path := range paths {
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Error ErrorBody `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("POST %s %q: undecodable error body: %v", path, body, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
				t.Errorf("POST %s %q = %d code %q, want 400 %q",
					path, body, resp.StatusCode, env.Error.Code, CodeBadRequest)
			}
		}
		// A clean single value still parses (404/400 for semantic reasons is
		// fine; the decode layer must not reject it).
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"report": 0.5}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusUnsupportedMediaType {
			t.Errorf("POST %s rejected application/json", path)
		}
	}
}

// TestContentTypeNegotiation: absent and application/json keep working,
// application/x-ldp-binary selects the binary codec, and anything else is
// a 415 with the stable unsupported_media_type code.
func TestContentTypeNegotiation(t *testing.T) {
	_, ts := newTestServer(t)

	post := func(ct, body string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams/default/report", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, ct := range []string{"", "application/json", "application/json; charset=utf-8"} {
		resp := post(ct, `{"report": 0.5}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Content-Type %q status = %d, want 200", ct, resp.StatusCode)
		}
	}
	for _, ct := range []string{"text/plain", "application/xml", "application/json-x", "multipart/form-data; boundary"} {
		resp := post(ct, `{"report": 0.5}`)
		var env struct {
			Error ErrorBody `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("Content-Type %q: undecodable error body: %v", ct, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType || env.Error.Code != CodeUnsupportedMedia {
			t.Errorf("Content-Type %q = %d code %q, want 415 %q",
				ct, resp.StatusCode, env.Error.Code, CodeUnsupportedMedia)
		}
	}

	// Codec selection is counted in /metrics.
	resp := post(wire.ContentType, string(wire.EncodeReports([][]float64{{0.5}})))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary report status = %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`ldp_codec_requests_total{endpoint="/v1/streams/{name}/report",codec="json"}`,
		`ldp_codec_requests_total{endpoint="/v1/streams/{name}/report",codec="binary"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestBinaryIngestMatchesJSON: the same reports shipped binary and JSON
// must land in identical histograms (the codec is representation, not
// semantics), across scalar and fan-out report shapes.
func TestBinaryIngestMatchesJSON(t *testing.T) {
	sJSON, tsJSON := newTestServer(t)
	sBin, tsBin := newTestServer(t)

	reports := [][]float64{{0.25}, {-0.1}, {0.97}, {0.5}, {0.125}}
	var jsonBody bytes.Buffer
	fmt.Fprintf(&jsonBody, `{"reports": [%s`, encodeJSONReport(reports[0]))
	for _, rep := range reports[1:] {
		fmt.Fprintf(&jsonBody, ", %s", encodeJSONReport(rep))
	}
	jsonBody.WriteString("]}")
	resp, err := http.Post(tsJSON.URL+"/v1/streams/default/batch", "application/json", &jsonBody)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON batch status = %d", resp.StatusCode)
	}

	resp, err = http.Post(tsBin.URL+"/v1/streams/default/batch", wire.ContentType,
		bytes.NewReader(wire.EncodeReports(reports)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch status = %d", resp.StatusCode)
	}

	hj, nj := histogramOf(t, sJSON, DefaultStream)
	hb, nb := histogramOf(t, sBin, DefaultStream)
	if nj != nb {
		t.Fatalf("report counts differ: json %d, binary %d", nj, nb)
	}
	if len(hj) != len(hb) {
		t.Fatalf("histogram widths differ: %d vs %d", len(hj), len(hb))
	}
	for i := range hj {
		if hj[i] != hb[i] {
			t.Fatalf("bucket %d differs: json %v, binary %v", i, hj[i], hb[i])
		}
	}

	// A multi-report binary frame on the single-report endpoint is a 400.
	resp, err = http.Post(tsBin.URL+"/v1/streams/default/report", wire.ContentType,
		bytes.NewReader(wire.EncodeReports(reports)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("multi-report frame on /report status = %d, want 400", resp.StatusCode)
	}

	// A corrupted frame fails its CRC cleanly.
	frame := wire.EncodeReports(reports)
	frame[len(frame)-5] ^= 0x40
	resp, err = http.Post(tsBin.URL+"/v1/streams/default/batch", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame status = %d, want 400", resp.StatusCode)
	}
}

func encodeJSONReport(rep []float64) string {
	b, _ := json.Marshal(rep)
	return string(b)
}

// histogramOf snapshots one stream's report histogram.
func histogramOf(t *testing.T, s *Server, name string) ([]float64, int) {
	t.Helper()
	st := s.lookup(name)
	if st == nil {
		t.Fatalf("stream %q missing", name)
	}
	counts, n := st.Ring().MergeAll(nil)
	return counts, n
}

// TestPendingEstimateStaysJSON ensures the negotiation change did not leak
// into response encoding: responses are always JSON, whatever the request
// codec.
func TestPendingEstimateStaysJSON(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/streams/default/batch", wire.ContentType,
		bytes.NewReader(wire.EncodeReports([][]float64{{0.5}})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/json") {
		t.Fatalf("binary request answered Content-Type %q, want application/json", got)
	}
	var ack struct {
		Accepted int    `json:"accepted"`
		Stream   string `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decode ack: %v", err)
	}
	if ack.Accepted != 1 || ack.Stream != DefaultStream {
		t.Fatalf("ack = %+v", ack)
	}
	// Give the refresh engine a moment; not strictly needed, but keeps the
	// estimate path exercised under the binary ingest.
	time.Sleep(30 * time.Millisecond)
}
