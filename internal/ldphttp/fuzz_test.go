package ldphttp

// FuzzWireReport drives POST /v1/streams/{name}/report body parsing with
// hostile input: bare numbers, vectors, malformed JSON, NaN/Inf spellings,
// absurd shapes. Every input goes to each fuzz stream, so the fuzzer reaches
// every Bucketize shape; a body "stream" naming another stream is a 400
// stream_mismatch. The collector must never panic, must answer 200 or 400
// (404 for unknown streams), and every non-200 must carry a JSON error body.
// The WireReport codec itself is round-tripped for any body that parses.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

var (
	fuzzOnce   sync.Once
	fuzzServer *Server
)

// fuzzStreams are the streams of the shared fuzz collector: the default sw
// stream, then one stream named after each mechanism it runs — scalar
// (grr), fan-out (oue) and pair-report (olh).
var fuzzStreams = []string{DefaultStream, "oue", "olh", "grr"}

// fuzzHandler builds the one shared collector hosting fuzzStreams.
func fuzzHandler() http.Handler {
	fuzzOnce.Do(func() {
		fuzzServer = NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour})
		for _, mech := range fuzzStreams[1:] {
			if err := fuzzServer.CreateStream(mech, StreamConfig{Epsilon: 1, Buckets: 16, Mechanism: mech}); err != nil {
				panic(err)
			}
		}
	})
	return fuzzServer.Handler()
}

func FuzzWireReport(f *testing.F) {
	seeds := []string{
		`{"report": 0.5}`,
		`{"report": -0.1}`,
		`{"report": 1e999}`,
		`{"report": "NaN"}`,
		`{"report": [3, 17, 40]}`,
		`{"stream": "oue", "report": [0, 15, 16]}`,
		`{"stream": "oue", "report": []}`,
		`{"stream": "olh", "report": [9007199254740993, 3]}`,
		`{"stream": "olh", "report": [1.5, -2]}`,
		`{"stream": "grr", "report": 7}`,
		`{"stream": "grr", "report": -1}`,
		`{"stream": "nope", "report": 0.5}`,
		`{"report": [1e308, 1e308]}`,
		`{"report": {"a": 1}}`,
		`{"report":`,
		`[]`,
		`null`,
		``,
		`{"stream": 3, "report": 0.5}`,
		`{"report": [null]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	handler := fuzzHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, name := range fuzzStreams {
			path := "/v1/streams/" + name + "/report"
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("POST %s %q answered %d", path, body, rec.Code)
			}
			if rec.Code != http.StatusOK {
				var e struct {
					Error struct {
						Code    string `json:"code"`
						Message string `json:"message"`
					} `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
					t.Fatalf("POST %s %q: %d without a JSON error envelope: %s", path, body, rec.Code, rec.Body.Bytes())
				}
			}
		}

		// Codec round-trip: any report that unmarshals must re-marshal to
		// JSON that unmarshals to the same report.
		var req2 reportRequest
		if err := json.Unmarshal(body, &req2); err == nil && req2.Report != nil {
			blob, err := json.Marshal(req2.Report)
			if err != nil {
				t.Fatalf("report %v does not re-marshal: %v", req2.Report, err)
			}
			var again WireReport
			if err := json.Unmarshal(blob, &again); err != nil {
				t.Fatalf("re-marshaled report %s does not parse: %v", blob, err)
			}
			if len(again) != len(req2.Report) {
				t.Fatalf("round trip changed arity: %v -> %v", req2.Report, again)
			}
			for i := range again {
				// NaN never survives json.Marshal, so elements compare
				// directly.
				if again[i] != req2.Report[i] {
					t.Fatalf("round trip changed element %d: %v -> %v", i, req2.Report, again)
				}
			}
		}
	})
}
