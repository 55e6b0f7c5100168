package ldphttp

// Ingest-path benchmarks for the wire codecs: one report per request
// (unbatched) against 128- and 1024-report batches, each as JSON arrays
// ([0.5]), as JSON bare numbers (0.5, the shape repro.Reporter sends for
// scalar mechanisms) and as the binary frame. time/op divided by the batch
// size is the amortized per-report cost the client-side Batcher buys.
// Results recorded in BENCH_wire.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/wire"
)

func benchIngestServer(b *testing.B) http.Handler {
	b.Helper()
	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
	b.Cleanup(s.Close)
	return s.Handler()
}

func benchIngestReports(n int) [][]float64 {
	reports := make([][]float64, n)
	for i := range reports {
		reports[i] = []float64{float64(i%64) / 64}
	}
	return reports
}

func BenchmarkIngestUnbatched(b *testing.B) {
	run := func(b *testing.B, contentType string, body []byte) {
		h := benchIngestServer(b)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/streams/default/report", bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("report answered %d: %s", rec.Code, rec.Body)
			}
		}
	}
	b.Run("json", func(b *testing.B) {
		run(b, "application/json", []byte(`{"report": 0.5}`))
	})
	b.Run("binary", func(b *testing.B) {
		run(b, wire.ContentType, wire.EncodeReports([][]float64{{0.5}}))
	})
}

func BenchmarkIngestBatched(b *testing.B) {
	for _, n := range []int{128, 1024} {
		reports := benchIngestReports(n)
		jsonBody, err := json.Marshal(map[string]any{"reports": reports})
		if err != nil {
			b.Fatal(err)
		}
		scalars := make([]float64, n)
		for i, rep := range reports {
			scalars[i] = rep[0]
		}
		scalarBody, err := json.Marshal(map[string]any{"reports": scalars})
		if err != nil {
			b.Fatal(err)
		}
		binBody := wire.EncodeReports(reports)
		run := func(b *testing.B, contentType string, body []byte) {
			h := benchIngestServer(b)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/streams/default/batch", bytes.NewReader(body))
				req.Header.Set("Content-Type", contentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("batch answered %d: %s", rec.Code, rec.Body)
				}
			}
		}
		b.Run(fmt.Sprintf("json/n=%d", n), func(b *testing.B) { run(b, "application/json", jsonBody) })
		b.Run(fmt.Sprintf("json-scalar/n=%d", n), func(b *testing.B) { run(b, "application/json", scalarBody) })
		b.Run(fmt.Sprintf("binary/n=%d", n), func(b *testing.B) { run(b, wire.ContentType, binBody) })
	}
}
