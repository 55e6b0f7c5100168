package ldphttp

// Benchmark of the /metrics scrape at fleet scale, identity vs gzip. The
// diagnostics bookkeeping on the refresh path (the <5% overhead contract)
// is benchmarked with the refresh itself, in package engine.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkScrapeMetrics64Streams renders the /metrics exposition of a
// 64-stream fleet through the full HTTP handler, identity vs gzip.
func BenchmarkScrapeMetrics64Streams(b *testing.B) {
	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
	defer s.Close()
	for i := 0; i < 63; i++ {
		if err := s.CreateStream(fmt.Sprintf("s%02d", i), StreamConfig{Epsilon: 1, Buckets: 64}); err != nil {
			b.Fatal(err)
		}
	}
	for _, st := range s.reg.List() {
		for r := 0; r < 100; r++ {
			st.Ring().Add(r % 64)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	for _, enc := range []string{"identity", "gzip"} {
		b.Run(enc, func(b *testing.B) {
			var wire, decoded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
				if err != nil {
					b.Fatal(err)
				}
				req.Header.Set("Accept-Encoding", enc)
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				wire = int64(len(body))
				decoded = wire
				if enc == "gzip" {
					if resp.Header.Get("Content-Encoding") != "gzip" {
						b.Fatal("gzip not negotiated")
					}
					gz, err := gzip.NewReader(bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					plain, err := io.ReadAll(gz)
					if err != nil {
						b.Fatal(err)
					}
					decoded = int64(len(plain))
				}
			}
			b.ReportMetric(float64(wire), "wire-B/op")
			b.ReportMetric(float64(decoded), "exposition-B/op")
		})
	}
}
