package ldphttp

import (
	"testing"
	"time"
)

// Start-up cost: what a collector pays before its first request — the
// layers the ldpbench setup_s metric is made of.

// BenchmarkNewServer builds a collector with its default stream (sw, ε = 1,
// B = 256): the stream's channel, the flight recorder and the metric
// families. Closing it is not timed.
func BenchmarkNewServer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewServer(Config{Epsilon: 1, Buckets: 256, RefreshInterval: time.Hour})
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkHandler builds the public route table.
func BenchmarkHandler(b *testing.B) {
	s := NewServer(Config{Epsilon: 1, Buckets: 256, RefreshInterval: time.Hour})
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Handler()
	}
}
