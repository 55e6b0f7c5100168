package ldphttp

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEngineSweep measures one full refresh sweep of the background
// engine over a fleet of dirty streams: every stream gets one new report,
// the scheduler is woken, and the sweep is complete when every stream has
// republished. This is the end-to-end cost a collector pays per refresh
// interval, and the knob under test is the refresh worker pool size (on a
// single-core runner the pool sizes tie; on a multi-core one the sweep
// parallelizes across streams).
func BenchmarkEngineSweep(b *testing.B) {
	const streams = 8
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("streams=%d/refresh-workers=%d", streams, workers), func(b *testing.B) {
			s := NewServer(Config{
				Epsilon: 1, Buckets: 256,
				RefreshInterval: time.Hour, // sweeps run only when woken
				RefreshWorkers:  workers,
			})
			defer s.Close()
			for i := 0; i < streams-1; i++ {
				if err := s.CreateStream(fmt.Sprintf("s%d", i), StreamConfig{Epsilon: 1, Buckets: 256}); err != nil {
					b.Fatal(err)
				}
			}
			list := s.streamList()
			for _, st := range list {
				for r := 0; r < 2000; r++ {
					st.ring.Add((r * 37) % 256)
				}
			}
			waitSweep := func() {
				for _, st := range list {
					for int(st.published.Load()) != st.ring.N() {
						time.Sleep(20 * time.Microsecond)
					}
				}
			}
			s.wake()
			waitSweep() // first (cold) reconstruction outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, st := range list {
					st.ring.Add(i % 256)
				}
				s.wake()
				waitSweep()
			}
		})
	}
}
