package window

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkRotate measures one epoch rotation (seal + retention trim +
// live reset) at serving granularities. BENCH_window.json records the
// smoke baseline; the ci.yml bench-smoke job keeps this compiling and
// running on every PR.
func BenchmarkRotate(b *testing.B) {
	for _, buckets := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", buckets), func(b *testing.B) {
			r := New(buckets, 0, Config{Epoch: time.Minute, Retain: 8}, t0)
			if err := r.AddCounts(uniform(buckets, 3)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Advance(t0.Add(time.Duration(i+1) * time.Minute))
			}
		})
	}
}

// BenchmarkMerge measures a K-epoch sliding-window merge, the histogram
// assembly that precedes every window reconstruction.
func BenchmarkMerge(b *testing.B) {
	for _, buckets := range []int{256, 1024, 4096} {
		for _, k := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("B=%d/K=%d", buckets, k), func(b *testing.B) {
				r := New(buckets, 0, Config{Epoch: time.Minute, Retain: 8}, t0)
				for e := 0; e < 8; e++ {
					if err := r.AddCounts(uniform(buckets, 2)); err != nil {
						b.Fatal(err)
					}
					r.Advance(t0.Add(time.Duration(e+1) * time.Minute))
				}
				g, err := r.Resolve(Selector{Last: k})
				if err != nil {
					b.Fatal(err)
				}
				dst := make([]float64, buckets)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst, _, _ = r.Merge(g, dst)
				}
			})
		}
	}
}

// uniform is a dense histogram with n reports in each of buckets cells.
func uniform(buckets int, n uint64) []uint64 {
	counts := make([]uint64, buckets)
	for i := range counts {
		counts[i] = n
	}
	return counts
}
