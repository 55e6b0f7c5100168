package federate

// Delta-pipeline benchmarks at the standard granularities B ∈ {256, 1024,
// 4096}: freezing a push payload (delta arithmetic + LDPB frame + CRC),
// decoding and verifying it, and merging the dense counts root-side.
// Results are recorded in BENCH_fed.json; the CI bench-smoke job keeps these
// compiling and running on every PR.

import (
	"fmt"
	"testing"
)

// benchStates builds a single-stream state with ~10% occupancy — a typical
// sufficient-statistic histogram mid-round.
func benchStates(buckets int) []StreamState {
	counts := make([]uint64, buckets)
	for b := 0; b < buckets; b += 10 {
		counts[b] = uint64(b%97 + 1)
	}
	return []StreamState{{
		Name: "bench",
		Fingerprint: Fingerprint{
			Mechanism: "sw", Epsilon: 1, Buckets: buckets, OutputBuckets: buckets, Bandwidth: 0.25,
		},
		Epochs: []EpochCounts{{Epoch: 0, Counts: counts}},
	}}
}

func BenchmarkDeltaEncode(b *testing.B) {
	for _, buckets := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", buckets), func(b *testing.B) {
			states := benchStates(buckets)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := NewTracker()
				p, err := tr.Prepare("edge", states)
				if err != nil || p == nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(p.Body)))
			}
		})
	}
}

func BenchmarkDeltaDecode(b *testing.B) {
	for _, buckets := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", buckets), func(b *testing.B) {
			tr := NewTracker()
			p, err := tr.Prepare("edge", benchStates(buckets))
			if err != nil || p == nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(p.Body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodePushBinary(p.Body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeltaMerge(b *testing.B) {
	// Root-side apply: expand one epoch delta dense and fold it into an
	// accumulator histogram.
	for _, buckets := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", buckets), func(b *testing.B) {
			tr := NewTracker()
			p, err := tr.Prepare("edge", benchStates(buckets))
			if err != nil || p == nil {
				b.Fatal(err)
			}
			push, err := DecodePushBinary(p.Body)
			if err != nil {
				b.Fatal(err)
			}
			delta := push.Streams[0].Epochs[0]
			acc := make([]uint64, buckets)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dense, err := delta.Dense(buckets)
				if err != nil {
					b.Fatal(err)
				}
				for bkt, c := range dense {
					acc[bkt] += c
				}
			}
		})
	}
}

func BenchmarkTrackerIncremental(b *testing.B) {
	// Steady-state edge cycle: prepare → ack against a growing histogram.
	for _, buckets := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", buckets), func(b *testing.B) {
			states := benchStates(buckets)
			tr := NewTracker()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				states[0].Epochs[0].Counts[(i*7)%buckets] += 3
				p, err := tr.Prepare("edge", states)
				if err != nil || p == nil {
					b.Fatal(err)
				}
				if err := tr.Ack(p.Seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
