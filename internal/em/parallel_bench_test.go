package em

import (
	"fmt"
	"testing"

	"repro/internal/matrixx"
	"repro/internal/sw"
)

// benchOpts pins the iteration count so serial and parallel runs execute
// identical work regardless of convergence noise.
func benchOpts(workers int) Options {
	return Options{MaxIters: 20, MinIters: 20, Smoothing: true, Workers: workers}
}

// benchBuckets are the BENCH_em.json granularities; the dense reference is
// run only up to denseMaxBuckets (at 16384 it would take 2 GiB).
var benchBuckets = []int{256, 1024, 4096, 16384}

const denseMaxBuckets = 4096

// BenchmarkReconstruct measures one EMS reconstruction (20 iterations) at
// the paper's granularities on the production Square Wave channel (the
// linear-time plateau) and on the dense reference matrix, serial vs
// Workers = -1 (which partitions only the dense products). `go run
// ./cmd/experiments` is the full-scale harness; this is the perf-trajectory
// benchmark behind BENCH_em.json.
func BenchmarkReconstruct(b *testing.B) {
	for _, d := range benchBuckets {
		w, counts := swCounts(d, 1.0, uint64(d))
		channels := []struct {
			name string
			ch   matrixx.Channel
		}{{"plateau", w.Channel(d, d)}}
		if d <= denseMaxBuckets {
			channels = append(channels, struct {
				name string
				ch   matrixx.Channel
			}{"dense", w.TransitionMatrix(d, d)})
		}
		for _, bc := range channels {
			for _, workers := range []int{1, -1} {
				mode := "serial"
				if workers != 1 {
					mode = "parallel"
				}
				b.Run(fmt.Sprintf("%s/B=%d/%s", bc.name, d, mode), func(b *testing.B) {
					opts := benchOpts(workers)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res := Reconstruct(bc.ch, counts, opts)
						if len(res.Estimate) != d {
							b.Fatal("bad estimate")
						}
					}
				})
			}
		}
	}
}

// BenchmarkReconstructWorkspace is the warm steady state the collector's
// refresh workers run in: the same Workspace re-reconstructs the same
// channel shape over and over. The allocs/op column is the contract — once
// warm, a full reconstruction allocates nothing.
func BenchmarkReconstructWorkspace(b *testing.B) {
	for _, d := range benchBuckets {
		w, counts := swCounts(d, 1.0, uint64(d))
		channels := []matrixx.Channel{w.Channel(d, d)}
		if d <= denseMaxBuckets {
			channels = append(channels, w.TransitionMatrix(d, d))
		}
		for k, ch := range channels {
			b.Run(fmt.Sprintf("%s/B=%d/warm", []string{"plateau", "dense"}[k], d), func(b *testing.B) {
				opts := benchOpts(1)
				ws := new(Workspace)
				ws.Reconstruct(ch, counts, opts)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := ws.Reconstruct(ch, counts, opts)
					if len(res.Estimate) != d {
						b.Fatal("bad estimate")
					}
				}
			})
		}
	}
}

// BenchmarkChannelBuild measures building a stream's Square Wave channel at
// ε = 1 — the cost of declaring an sw stream: the plateau the mechanism
// serves, and the dense matrix it replaced (up to denseMaxBuckets).
func BenchmarkChannelBuild(b *testing.B) {
	w := sw.NewSquare(1.0)
	for _, d := range benchBuckets {
		b.Run(fmt.Sprintf("plateau/B=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Channel(d, d)
			}
		})
		if d <= denseMaxBuckets {
			b.Run(fmt.Sprintf("dense/B=%d", d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					w.TransitionMatrix(d, d)
				}
			})
		}
	}
}
