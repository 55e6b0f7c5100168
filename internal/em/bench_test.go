package em

import (
	"fmt"
	"testing"

	"repro/internal/matrixx"
	"repro/internal/mechanism"
	"repro/internal/randx"
	"repro/internal/sw"
)

// benchOpts pins the iteration count so every run executes identical work
// regardless of convergence noise.
var benchOpts = Options{MaxIters: 20, MinIters: 20, Smoothing: true}

// benchBuckets are the BENCH_em.json granularities; the dense reference is
// run only up to denseMaxBuckets (at 16384 it would take 2 GiB).
var benchBuckets = []int{256, 1024, 4096, 16384}

const denseMaxBuckets = 4096

// BenchmarkReconstruct measures one EMS reconstruction (20 iterations) at
// the paper's granularities on the production Square Wave channel (the
// linear-time plateau) and on the dense reference matrix. `go run
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
			b.Run(fmt.Sprintf("%s/B=%d", bc.name, d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := Reconstruct(bc.ch, counts, benchOpts)
					if len(res.Estimate) != d {
						b.Fatal("bad estimate")
					}
				}
			})
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
				ws := new(Workspace)
				ws.Reconstruct(ch, counts, benchOpts)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := ws.Reconstruct(ch, counts, benchOpts)
					if len(res.Estimate) != d {
						b.Fatal("bad estimate")
					}
				}
			})
		}
	}
}

// BenchmarkEMSEvaluation measures one EMS map evaluation — E, M and S steps
// — on the sw plateau at ε = 1 through a reused Workspace, each from the EMS
// estimate of its histogram (copied in first, so every op evaluates the same
// point whatever b.N): with its log-likelihood (loglik: an evaluation the τ
// test reads) and without (nolog: one of the evaluations before
// min(MinIters, MaxIters) − 2).
func BenchmarkEMSEvaluation(b *testing.B) {
	for _, d := range []int{256, 1024} {
		w, counts := swCounts(d, 1.0, uint64(d))
		ch := w.Channel(d, d)
		for _, mode := range []string{"loglik", "nolog"} {
			b.Run(fmt.Sprintf("B=%d/%s", d, mode), func(b *testing.B) {
				opts := EMSOptions()
				opts.fillDefaults()
				var ws Workspace
				est := append([]float64(nil), ws.Reconstruct(ch, counts, opts).Estimate...)
				x := make([]float64, d)
				var res Result
				before := 0 // res.Iterations before the evaluation
				if mode == "loglik" {
					before = opts.MinIters
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(x, est)
					res.Iterations = before
					ws.step(ch, counts, x, &opts, &res)
				}
			})
		}
	}
}

// warmTrajectory is one of BenchmarkWarmRefresh's trajectories: at
// granularity d, a refresh every step reports from the first multiple of
// step at or past from, up to warmMaxN. A refresh every 20,000 reports from
// the start is about the cadence and length of a 30-second run of
// ldpbench's ingest workload when its one 20/s reader set the refreshes.
// One every 4,500 reports is the measured cadence of that workload's B = 256
// stream once its refreshes are spaced by their own cost (its 13.5M reports
// over the ~3,000 full-range refreshes ldp_em_refresh_seconds_count counts),
// kept to its last 500 refreshes up to warmMaxN. No workload refreshes a
// B = 1024 stream this large (ldpbench's windowed stream never holds more
// than ~150,000 reports), so B = 1024 keeps only the first trajectory.
type warmTrajectory struct{ d, step, from int }

const warmMaxN = 10000000

var warmTrajectories = []warmTrajectory{
	{256, 20000, 0}, {256, 4500, warmMaxN - 500*4500}, {1024, 20000, 0},
}

// warmSequences returns the sw mechanism's channel at granularity d (ε = 1),
// the warmTrajectories at d and, for each of them, the report histograms of
// one stream of Beta(5,2) values at each of its refreshes.
func warmSequences(b *testing.B, d int) (matrixx.Channel, []warmTrajectory, [][][]float64) {
	mech, err := mechanism.New(mechanism.Params{Name: mechanism.SW, Epsilon: 1, Buckets: d})
	if err != nil {
		b.Fatal(err)
	}
	var trs []warmTrajectory
	for _, tr := range warmTrajectories {
		if tr.d == d {
			trs = append(trs, tr)
		}
	}
	wave := sw.NewSquare(1)
	rng := randx.New(uint64(d))
	counts := make([]float64, mech.OutputBuckets())
	seqs := make([][][]float64, len(trs))
	for n := 1; n <= warmMaxN; n++ {
		j, err := mech.BucketOf(wave.Sample(rng.Beta(5, 2), rng))
		if err != nil {
			b.Fatal(err)
		}
		counts[j]++
		for k, tr := range trs {
			if n >= tr.from && n%tr.step == 0 {
				seqs[k] = append(seqs[k], append([]float64(nil), counts...))
			}
		}
	}
	return mech.Channel(), trs, seqs
}

// BenchmarkWarmRefresh replays the refresh engine's steady state along
// ingest-like trajectories (warmSequences): after one cold reconstruction
// of a trajectory's first histogram, every refresh is warm-started from the
// previous one's estimate through one reused Workspace, with the textbook
// EMS loop or with Options.AccelerateWarm. One op is a whole trajectory;
// evals/refresh is the mean number of F evaluations (EMS iterations) per
// warm refresh and ns/refresh its mean wall time.
func BenchmarkWarmRefresh(b *testing.B) {
	for _, d := range []int{256, 1024} {
		ch, trs, seqs := warmSequences(b, d)
		for k, seq := range seqs {
			first := Reconstruct(ch, seq[0], EMSOptions()).Estimate
			for _, mode := range []string{"textbook", "accelerated"} {
				b.Run(fmt.Sprintf("B=%d/step=%d/%s", d, trs[k].step, mode), func(b *testing.B) {
					opts := EMSOptions()
					opts.AccelerateWarm = mode == "accelerated"
					var ws Workspace
					init := make([]float64, d)
					evals := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(init, first)
						opts.Init = init
						for _, counts := range seq[1:] {
							res := ws.Reconstruct(ch, counts, opts)
							evals += res.Iterations
							copy(init, res.Estimate)
						}
					}
					refreshes := float64(b.N * (len(seq) - 1))
					b.ReportMetric(float64(evals)/refreshes, "evals/refresh")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/refreshes, "ns/refresh")
				})
			}
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
