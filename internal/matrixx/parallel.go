package matrixx

import (
	"runtime"

	"repro/internal/parallel"
)

// RangeChannel is a Channel whose products can be computed over contiguous
// output sub-ranges: rows of M·x (plain or fused with the EM ratio/ll
// epilogue), columns of Mᵀ·x. *Matrix satisfies it, and guarantees that a
// partitioned product accumulates each output element in the same order as
// the serial one — partitioning changes wall-clock time, never bits. A
// *Plateau does not: its products are linear-time sweeps, far below the
// fan-out threshold at any size the collector serves.
type RangeChannel interface {
	Channel
	MulVecRows(dst, x []float64, lo, hi int)
	MulVecTCols(dst, x []float64, lo, hi int)
	MulVecRatioRows(ratio, ll, x, counts []float64, lo, hi int)
}

// parallelMinWork is the per-product flops floor (rows·cols) below which
// fan-out overhead exceeds the compute being split: measured on the
// recorded BENCH_em.json baselines, a ≈0.35 Mflop product regressed 12%
// under the wrapper while dense B=1024 (≈1 Mflop) broke even, so the
// threshold sits between the two. Parallelize returns the channel unwrapped
// below it — the serial kernel IS the fast path there.
const parallelMinWork = 1 << 19

// ParallelChannel wraps a RangeChannel so MulVec (and its fused E-step
// variant) row-partitions and MulVecT column-partitions across the shared
// worker pool. Products remain bit-identical to the wrapped channel's
// serial ones.
type ParallelChannel struct {
	inner  RangeChannel
	chunks int
	pool   *parallel.Pool
}

// Parallelize wraps c for parallel products over `workers` partitions.
// workers == 0 or 1 (or a channel without range kernels, such as a
// *Plateau) returns c unchanged; workers < 0 selects runtime.NumCPU().
// Dense channels under the measured fan-out threshold are also returned
// unchanged.
func Parallelize(c Channel, workers int) Channel {
	if workers == 0 || workers == 1 {
		return c
	}
	rc, ok := c.(RangeChannel)
	if !ok {
		return c
	}
	if c.Rows()*c.Cols() < parallelMinWork {
		return c
	}
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers <= 1 {
		return c
	}
	return &ParallelChannel{inner: rc, chunks: workers, pool: parallel.Default()}
}

// Rows implements Channel.
func (p *ParallelChannel) Rows() int { return p.inner.Rows() }

// Cols implements Channel.
func (p *ParallelChannel) Cols() int { return p.inner.Cols() }

// Unwrap returns the wrapped serial channel.
func (p *ParallelChannel) Unwrap() Channel { return p.inner }

// MulVec implements Channel, row-partitioned across the pool.
func (p *ParallelChannel) MulVec(dst, x []float64) []float64 {
	rows, cols := p.inner.Rows(), p.inner.Cols()
	if len(dst) != rows || len(x) != cols {
		// Fail on the caller's goroutine, not inside a pool worker.
		panic("matrixx: ParallelChannel.MulVec dimension mismatch")
	}
	p.pool.For(rows, p.chunks, func(lo, hi int) {
		p.inner.MulVecRows(dst, x, lo, hi)
	})
	return dst
}

// MulVecT implements Channel, column-partitioned across the pool.
func (p *ParallelChannel) MulVecT(dst, x []float64) []float64 {
	rows, cols := p.inner.Rows(), p.inner.Cols()
	if len(dst) != cols || len(x) != rows {
		panic("matrixx: ParallelChannel.MulVecT dimension mismatch")
	}
	p.pool.For(cols, p.chunks, func(lo, hi int) {
		p.inner.MulVecTCols(dst, x, lo, hi)
	})
	return dst
}

// MulVecRatio implements RatioChannel, row-partitioned across the pool.
// Every output of the fused E-step is per-row (the caller folds ll
// serially), so the partition is bit-identical to the serial fused pass.
func (p *ParallelChannel) MulVecRatio(ratio, ll, x, counts []float64) {
	rows, cols := p.inner.Rows(), p.inner.Cols()
	if len(ratio) != rows || len(ll) != rows || len(counts) != rows || len(x) != cols {
		panic("matrixx: ParallelChannel.MulVecRatio dimension mismatch")
	}
	p.pool.For(rows, p.chunks, func(lo, hi int) {
		p.inner.MulVecRatioRows(ratio, ll, x, counts, lo, hi)
	})
}

// Compile-time checks: the dense channel supports range partitioning and
// the wrapper speaks both the plain and the fused product surfaces.
var (
	_ RangeChannel = (*Matrix)(nil)
	_ Channel      = (*ParallelChannel)(nil)
	_ RatioChannel = (*Matrix)(nil)
	_ RatioChannel = (*ParallelChannel)(nil)
)
