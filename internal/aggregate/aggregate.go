// Package aggregate provides the concurrent report-accumulation substrate of
// the collector: a bucket histogram striped across shards of atomic counters
// so that millions of clients can ingest concurrently without a global lock,
// while the estimator takes non-blocking snapshots.
//
// The design follows the striped-counter pattern: each shard owns a separate
// counter array (its own allocation, so shards do not share cache lines),
// and every ingestion increments exactly one atomic counter in one shard.
// Shard selection is cached per-P through a sync.Pool, which gives each
// processor an affine shard under load — the common case is an uncontended
// atomic add to a processor-local line. Snapshots sum the stripes with
// atomic loads and therefore never block writers; a snapshot taken during
// ingestion reflects every report that completed before the call, possibly
// some in-flight ones, and is always internally consistent (its total equals
// the sum of its buckets). No report is ever lost.
package aggregate

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// shard is one stripe: a private histogram plus its running total. The pad
// keeps the hot n counters of adjacent shards on distinct cache lines.
type shard struct {
	n      atomic.Uint64
	_      [56]byte
	counts []atomic.Uint64
}

// Striped is a sharded histogram of report counts. All methods are safe for
// concurrent use. A Striped must not be copied after first use.
type Striped struct {
	buckets int
	shards  []shard
	next    atomic.Uint32
	hint    sync.Pool // *uint32 shard indices with per-P affinity
}

// DefaultShards returns the automatic stripe count: the smallest power of
// two ≥ runtime.NumCPU(), so stripes spread across processors without
// over-allocating on small machines.
func DefaultShards() int {
	s := 1
	for s < runtime.NumCPU() {
		s <<= 1
	}
	return s
}

// New builds a striped histogram with the given bucket count; shards <= 0
// selects DefaultShards().
func New(buckets, shards int) *Striped {
	if buckets < 1 {
		panic(fmt.Sprintf("aggregate: need at least 1 bucket, got %d", buckets))
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	s := &Striped{buckets: buckets, shards: make([]shard, shards)}
	for i := range s.shards {
		s.shards[i].counts = make([]atomic.Uint64, buckets)
	}
	s.hint.New = func() any {
		id := new(uint32)
		*id = s.next.Add(1) % uint32(len(s.shards))
		return id
	}
	return s
}

// Shards returns the stripe count.
func (s *Striped) Shards() int { return len(s.shards) }

// Add records one report in the given bucket. It panics if bucket is out of
// range.
func (s *Striped) Add(bucket int) {
	id := s.hint.Get().(*uint32)
	sh := &s.shards[*id]
	sh.counts[bucket].Add(1)
	sh.n.Add(1)
	s.hint.Put(id)
}

// AddBatch records one report per bucket index, resolving the shard once for
// the whole batch.
func (s *Striped) AddBatch(buckets []int) {
	if len(buckets) == 0 {
		return
	}
	id := s.hint.Get().(*uint32)
	sh := &s.shards[*id]
	for _, b := range buckets {
		sh.counts[b].Add(1)
	}
	sh.n.Add(uint64(len(buckets)))
	s.hint.Put(id)
}

// N returns the total number of reports recorded. It costs one atomic load
// per shard, not per bucket.
func (s *Striped) N() int {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].n.Load()
	}
	return int(n)
}

// Cell returns the count of one bucket. It costs one atomic load per
// shard — the cheap path for callers that need a single cell (e.g. the
// user-marker cell of fan-out LDP mechanisms) without a full Snapshot.
func (s *Striped) Cell(bucket int) int {
	if bucket < 0 || bucket >= s.buckets {
		panic(fmt.Sprintf("aggregate: bucket %d outside [0, %d)", bucket, s.buckets))
	}
	var n uint64
	for i := range s.shards {
		n += s.shards[i].counts[bucket].Load()
	}
	return int(n)
}

// Snapshot sums the stripes into a dense float64 histogram — the shape the
// EM reconstruction consumes — and returns it with its total count. dst is
// reused when it has the right length (its contents are overwritten);
// passing nil allocates. Snapshot never blocks writers; its total always
// equals the sum of the returned buckets.
func (s *Striped) Snapshot(dst []float64) ([]float64, int) {
	if len(dst) != s.buckets {
		dst = make([]float64, s.buckets)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	return dst, s.AddTo(dst)
}

// AddTo adds the stripes into dst, which must hold the bucket count, and
// returns the total it added: Snapshot without the clear, for callers that
// sum several histograms into one buffer (epoch merges). Every count is an
// integer below 2^53, so the float64 sums are exact and the result does not
// depend on the order histograms are added in. AddTo never blocks writers.
func (s *Striped) AddTo(dst []float64) int {
	dst = dst[:s.buckets]
	var n uint64
	for i := range s.shards {
		counts := s.shards[i].counts
		for b := range counts {
			c := counts[b].Load()
			if c != 0 {
				dst[b] += float64(c)
				n += c
			}
		}
	}
	return int(n)
}

// AddCounts folds a dense histogram into s in one pass (federation deltas,
// snapshot restores): the shard is resolved once for the whole histogram and
// zero cells cost nothing, so merging a delta is O(nonzero buckets) atomic
// adds rather than one shard lookup per bucket.
func (s *Striped) AddCounts(counts []uint64) error {
	if len(counts) != s.buckets {
		return fmt.Errorf("aggregate: add granularity mismatch (%d vs %d buckets)",
			len(counts), s.buckets)
	}
	id := s.hint.Get().(*uint32)
	sh := &s.shards[*id]
	var n uint64
	for b, c := range counts {
		if c != 0 {
			sh.counts[b].Add(c)
			n += c
		}
	}
	sh.n.Add(n)
	s.hint.Put(id)
	return nil
}

// Reset zeroes every stripe. Reset concurrent with ingestion is safe but not
// linearizable: reports racing with the reset land in either the old or the
// new epoch.
func (s *Striped) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		for b := range sh.counts {
			sh.counts[b].Store(0)
		}
		sh.n.Store(0)
	}
}
