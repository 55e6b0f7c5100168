package aggregate

import (
	"sync"
	"testing"
)

func TestAddSnapshotRoundTrip(t *testing.T) {
	s := New(8, 4)
	s.Add(0)
	s.Add(0)
	s.Add(7)
	if err := s.AddCounts([]uint64{0, 0, 0, 5, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	s.AddBatch([]int{1, 1, 2})
	counts, n := s.Snapshot(nil)
	if n != 11 || s.N() != 11 {
		t.Fatalf("n = %d (N() = %d), want 11", n, s.N())
	}
	want := []float64{2, 2, 1, 5, 0, 0, 0, 1}
	for b, w := range want {
		if counts[b] != w {
			t.Errorf("bucket %d = %v, want %v", b, counts[b], w)
		}
	}
	// Snapshot into a reused buffer overwrites it.
	reused := []float64{9, 9, 9, 9, 9, 9, 9, 9}
	counts2, _ := s.Snapshot(reused)
	if &counts2[0] != &reused[0] {
		t.Error("Snapshot did not reuse the buffer")
	}
	for b, w := range want {
		if counts2[b] != w {
			t.Errorf("reused bucket %d = %v, want %v", b, counts2[b], w)
		}
	}
}

func TestConcurrentAddsNeverLoseReports(t *testing.T) {
	const (
		workers   = 16
		perWorker = 5000
		buckets   = 64
	)
	s := New(buckets, 8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			batch := make([]int, 0, 10)
			for i := 0; i < perWorker; i++ {
				b := (id*perWorker + i) % buckets
				if i%3 == 0 {
					batch = append(batch, b)
					if len(batch) == cap(batch) {
						s.AddBatch(batch)
						batch = batch[:0]
					}
				} else {
					s.Add(b)
				}
			}
			s.AddBatch(batch)
		}(w)
	}
	// Concurrent snapshots must never block or observe an inconsistent
	// total.
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]float64, buckets)
		for i := 0; i < 200; i++ {
			counts, n := s.Snapshot(buf)
			var sum float64
			for _, c := range counts {
				sum += c
			}
			if int(sum) != n {
				t.Errorf("snapshot total %d != bucket sum %v", n, sum)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if s.N() != workers*perWorker {
		t.Fatalf("N = %d, want %d", s.N(), workers*perWorker)
	}
	counts, n := s.Snapshot(nil)
	if n != workers*perWorker {
		t.Fatalf("snapshot n = %d, want %d", n, workers*perWorker)
	}
	per := float64(workers * perWorker / buckets)
	for b, c := range counts {
		if c != per {
			t.Errorf("bucket %d = %v, want %v", b, c, per)
		}
	}
}

func TestMergeAndReset(t *testing.T) {
	a := New(4, 2)
	b := New(4, 3)
	a.Add(0)
	b.Add(1)
	b.AddBatch([]int{2, 2, 2})
	// AddTo merges several histograms into one buffer without clearing it.
	merged := []float64{10, 0, 0, 0}
	if n := a.AddTo(merged) + b.AddTo(merged); n != 5 {
		t.Fatalf("merged n = %d, want 5", n)
	}
	if merged[0] != 11 || merged[1] != 1 || merged[2] != 3 || merged[3] != 0 {
		t.Errorf("merged counts = %v", merged)
	}
	a.Reset()
	if a.N() != 0 {
		t.Errorf("N after reset = %d", a.N())
	}
	if _, n := a.Snapshot(nil); n != 0 {
		t.Errorf("snapshot after reset n = %d", n)
	}
}

func TestDefaults(t *testing.T) {
	s := New(16, 0)
	if s.Shards() < 1 || s.Shards()&(s.Shards()-1) != 0 {
		t.Errorf("default shard count %d is not a power of two", s.Shards())
	}
	if hist, _ := s.Snapshot(nil); len(hist) != 16 {
		t.Errorf("buckets = %d", len(hist))
	}
}

func TestAddCounts(t *testing.T) {
	s := New(4, 2)
	s.Add(1)
	if err := s.AddCounts([]uint64{5, 0, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.N(); got != 8 {
		t.Fatalf("N = %d, want 8", got)
	}
	hist, n := s.Snapshot(nil)
	if n != 8 || hist[0] != 5 || hist[1] != 1 || hist[3] != 2 {
		t.Fatalf("snapshot %v (n=%d)", hist, n)
	}
	if err := s.AddCounts([]uint64{1}); err == nil {
		t.Fatal("wrong-width AddCounts accepted")
	}
}
