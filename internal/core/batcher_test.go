package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mechanism"
)

// collectingHook records every flushed batch (copied — the Batcher reuses
// its slices) and can be told to fail.
type collectingHook struct {
	mu      sync.Mutex
	batches [][]mechanism.Report
	fail    atomic.Bool
	failErr error
}

func (c *collectingHook) flush(reports []mechanism.Report) error {
	if c.fail.Load() {
		return c.failErr
	}
	cp := make([]mechanism.Report, len(reports))
	for i, r := range reports {
		cp[i] = append(mechanism.Report(nil), r...)
	}
	c.mu.Lock()
	c.batches = append(c.batches, cp)
	c.mu.Unlock()
	return nil
}

func (c *collectingHook) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.batches {
		n += len(b)
	}
	return n
}

func rep(v float64) mechanism.Report { return mechanism.Report{v} }

func TestBatcherSizeFlush(t *testing.T) {
	hook := &collectingHook{}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: time.Hour, Flush: hook.flush})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 4; i++ {
		if err := b.Add(rep(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for hook.total() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("size-triggered flush never fired; shipped %d/4", hook.total())
		}
		time.Sleep(time.Millisecond)
	}
	hook.mu.Lock()
	defer hook.mu.Unlock()
	if len(hook.batches) != 1 || len(hook.batches[0]) != 4 {
		t.Fatalf("batches = %v, want one batch of 4", hook.batches)
	}
	for i, r := range hook.batches[0] {
		if len(r) != 1 || r[0] != float64(i) {
			t.Fatalf("batch[%d] = %v (order not preserved)", i, r)
		}
	}
}

// TestBatcherSizeFlushLeavesPartialBatch: reports added while a full batch
// is in flight wait to fill the next batch, or for MaxDelay, instead of
// following it at once as a small batch of their own.
func TestBatcherSizeFlushLeavesPartialBatch(t *testing.T) {
	hook := &collectingHook{}
	var b *Batcher
	inFlight := func(reports []mechanism.Report) error {
		if hook.total() == 0 {
			b.Add(rep(4)) // arrives while the first batch is in flight
		}
		return hook.flush(reports)
	}
	const delay = 100 * time.Millisecond
	var err error
	b, err = NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: delay, Flush: inFlight})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	for i := 0; i < 4; i++ {
		b.Add(rep(float64(i)))
	}
	for hook.total() < 5 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("shipped %d/5 reports", hook.total())
		}
		time.Sleep(time.Millisecond)
	}
	hook.mu.Lock()
	defer hook.mu.Unlock()
	if len(hook.batches) != 2 || len(hook.batches[0]) != 4 || len(hook.batches[1]) != 1 {
		t.Fatalf("batches = %v, want a batch of 4, then one of 1", hook.batches)
	}
	if waited := time.Since(start); waited < delay {
		t.Fatalf("the partial batch shipped after %v, before its MaxDelay of %v", waited, delay)
	}
}

func TestBatcherTimedFlush(t *testing.T) {
	hook := &collectingHook{}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 1000, MaxDelay: 20 * time.Millisecond, Flush: hook.flush})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Add(rep(0.5))
	deadline := time.Now().Add(2 * time.Second)
	for hook.total() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("timed flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherBackpressureBlocks(t *testing.T) {
	hook := &collectingHook{failErr: errors.New("down")}
	hook.fail.Store(true)
	b, err := NewBatcher(BatcherConfig{MaxBatch: 2, MaxDelay: 5 * time.Millisecond, QueueCap: 2, Flush: hook.flush})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(rep(1))
	b.Add(rep(2))

	// The queue is full and the transport is failing, so a third Add must
	// block — not drop — until the transport recovers and a flush drains.
	unblocked := make(chan error, 1)
	go func() { unblocked <- b.Add(rep(3)) }()
	select {
	case err := <-unblocked:
		t.Fatalf("Add returned (%v) with a full queue; want blocking backpressure", err)
	case <-time.After(50 * time.Millisecond):
	}

	hook.fail.Store(false)
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("Add after recovery: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Add still blocked after the transport recovered")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if hook.total() != 3 {
		t.Fatalf("shipped %d reports, want 3", hook.total())
	}
}

func TestBatcherCloseFlushesRemainder(t *testing.T) {
	hook := &collectingHook{}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 100, MaxDelay: time.Hour, Flush: hook.flush})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		b.Add(rep(float64(i)))
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if hook.total() != 7 {
		t.Fatalf("Close shipped %d reports, want 7", hook.total())
	}
	if err := b.Add(rep(9)); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestBatcherErrorRequeuesAndReports(t *testing.T) {
	hook := &collectingHook{failErr: errors.New("transport down")}
	hook.fail.Store(true)
	b, err := NewBatcher(BatcherConfig{MaxBatch: 10, MaxDelay: time.Hour, Flush: hook.flush})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(rep(1))
	b.Add(rep(2))
	if err := b.Flush(); err == nil {
		t.Fatal("Flush on a failing transport returned nil")
	}
	if b.Len() != 2 {
		t.Fatalf("failed batch was dropped: Len = %d, want 2", b.Len())
	}

	// Recovery: the same reports ship on the next flush, nothing lost.
	hook.fail.Store(false)
	if err := b.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if hook.total() != 2 || b.Len() != 0 {
		t.Fatalf("after recovery shipped=%d queued=%d, want 2/0", hook.total(), b.Len())
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestBatcherConcurrentAdds(t *testing.T) {
	hook := &collectingHook{}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 16, MaxDelay: 5 * time.Millisecond, QueueCap: 32, Flush: hook.flush})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Add(rep(0.5)); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if hook.total() != goroutines*each {
		t.Fatalf("shipped %d reports, want %d", hook.total(), goroutines*each)
	}
}

func TestBatcherRequiresFlushHook(t *testing.T) {
	if _, err := NewBatcher(BatcherConfig{}); err == nil {
		t.Fatal("NewBatcher without a Flush hook succeeded")
	}
}
