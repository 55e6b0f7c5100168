package core

// Batcher amortizes per-report transport cost on the client side: reports
// accumulate in a bounded queue and are flushed as one batch when the batch
// fills, when the oldest queued report has waited MaxDelay, or on an
// explicit Flush/Close. Backpressure is blocking — Add waits when the queue
// is full rather than dropping a report, because an LDP report is one
// user's single contribution and silently losing it would bias the
// estimate, not just lose throughput.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mechanism"
)

// BatcherConfig parameterizes a Batcher.
type BatcherConfig struct {
	// MaxBatch is the flush size (default 128).
	MaxBatch int
	// MaxDelay bounds how long a queued report may wait before a timed
	// flush (default 200ms; ≤0 uses the default).
	MaxDelay time.Duration
	// QueueCap bounds the queue; Add blocks when it is full (default
	// 4×MaxBatch, and never below MaxBatch).
	QueueCap int
	// Flush ships one batch. Required. It is called from the background
	// goroutine and from Add/Flush/Close callers, never concurrently with
	// itself. The slice is owned by the Batcher and reused; copy it to
	// retain.
	Flush func(reports []mechanism.Report) error
}

func (c BatcherConfig) filled() (BatcherConfig, error) {
	if c.Flush == nil {
		return c, fmt.Errorf("core: batcher needs a Flush hook")
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 200 * time.Millisecond
	}
	if c.QueueCap < c.MaxBatch {
		c.QueueCap = 4 * c.MaxBatch
	}
	return c, nil
}

// Batcher accumulates reports and flushes them in batches. Create with
// NewBatcher; all methods are safe for concurrent use.
type Batcher struct {
	cfg BatcherConfig

	mu      sync.Mutex
	notFull *sync.Cond
	queue   []mechanism.Report
	oldest  time.Time // arrival of queue[0], zero when empty
	lastErr error     // latest flush failure not yet returned
	closed  bool

	// flushMu serializes actual Flush-hook invocations so the hook never
	// races itself even when Add, the timer, and Close all trigger one.
	flushMu sync.Mutex

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// NewBatcher validates the configuration and starts the timed-flush
// goroutine.
func NewBatcher(cfg BatcherConfig) (*Batcher, error) {
	cfg, err := cfg.filled()
	if err != nil {
		return nil, err
	}
	b := &Batcher{
		cfg:   cfg,
		queue: make([]mechanism.Report, 0, cfg.MaxBatch),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	b.notFull = sync.NewCond(&b.mu)
	b.wg.Add(1)
	go b.run()
	return b, nil
}

// Add enqueues one report, blocking while the queue is full (backpressure)
// and returning an error only after Close.
func (b *Batcher) Add(rep mechanism.Report) error {
	b.mu.Lock()
	for len(b.queue) >= b.cfg.QueueCap && !b.closed {
		b.notFull.Wait()
	}
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("core: batcher is closed")
	}
	if len(b.queue) == 0 {
		b.oldest = time.Now()
	}
	b.queue = append(b.queue, rep)
	full := len(b.queue) >= b.cfg.MaxBatch
	b.mu.Unlock()
	if full {
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// Len is the number of queued, unflushed reports.
func (b *Batcher) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Flush synchronously ships everything queued. It returns this flush's
// failure, or a background flush failure not yet reported.
func (b *Batcher) Flush() error {
	return b.flushNow(false)
}

// Close flushes what remains, stops the background goroutine, and returns
// the final error state. Add fails afterwards; Close is idempotent.
func (b *Batcher) Close() error {
	b.mu.Lock()
	alreadyClosed := b.closed
	b.closed = true
	b.notFull.Broadcast()
	b.mu.Unlock()
	if !alreadyClosed {
		close(b.done)
		b.wg.Wait()
	}
	return b.flushNow(false)
}

// run is the timed-flush loop: it sleeps until the oldest queued report
// has waited MaxDelay (or a size-triggered wake) and flushes.
func (b *Batcher) run() {
	defer b.wg.Done()
	timer := time.NewTimer(b.cfg.MaxDelay)
	defer timer.Stop()
	for {
		b.mu.Lock()
		wait := b.cfg.MaxDelay
		if len(b.queue) > 0 {
			if d := b.cfg.MaxDelay - time.Since(b.oldest); d < wait {
				wait = d
			}
		}
		b.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-b.done:
			return
		case <-b.wake:
		case <-timer.C:
		}
		b.mu.Lock()
		due := len(b.queue) >= b.cfg.MaxBatch ||
			(len(b.queue) > 0 && time.Since(b.oldest) >= b.cfg.MaxDelay)
		b.mu.Unlock()
		if due {
			// Failures are recorded in lastErr inside flushNow; the queue
			// keeps the unshipped reports.
			b.flushNow(true)
		}
	}
}

// flushNow drains the queue through the Flush hook in MaxBatch-sized
// slices. On failure the unshipped remainder (including the failed batch)
// stays queued, oldest first, so a transient transport error loses nothing.
// A background caller (the timer goroutine discards the return value) sets
// background so the failure parks in lastErr and surfaces on the next
// synchronous Flush/Close; a synchronous caller gets it returned directly
// and exactly once. A background caller also stops at a partial batch that
// is not yet due, so the reports that arrive while a full batch is in
// flight wait to fill the next one instead of following it at once as a
// small request of their own.
func (b *Batcher) flushNow(background bool) error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	for {
		b.mu.Lock()
		if background && len(b.queue) > 0 && len(b.queue) < b.cfg.MaxBatch &&
			time.Since(b.oldest) < b.cfg.MaxDelay {
			b.mu.Unlock()
			return nil
		}
		if len(b.queue) == 0 {
			err := b.lastErr
			b.lastErr = nil
			b.mu.Unlock()
			return err
		}
		n := len(b.queue)
		if n > b.cfg.MaxBatch {
			n = b.cfg.MaxBatch
		}
		batch := make([]mechanism.Report, n)
		copy(batch, b.queue)
		b.mu.Unlock()

		err := b.cfg.Flush(batch)

		b.mu.Lock()
		if err != nil {
			if background {
				b.lastErr = err
			}
			b.mu.Unlock()
			return err
		}
		if background {
			b.lastErr = nil // a failed batch stays first in the queue, so it just shipped
		}
		// Drop the shipped prefix; Adds that ran during the Flush appended
		// behind it and survive for the next iteration.
		b.queue = append(b.queue[:0], b.queue[n:]...)
		if len(b.queue) > 0 {
			b.oldest = time.Now()
		}
		b.notFull.Broadcast()
		b.mu.Unlock()
	}
}
