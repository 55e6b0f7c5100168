package engine

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options configures a Registry: the rotation clock (nil = time.Now) and
// where the engine records (nil = nowhere). The zero value is the
// library's registry.
type Options struct {
	Clock   func() time.Time
	Metrics *Metrics
	Tracer  *trace.Tracer
}

// Metrics are the per-stream families the engine writes, each stream
// resolving its series once, when it joins the registry. The HTTP collector
// registers every one.
type Metrics struct {
	// Telemetry is the registry the families live in. Drop deletes from it
	// every series whose stream label names the dropped stream (so the
	// collector's scrape-derived per-stream gauges go too), under the same
	// hold of the registry lock that joins a redeclared stream of the same
	// name, which therefore counts from zero. Nil deletes nothing.
	Telemetry *telemetry.Registry

	Reports     *telemetry.CounterVec   // stream, mechanism
	Refresh     *telemetry.HistogramVec // stream: refresh reconstruction seconds
	Freshness   *telemetry.HistogramVec // stream: age of the oldest report a full-range publish newly covers
	Iterations  *telemetry.HistogramVec // stream
	Rotations   *telemetry.CounterVec   // stream
	Refreshes   *telemetry.CounterVec   // stream, reason (growth|rotation|forced)
	DriftAlerts *telemetry.CounterVec   // stream
}

// Registry is a set of named streams in declaration order, plus the
// refresh engine Start runs. All methods are safe for concurrent use.
type Registry struct {
	opts Options
	now  func() time.Time

	// mu guards the index and the order; rotations hold it shared and a
	// restore exclusively, so a ring validated for a restore stays so.
	mu      sync.RWMutex
	streams map[string]*Stream
	order   []*Stream

	rq        refreshQueue // staleness-ordered dirty-stream queue
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	lastTick  atomic.Int64 // wall-clock nanos of the scheduler's last pass
	sweep     atomic.Int64 // the sweep interval in nanos while the engine runs, else 0
}

// NewRegistry returns an empty registry with an idle refresh engine.
func NewRegistry(opts Options) *Registry {
	r := &Registry{
		opts:    opts,
		now:     opts.Clock,
		streams: make(map[string]*Stream),
		done:    make(chan struct{}),
	}
	if r.now == nil {
		r.now = time.Now
	}
	r.rq.cond = sync.NewCond(&r.rq.mu)
	r.lastTick.Store(time.Now().UnixNano())
	return r
}

// Now reads the registry's rotation clock.
func (r *Registry) Now() time.Time { return r.now() }

// Declare declares a named stream, returning the stream the name resolves
// to and whether this call created it. An existing stream is returned when
// the redeclare rule accepts cfg (ErrConfigMismatch otherwise); a new one
// is built, once, under the same hold of the registry lock.
func (r *Registry) Declare(name string, cfg Config) (*Stream, bool, error) {
	if !snapshot.ValidStreamName(name) {
		return nil, false, errInvalidName(name)
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.streams[name]; ok {
		if err := redeclare(name, st.cfg, cfg); err != nil {
			return nil, false, err
		}
		return st, false, nil
	}
	st := r.newStream(name, cfg)
	r.addLocked(st)
	return st, true, nil
}

func errInvalidName(name string) error {
	return fmt.Errorf("invalid stream name %q (want 1-64 bytes with no control characters)", name)
}

// NewStream builds a stream the registry does not hold: a candidate for
// Register, or the library's stand-alone Aggregator.
func (r *Registry) NewStream(name string, cfg Config) (*Stream, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return r.newStream(name, cfg), nil
}

// Register adds NewStream candidates all at once or none, returning the
// stream each name resolves to. A name declared meanwhile, or by an earlier
// candidate, resolves to that stream — never overwritten — when the
// redeclare rule accepts the candidate and both count the same epochs (a
// candidate's windowing is built, not inherited: epoch, retention and
// origin must match); anything else fails the call.
func (r *Registry) Register(cands []*Stream) ([]*Stream, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Stream, len(cands))
	added := make(map[string]*Stream, len(cands))
	for i, c := range cands {
		if !snapshot.ValidStreamName(c.name) {
			return nil, errInvalidName(c.name)
		}
		st := cmp.Or(r.streams[c.name], added[c.name])
		if st == nil {
			added[c.name], st = c, c
		} else if err := redeclare(c.name, st.cfg, c.cfg); err != nil {
			return nil, err
		} else if st.cfg.Epoch != c.cfg.Epoch || st.cfg.Retain != c.cfg.Retain ||
			(c.cfg.Windowed() && !st.EpochOrigin().Equal(c.EpochOrigin())) {
			return nil, fmt.Errorf("%w: %q counts other epochs", ErrConfigMismatch, c.name)
		}
		out[i] = st
	}
	for _, c := range cands {
		if added[c.name] == c {
			r.addLocked(c)
		}
	}
	return out, nil
}

func (r *Registry) addLocked(st *Stream) {
	st.resolveMetrics(r.opts.Metrics)
	r.streams[st.name] = st
	r.order = append(r.order, st)
}

// Drop retires a stream from the registry, the refresh engine and future
// snapshots; holders of the *Stream keep a working, unregistered stream.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.streams[name]
	if !ok {
		return fmt.Errorf("unknown stream %q", name)
	}
	delete(r.streams, name)
	for i, o := range r.order {
		if o == st {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	st.dropped.Store(true)
	st.stopTimer()
	if m := r.opts.Metrics; m != nil && m.Telemetry != nil {
		m.Telemetry.DeleteSeries("stream", name)
	}
	return nil
}

// Lookup returns the named stream, nil when there is none.
func (r *Registry) Lookup(name string) *Stream {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.streams[name]
}

// List returns the streams in declaration order.
func (r *Registry) List() []*Stream {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Stream(nil), r.order...)
}

// Start runs the refresh engine once: workers workers (0 = GOMAXPROCS,
// negative = 1) draining the queue that reads, ingest, pushes and restores
// fill stream by stream, and a scheduler sweeping every stream into it each
// interval — the backstop for streams nobody reads. Close stops it.
func (r *Registry) Start(workers int, interval time.Duration) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(workers, 1)
	r.sweep.Store(int64(interval))
	r.wg.Add(1 + workers)
	go r.scheduler(interval)
	for i := 0; i < workers; i++ {
		go r.refreshWorker()
	}
}

// Close stops the refresh engine, its timers included, and waits for it;
// ingest continues.
func (r *Registry) Close() {
	r.closeOnce.Do(func() {
		r.sweep.Store(0)
		r.mu.RLock()
		for _, st := range r.order {
			st.stopTimer()
		}
		r.mu.RUnlock()
		close(r.done)
		r.rq.close()
	})
	r.wg.Wait()
}

// Wake queues every stream now, as a sweep does.
func (r *Registry) Wake() {
	for _, st := range r.List() {
		r.enqueue(st)
	}
}

// enqueue queues a stream's refresh now, once.
func (r *Registry) enqueue(st *Stream) {
	if st.queued.CompareAndSwap(false, true) {
		r.rq.push(st)
	}
}

// arm is the one arming rule of reads and ingest: the first request since
// the stream's last refresh started schedules the next one; later requests
// ride on it.
func (r *Registry) arm(st *Stream) {
	if !st.armed.Load() && st.armed.CompareAndSwap(false, true) {
		r.schedule(st)
	}
}

// schedule queues an armed stream's refresh when its duty cycle allows
// (refreshGap after the previous refresh started): now, or on the stream's
// timer. A stream mid-refresh is left to its worker, which schedules it on
// finishing.
func (r *Registry) schedule(st *Stream) {
	st.timerMu.Lock()
	defer st.timerMu.Unlock()
	if st.dropped.Load() || r.sweep.Load() == 0 || st.busy.Load() {
		return
	}
	gap := refreshGap(time.Duration(st.ranFor.Load()))
	wait := time.Until(time.Unix(0, st.ranAt.Load()).Add(gap))
	switch {
	case wait <= 0:
		r.enqueue(st)
	case st.timer == nil:
		st.timer = time.AfterFunc(wait, func() { r.enqueue(st) })
	default:
		st.timer.Reset(wait)
	}
}

// refreshGap is how long after a refresh that took cost started the next
// one of an armed stream may start: refreshDuty times cost, at most
// maxRefreshGap.
func refreshGap(cost time.Duration) time.Duration {
	return min(refreshDuty*cost, maxRefreshGap)
}

// stopTimer stops the stream's refresh timer, if it has one.
func (st *Stream) stopTimer() {
	st.timerMu.Lock()
	defer st.timerMu.Unlock()
	if st.timer != nil {
		st.timer.Stop()
	}
}

// LastTick returns when the scheduler last passed (liveness).
func (r *Registry) LastTick() time.Time { return time.Unix(0, r.lastTick.Load()) }

// QueueDepth returns the number of streams waiting for a refresh worker.
func (r *Registry) QueueDepth() int { return r.rq.depth() }

// scheduler stamps the liveness clock and sweeps every stream into the
// queue each tick — every one, because rotations and window caches advance
// inside the refresh itself; a refresh with nothing to do merges nothing.
func (r *Registry) scheduler(interval time.Duration) {
	defer r.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
		}
		r.lastTick.Store(time.Now().UnixNano())
		r.Wake()
	}
}

// refreshWorker drains the queue, parallel across streams and serialized
// within one by busy. A pop that finds the stream busy is not dropped: it
// sets rerun, which the holder re-checks after releasing busy, so reports
// that landed after the running refresh merged publish right after it.
// Every refresh restarts the stream's duty cycle and records its own cost.
func (r *Registry) refreshWorker() {
	defer r.wg.Done()
	for {
		st, ok := r.rq.pop(r.now)
		if !ok {
			return
		}
		st.queued.Store(false)
		st.rerun.Store(true)
		for st.rerun.Load() && st.busy.CompareAndSwap(false, true) {
			st.rerun.Store(false)
			st.armed.Store(false)
			start := time.Now()
			st.ranAt.Store(start.UnixNano())
			r.refresh(st)
			st.ranFor.Store(int64(time.Since(start)))
			st.busy.Store(false)
		}
		if st.armed.Load() {
			r.schedule(st) // armed while it ran
		}
	}
}

// freshness resolves the stream's freshness series at its first publish
// (busy held) rather than when it joins, so a declaration allocates nothing
// for it; a stream dropped meanwhile resolves none, and so never brings a
// deleted series back.
func (r *Registry) freshness(st *Stream) *telemetry.Histogram {
	if st.freshness == nil && r.opts.Metrics != nil {
		r.mu.RLock()
		if r.streams[st.name] == st {
			st.freshness = r.opts.Metrics.Freshness.With(st.name)
		}
		r.mu.RUnlock()
	}
	return st.freshness
}

// refreshQueue is the scheduler→workers queue, deduped by Stream.queued.
type refreshQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*Stream
	closed bool
}

func (q *refreshQueue) push(st *Stream) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, st)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *refreshQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *refreshQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// pop blocks for the most urgent stream (false once closed): a due
// rotation or forced refresh first, then the most unpublished increments.
func (q *refreshQueue) pop(now func() time.Time) (*Stream, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	best, bestBoost, bestStale := 0, false, 0
	for i, st := range q.items {
		boost := st.mustRefresh.Load() || st.ring.RotationDue(now())
		stale := st.ring.N()
		if est := st.est.Load(); est != nil {
			stale -= est.Raw
		}
		if i == 0 || (boost && !bestBoost) || (boost == bestBoost && stale > bestStale) {
			best, bestBoost, bestStale = i, boost, stale
		}
	}
	st := q.items[best]
	last := len(q.items) - 1
	q.items[best] = q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	return st, true
}
