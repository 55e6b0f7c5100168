// Package engine is the one stream engine under the library
// (repro.Streams, repro.Aggregator) and the HTTP collector (package
// ldphttp): the single place a stream is declared, validated, stored,
// reconstructed, saved and restored.
//
// A Stream is a mechanism and its channel (core.Aggregator), a report
// histogram (a window.Ring; a plain stream's one epoch never seals), the
// published estimate, the window estimate cache, the warm start, the EM
// workspace and the estimate-quality tracker. A Registry owns the one
// declaration rule (Config.Resolve), the one redeclare rule, drop and
// lookup, the refresh scheduler and worker pool (only the collector starts
// it), and the one capture and restore; package snapshot keeps the file
// format.
//
// Every reconstruction runs range → merge → reconstruct: warm in the
// refresh workers (full range, window caches, drift scoring; warm starts
// run SQUAREM, em.Options.AccelerateWarm), cold — the paper's textbook
// EMS — for the library's Estimate and EstimateWindow.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/em"
	"repro/internal/mechanism"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// DefaultBuckets is the reconstruction granularity of a declaration that
// leaves Buckets zero.
const DefaultBuckets = 1024

// MaxShards bounds a declaration's ingestion stripe count: every stripe
// holds a whole report histogram.
const MaxShards = 256

// An armed stream's refreshes are spaced by their own cost: the next one
// starts refreshDuty times the last one's wall time after that one started
// (so EM takes at most 1/refreshDuty of a core per stream), and never later
// than maxRefreshGap after it (refreshGap). A stream its readers keep watched
// therefore publishes as often as that duty cycle allows while a refresh is
// cheaper than maxRefreshGap/refreshDuty, about every maxRefreshGap while it
// is not, and back to back once a refresh takes maxRefreshGap or more.
const (
	maxRefreshGap = 10 * time.Millisecond
	refreshDuty   = 10
)

// Config is one stream's declaration: the mechanism's wire name ("" = sw,
// "auto" = the Section 4.1 rule), ε, the granularity (0 = DefaultBuckets)
// and the sw family's bandwidth (0 = the optimum) define what the histogram
// means; a positive Epoch rotates it, keeping Retain sealed epochs (0 =
// window.DefaultRetain). Shards (0 = one per CPU, at most MaxShards) and
// the library's bootstrap Seed never take part in compatibility.
type Config struct {
	Mechanism string
	Epsilon   float64
	Buckets   int
	Bandwidth float64
	Shards    int
	Epoch     time.Duration
	Retain    int
	Seed      uint64
}

// Windowed reports whether the declaration asks for epoch rotation.
func (c Config) Windowed() bool { return c.Epoch > 0 }

// Resolve is the one declaration rule: it fills the granularity, resolves
// the mechanism name, and rejects a ε that is not finite and positive, a
// granularity outside [2, mechanism.MaxBuckets], a bandwidth that is not
// finite, in [0, 2] and of the sw family, a stripe count outside [0,
// MaxShards], and an unusable window (Retain above window.MaxRetain
// included). Retain stays as declared (0 inherits on a redeclare). Resolve
// builds nothing.
func (c Config) Resolve() (Config, error) {
	if c.Buckets == 0 {
		c.Buckets = DefaultBuckets
	}
	if !(c.Epsilon > 0) || math.IsInf(c.Epsilon, 1) {
		return c, fmt.Errorf("epsilon must be positive and finite, got %v", c.Epsilon)
	}
	if c.Buckets < 2 {
		return c, fmt.Errorf("need at least 2 buckets, got %d", c.Buckets)
	}
	if c.Buckets > mechanism.MaxBuckets {
		return c, fmt.Errorf("at most %d buckets, got %d", mechanism.MaxBuckets, c.Buckets)
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return c, fmt.Errorf("shards %d out of range [0, %d]", c.Shards, MaxShards)
	}
	mech, err := mechanism.Resolve(c.Mechanism, c.Epsilon, c.Buckets)
	if err != nil {
		return c, err
	}
	c.Mechanism = mech
	if !(c.Bandwidth >= 0 && c.Bandwidth <= 2) {
		return c, fmt.Errorf("bandwidth %v out of range [0, 2]", c.Bandwidth)
	}
	if c.Bandwidth != 0 && mech != mechanism.SW && mech != mechanism.SWDiscrete {
		return c, fmt.Errorf("bandwidth only applies to the sw family, not %q", mech)
	}
	if c.Epoch < 0 {
		return c, fmt.Errorf("epoch %v must not be negative", c.Epoch)
	}
	if c.Retain != 0 && !c.Windowed() {
		return c, fmt.Errorf("retain %d needs an epoch duration", c.Retain)
	}
	if c.Windowed() {
		if _, err := c.window().Validate(); err != nil {
			return c, err
		}
	}
	return c, nil
}

func (c Config) window() window.Config { return window.Config{Epoch: c.Epoch, Retain: c.Retain} }

// ErrConfigMismatch is wrapped by every refusal of the redeclare rule.
var ErrConfigMismatch = errors.New("stream exists with different configuration")

// redeclare is the one redeclare rule of declaration, auto-declaration and
// restore: a resolved declaration c may redeclare a stream declared as live
// with the same mechanism, ε, granularity and effective bandwidth
// (mechanism.EffectiveBandwidth). Zero Epoch and Retain inherit the
// stream's windowing; non-zero ones must match it.
func redeclare(name string, live, c Config) error {
	if live.Mechanism != c.Mechanism || live.Epsilon != c.Epsilon || live.Buckets != c.Buckets ||
		mechanism.EffectiveBandwidth(live.Mechanism, live.Epsilon, live.Bandwidth) !=
			mechanism.EffectiveBandwidth(c.Mechanism, c.Epsilon, c.Bandwidth) {
		return fmt.Errorf("%w: %q has (%s, ε=%v, buckets=%d, b=%v), requested (%s, ε=%v, buckets=%d, b=%v)",
			ErrConfigMismatch, name, live.Mechanism, live.Epsilon, live.Buckets, live.Bandwidth,
			c.Mechanism, c.Epsilon, c.Buckets, c.Bandwidth)
	}
	if !c.Windowed() {
		return nil
	}
	if !live.Windowed() {
		return fmt.Errorf("%w: %q is not windowed; drop and redeclare it to enable epochs", ErrConfigMismatch, name)
	}
	if live.Epoch != c.Epoch || (c.Retain != 0 && live.Retain != c.Retain) {
		return fmt.Errorf("%w: %q rotates every %v retaining %d, requested %v/%d",
			ErrConfigMismatch, name, live.Epoch, live.Retain, c.Epoch, c.Retain)
	}
	return nil
}

// Estimate is one published, immutable reconstruction over the stream's
// Buckets. N is the user count it covers, Raw the histogram increments
// (they differ for fan-out mechanisms; Raw measures staleness). Iterations
// counts EMS map evaluations (1 for matrix-free oracles).
type Estimate struct {
	Distribution           []float64
	N, Raw                 int
	Mean, Variance, Median float64
	Iterations             int
	Converged              bool
	WarmStart, Restored    bool
}

// Stream is one attribute stream. Its mechanism, ring and configuration
// are fixed at construction.
type Stream struct {
	name string
	cfg  Config // resolved; Retain is the effective retention
	reg  *Registry
	agg  *core.Aggregator // mechanism, channel and EM options
	ring *window.Ring     // report histogram (plain: epoch 0 never seals)

	est atomic.Pointer[Estimate]

	// Window estimate cache: serving registers ranges, workers fill them.
	winMu sync.Mutex
	wins  map[window.Range]*windowCache

	// Scheduler state: queued dedupes queue entries; busy serializes
	// refreshes per stream (and publishes the scratch below between
	// workers); rerun records a request that found the stream busy;
	// mustRefresh forces the next refresh (age-out can change the
	// population without changing its size); armed records that a read or
	// ingest asked for a refresh since the last one started, so every later
	// request rides on the timer or queue entry the first one set.
	queued, busy, rerun, mustRefresh, armed atomic.Bool
	// Wall-clock nanos: the last publish; the last refresh's start and its
	// wall time (the duty cycle); the oldest report no refresh has merged
	// yet (0 = none); and the last read that found reports (the stream is
	// watched for one sweep interval after it; 0 = unread, or the watch
	// lapsed).
	lastRefresh, ranAt, ranFor, dirtyAt, readAt atomic.Int64
	// The refresh timer, created by the first arming that must wait and
	// reused; dropped stops arming for good.
	timerMu sync.Mutex
	timer   *time.Timer
	dropped atomic.Bool

	// Worker-owned scratch (busy held): a warm refresh allocates only the
	// published estimate's copy.
	init         []float64
	scratch      []float64
	winScratch   []float64
	driftScratch []float64
	ws           em.Workspace
	freshness    *telemetry.Histogram // resolved at the first publish (Registry.freshness)

	diag *diagnose.Tracker
	m    streamMetrics
}

// streamMetrics are one stream's telemetry handles, resolved when it joins
// the registry (all nil without Registry metrics, and for a stream that
// never joins; the drift alert counter only for windowed streams).
type streamMetrics struct {
	reports     *telemetry.Counter
	refresh     *telemetry.Histogram
	iters       *telemetry.Histogram
	rotations   *telemetry.Counter
	refreshes   [3]*telemetry.Counter // indexed by refreshGrowth...refreshForced
	driftAlerts *telemetry.Counter
}

// newStream builds a stream from a resolved declaration — its mechanism and
// channel exactly once, its ring born at the registry clock's now. Resolve
// admits only declarations every constructor accepts.
func (r *Registry) newStream(name string, cfg Config) *Stream {
	ems := em.EMSOptions()
	ems.AccelerateWarm = true
	agg := core.NewAggregator(core.Config{
		Epsilon:   cfg.Epsilon,
		Buckets:   cfg.Buckets,
		Mechanism: cfg.Mechanism,
		Bandwidth: cfg.Bandwidth,
		Smoothing: true,
		EM:        ems,
	})
	ring := window.New(agg.OutputBuckets(), cfg.Shards, cfg.window(), r.now())
	cfg.Retain = ring.Config().Retain
	st := &Stream{name: name, cfg: cfg, reg: r, agg: agg, ring: ring, wins: make(map[window.Range]*windowCache)}
	st.diag = diagnose.NewTracker(diagnose.TrackerConfig{
		Mechanism: cfg.Mechanism,
		Epsilon:   cfg.Epsilon,
		Buckets:   cfg.Buckets,
		EMBased:   agg.Channel() != nil,
		Windowed:  cfg.Windowed(),
	})
	return st
}

// resolveMetrics resolves the stream's series in m (none when m is nil).
func (st *Stream) resolveMetrics(m *Metrics) {
	if m == nil {
		return
	}
	st.m = streamMetrics{
		reports:   m.Reports.With(st.name, st.cfg.Mechanism),
		refresh:   m.Refresh.With(st.name),
		iters:     m.Iterations.With(st.name),
		rotations: m.Rotations.With(st.name),
	}
	for i, reason := range refreshReasons {
		st.m.refreshes[i] = m.Refreshes.With(st.name, reason)
	}
	if st.cfg.Windowed() {
		st.m.driftAlerts = m.DriftAlerts.With(st.name)
	}
}

// Name returns the stream's name.
func (st *Stream) Name() string { return st.name }

// Config returns the resolved declaration, with the effective retention.
func (st *Stream) Config() Config { return st.cfg }

// Mechanism returns the stream's reporting mechanism.
func (st *Stream) Mechanism() mechanism.Mechanism { return st.agg.Mechanism() }

// Ring returns the stream's report histogram.
func (st *Stream) Ring() *window.Ring { return st.ring }

// EpochOrigin returns the instant a windowed stream's epoch 0 began, the
// anchor its epoch indexes count from (invariant under rotation).
func (st *Stream) EpochOrigin() time.Time {
	cur, start := st.ring.Current()
	return start.Add(-time.Duration(cur) * st.cfg.Epoch)
}

// Shards returns the effective ingestion stripe count.
func (st *Stream) Shards() int {
	if st.cfg.Shards > 0 {
		return st.cfg.Shards
	}
	return aggregate.DefaultShards()
}

// Bucketize validates one wire report, appending its cells to dst.
func (st *Stream) Bucketize(dst []int, rep mechanism.Report) ([]int, error) {
	return st.agg.Bucketize(dst, rep)
}

// Bucket maps one scalar report to its cell (core.Aggregator.Bucket).
func (st *Stream) Bucket(report float64) int { return st.agg.Bucket(report) }

// Add lands the Bucketize cells of reports reports in the live epoch and
// marks the stream dirty; on a watched stream it also arms a refresh
// (Registry.arm). Once the stream is marked dirty, ingest into a stream
// that is unwatched or already armed reads no clock and writes no shared
// word here.
func (st *Stream) Add(cells []int, reports int) {
	if len(cells) == 1 {
		st.ring.Add(cells[0])
	} else {
		st.ring.AddBatch(cells)
	}
	if c := st.m.reports; c != nil {
		c.Add(uint64(reports))
	}
	if st.dirtyAt.Load() == 0 {
		st.dirtyAt.CompareAndSwap(0, time.Now().UnixNano())
	}
	if read := st.readAt.Load(); read != 0 && !st.armed.Load() && st.watched(read) {
		st.reg.arm(st)
	}
}

// watched reports whether the read at read (wall-clock nanos) is within the
// last sweep interval while the engine runs. It forgets a lapsed read, so
// ingest into a stream nobody reads any more reads no clock.
func (st *Stream) watched(read int64) bool {
	if sweep := st.reg.sweep.Load(); sweep != 0 && time.Now().UnixNano()-read < sweep {
		return true
	}
	st.readAt.CompareAndSwap(read, 0)
	return false
}

// Served records a read that found reports on the stream, which keeps the
// stream watched for one sweep interval; stale (what it served lags the
// histogram) arms a refresh under the same rule as Add, so a stream its
// reads already keep fresh gets no extra refresh.
func (st *Stream) Served(stale bool) {
	st.readAt.Store(time.Now().UnixNano())
	if stale {
		st.reg.arm(st)
	}
}

// Absorbed marks counts merged into the ring outside Add (a federation
// push, a restore) and queues the stream's refresh now.
func (st *Stream) Absorbed() {
	st.dirtyAt.CompareAndSwap(0, time.Now().UnixNano())
	st.reg.enqueue(st)
}

// Users returns the report (user) count visible to estimates in O(shards):
// the increments, or a fan-out mechanism's marker cell (the last one).
func (st *Stream) Users() int {
	n := st.ring.N()
	if n == 0 || !st.agg.Mechanism().FanOut() {
		return n
	}
	return st.ring.Cell(st.ring.Buckets() - 1)
}

// Published returns the published full-range estimate (nil before the
// first one).
func (st *Stream) Published() *Estimate { return st.est.Load() }

// Pending returns the increments ingested after the published estimate.
func (st *Stream) Pending() int {
	pending := st.ring.N()
	if est := st.est.Load(); est != nil {
		pending -= est.Raw
	}
	return max(pending, 0)
}

// LastRefresh returns when the last refresh published (zero before one).
func (st *Stream) LastRefresh() time.Time {
	if ns := st.lastRefresh.Load(); ns > 0 {
		return time.Unix(0, ns)
	}
	return time.Time{}
}

// Diagnostics returns the stream's estimate-quality tracker.
func (st *Stream) Diagnostics() *diagnose.Tracker { return st.diag }

// Advance rotates the ring forward to now, drops aged-out window estimates
// and forces the next refresh; it returns the epochs sealed. It holds the
// registry read-lock, so a restore never sees a ring rotate between its
// validation and its merge.
func (st *Stream) Advance(now time.Time) int {
	st.reg.mu.RLock()
	rotated := st.ring.Advance(now)
	st.reg.mu.RUnlock()
	if rotated > 0 {
		st.rotated()
	}
	return rotated
}

// Rotate forces one rotation of a windowed ring regardless of the clock.
func (st *Stream) Rotate() {
	st.reg.mu.RLock()
	st.ring.Rotate()
	st.reg.mu.RUnlock()
	st.rotated()
}

func (st *Stream) rotated() {
	st.sealWindows()
	st.mustRefresh.Store(true)
}

// Resolve resolves a window selector ("last:K", "epochs:i..j") against the
// ring (see window.Ring.Resolve).
func (st *Stream) Resolve(selector string) (window.Range, error) {
	sel, err := window.ParseSelector(selector)
	if err != nil {
		return window.Range{}, err
	}
	return st.ring.Resolve(sel)
}

// Reconstruct runs one cold reconstruction outside the refresh engine (the
// textbook EMS, or an oracle's debiased estimate) over the epoch range g,
// nil meaning everything retained. It returns the estimate and the
// increments it covers (0: nothing to reconstruct).
func (st *Stream) Reconstruct(g *window.Range) ([]float64, int, error) {
	counts, n, err := st.merge(g, nil)
	if err != nil || n == 0 {
		return nil, n, err
	}
	return st.agg.EstimateInto(nil, counts, nil).Estimate, n, nil
}

// merge is the range→merge step of every reconstruction (nil g: all).
func (st *Stream) merge(g *window.Range, dst []float64) ([]float64, int, error) {
	if g == nil {
		dst, n := st.ring.MergeAll(dst)
		return dst, n, nil
	}
	return st.ring.Merge(*g, dst)
}
