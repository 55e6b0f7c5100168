// Package window holds every stream's report histogram. An epoch Ring
// rotates the live striped histogram (package aggregate) on a fixed epoch
// duration, retains the last Retain sealed epochs, and merges any contiguous
// epoch range back into a single report histogram so the EMS reconstruction
// can answer "what did the distribution look like over the last hour/day"
// while old cohorts age out. A ring built from the zero Config is a plain
// cumulative histogram: its one live epoch never seals.
//
// # Epoch model
//
// Epochs are numbered globally from 0 and never reused: the Ring is born in
// epoch 0, and every rotation seals the live epoch and starts the next
// index. A rotation that arrives k > 1 periods late (the clock jumped, the
// process slept) seals the live epoch and inserts k−1 empty sealed epochs,
// so epoch indexes always map to wall-clock intervals of exactly the epoch
// duration — range selectors stay time-aligned across stalls and restarts.
// Only the most recent Retain sealed epochs are kept; older ones age out of
// every merge and of persistence.
//
// # Concurrency
//
// Ingestion (Add/AddBatch/AddCounts) takes a shared read-lock around the live
// striped histogram, so concurrent writers still scale across stripes;
// Advance takes the write-lock for the O(buckets) seal, during which the
// histogram is quiescent — the sealed counts are exact, no report is ever
// lost to a rotation race. Merges and snapshots read sealed epochs (frozen
// dense arrays) plus a non-blocking snapshot of the live stripes.
//
// # Time
//
// The Ring never reads the wall clock itself: callers pass "now" into
// Advance. Production drivers pass time.Now(); tests drive a mock clock and
// get fully deterministic rotation.
package window

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/aggregate"
)

// Config parameterizes a Ring. The zero Config is a plain ring: epoch 0 is
// live forever, Advance and Rotate seal nothing, and the ring is a
// cumulative histogram.
type Config struct {
	// Epoch is the rotation period: positive on a rotating ring, 0 on a
	// plain one.
	Epoch time.Duration
	// Retain is how many sealed epochs are kept (the live epoch is always
	// additionally available). Defaults to 8 on a rotating ring.
	Retain int
}

// DefaultRetain is the sealed-epoch retention used when Config.Retain is 0.
const DefaultRetain = 8

// MaxRetain bounds Config.Retain: a ring holds, and one Advance may
// gap-fill, up to Retain sealed epochs.
const MaxRetain = 65536

// Validate fills defaults and rejects unusable configurations of a rotating
// ring. It rejects the zero Config too, which New takes as a plain ring.
func (c Config) Validate() (Config, error) {
	if c.Epoch <= 0 {
		return c, fmt.Errorf("window: epoch duration must be positive, got %v", c.Epoch)
	}
	if c.Retain == 0 {
		c.Retain = DefaultRetain
	}
	if c.Retain < 1 || c.Retain > MaxRetain {
		return c, fmt.Errorf("window: retain must be in [1, %d], got %d", MaxRetain, c.Retain)
	}
	return c, nil
}

// Epoch is one sealed epoch: a frozen dense report histogram. Empty epochs
// (no reports, or gap-fill after a clock jump) have nil Counts.
type Epoch struct {
	// Index is the global epoch number.
	Index int
	// Counts is the dense report histogram; nil means empty.
	Counts []uint64
	// N is the report total of Counts.
	N int
}

// Ring is a per-stream epoch ring: the live striped histogram plus the
// retained sealed epochs. All methods are safe for concurrent use. A Ring
// must not be copied after first use.
type Ring struct {
	cfg     Config
	buckets int
	shards  int

	mu     sync.RWMutex
	live   *aggregate.Striped
	cur    int       // index of the live epoch
	start  time.Time // start of the live epoch
	sealed []Epoch   // ascending Index, len ≤ cfg.Retain
}

// New builds a ring whose live epoch 0 starts at now. Config must be the
// zero Config (a plain ring) or valid (see Config.Validate); buckets/shards
// follow aggregate.New.
func New(buckets, shards int, cfg Config, now time.Time) *Ring {
	if cfg != (Config{}) {
		var err error
		if cfg, err = cfg.Validate(); err != nil {
			panic(err.Error()) // programmer error: callers validate at the API boundary
		}
	}
	return &Ring{
		cfg:     cfg,
		buckets: buckets,
		shards:  shards,
		live:    aggregate.New(buckets, shards),
		start:   now,
	}
}

// Config returns the ring's (default-filled) configuration.
func (r *Ring) Config() Config { return r.cfg }

// Buckets returns the histogram granularity.
func (r *Ring) Buckets() int { return r.buckets }

// Add records one report in the live epoch.
func (r *Ring) Add(bucket int) {
	r.mu.RLock()
	r.live.Add(bucket)
	r.mu.RUnlock()
}

// AddBatch records one report per bucket index in the live epoch.
func (r *Ring) AddBatch(buckets []int) {
	r.mu.RLock()
	r.live.AddBatch(buckets)
	r.mu.RUnlock()
}

// AddCounts folds a dense histogram into the live epoch, resolving the
// ingestion stripe once (snapshot restores).
func (r *Ring) AddCounts(counts []uint64) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live.AddCounts(counts)
}

// N returns the total reports across the live epoch and every retained
// sealed epoch — the population still visible to estimates.
func (r *Ring) N() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := r.live.N()
	for i := range r.sealed {
		n += r.sealed[i].N
	}
	return n
}

// LiveN returns the report count of the live epoch alone.
func (r *Ring) LiveN() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live.N()
}

// Cell returns one bucket's count summed over the live epoch and every
// retained sealed epoch — O(shards + retained), the cheap path for reading
// a single cell (e.g. a fan-out mechanism's user-marker cell) without a
// full merge.
func (r *Ring) Cell(bucket int) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := r.live.Cell(bucket)
	for i := range r.sealed {
		if r.sealed[i].Counts != nil {
			n += int(r.sealed[i].Counts[bucket])
		}
	}
	return n
}

// Current returns the live epoch's index and start time.
func (r *Ring) Current() (index int, start time.Time) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur, r.start
}

// Oldest returns the lowest epoch index still addressable (the oldest
// retained sealed epoch, or the live epoch when nothing is sealed yet).
func (r *Ring) Oldest() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.oldestLocked()
}

func (r *Ring) oldestLocked() int {
	if len(r.sealed) == 0 {
		return r.cur
	}
	return r.sealed[0].Index
}

// SealedLen returns how many sealed epochs are currently retained.
func (r *Ring) SealedLen() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sealed)
}

// Advance rotates the ring forward to now: zero rotations if the live epoch
// has not elapsed, one per elapsed period otherwise (late periods seal as
// empty epochs). It returns the number of epochs sealed. Advance with a now
// before the live epoch's start is a no-op — the clock never runs backward
// from the ring's point of view — and so is every Advance of a plain ring.
func (r *Ring) Advance(now time.Time) int {
	if !r.RotationDue(now) {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.advanceLocked(now)
}

// RotationDue reports whether the live epoch has elapsed at now, i.e.
// whether Advance(now) would seal an epoch. Always false on a plain ring.
func (r *Ring) RotationDue(now time.Time) bool {
	if r.cfg.Epoch == 0 {
		return false
	}
	r.mu.RLock()
	elapsed := now.Sub(r.start)
	r.mu.RUnlock()
	return elapsed >= r.cfg.Epoch
}

func (r *Ring) advanceLocked(now time.Time) int {
	if r.cfg.Epoch == 0 {
		return 0 // a plain ring never seals
	}
	rotations := int(now.Sub(r.start) / r.cfg.Epoch)
	if rotations <= 0 {
		return 0
	}
	// Only the newest Retain sealed epochs can survive this advance, so
	// never construct more than that — a restore after long downtime with
	// a short epoch must not materialize millions of gap epochs under the
	// write lock.
	newCur := r.cur + rotations
	oldestKept := newCur - r.cfg.Retain
	if r.cur >= oldestKept {
		// Seal the live epoch. Writers are excluded by the lock, so the
		// snapshot is exact and the reset cannot race an Add.
		counts, n := r.live.Snapshot(nil)
		sealed := Epoch{Index: r.cur}
		if n > 0 {
			sealed.Counts = make([]uint64, len(counts))
			for i, c := range counts {
				sealed.Counts[i] = uint64(c)
			}
			sealed.N = n
		}
		r.sealed = append(r.sealed, sealed)
	}
	// Gap-fill the periods that elapsed entirely unobserved, skipping any
	// already past retention.
	first := r.cur + 1
	if first < oldestKept {
		first = oldestKept
	}
	for idx := first; idx < newCur; idx++ {
		r.sealed = append(r.sealed, Epoch{Index: idx})
	}
	r.cur = newCur
	r.start = r.start.Add(time.Duration(rotations) * r.cfg.Epoch)
	if drop := len(r.sealed) - r.cfg.Retain; drop > 0 {
		r.sealed = append(r.sealed[:0], r.sealed[drop:]...)
	}
	r.live.Reset()
	return rotations
}

// ErrEpochAgedOut marks an AddEpochCounts target that already fell out of
// retention; ErrEpochNotStarted one the ring's clock has not reached yet.
// Both are normal weather for a federated merge (edge and root clocks are
// never perfectly aligned) — callers count and report them rather than fail.
var (
	ErrEpochAgedOut    = errors.New("window: epoch aged out of retention")
	ErrEpochNotStarted = errors.New("window: epoch not started")
)

// AddEpochCounts merges a dense histogram into one retained epoch by global
// index — the live epoch, or any retained sealed epoch (a federated edge
// shipping increments for an epoch the root has already sealed). Either way
// the merge is atomic with respect to rotation, so an increment lands
// entirely in the epoch it was addressed to: a sealed-epoch merge holds the
// write lock, and a live-epoch merge holds the shared lock that rotation
// excludes — so it never stalls ingestion — and resolves the ingestion
// stripe once for the whole histogram.
func (r *Ring) AddEpochCounts(idx int, counts []uint64) error {
	if len(counts) != r.buckets {
		return fmt.Errorf("window: epoch %d merge has %d buckets, want %d", idx, len(counts), r.buckets)
	}
	r.mu.RLock()
	if idx == r.cur {
		defer r.mu.RUnlock()
		return r.live.AddCounts(counts)
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx > r.cur {
		return fmt.Errorf("%w: epoch %d (current is %d)", ErrEpochNotStarted, idx, r.cur)
	}
	if idx == r.cur { // a rotation reached idx since the shared-lock check
		return r.live.AddCounts(counts)
	}
	if idx < r.oldestLocked() {
		return fmt.Errorf("%w: epoch %d (oldest retained is %d)", ErrEpochAgedOut, idx, r.oldestLocked())
	}
	// Find the sealed epoch, or the insertion point for one an adopted
	// sparse history skipped (advanceLocked gap-fills, so this only happens
	// after restoring a snapshot with holes).
	at := sort.Search(len(r.sealed), func(i int) bool { return r.sealed[i].Index >= idx })
	if at == len(r.sealed) || r.sealed[at].Index != idx {
		r.sealed = append(r.sealed, Epoch{})
		copy(r.sealed[at+1:], r.sealed[at:])
		r.sealed[at] = Epoch{Index: idx}
	}
	ep := &r.sealed[at]
	if ep.Counts == nil {
		ep.Counts = make([]uint64, r.buckets)
	}
	for b, c := range counts {
		ep.Counts[b] += c
		ep.N += int(c)
	}
	return nil
}

// Rotate forces exactly one rotation regardless of the clock: the live
// epoch seals as-is and the next one starts on the ring's own schedule.
// Library users who drive epochs by their own cadence (instead of a wall
// clock) rotate with this. The read of the schedule and the rotation happen
// under one lock, so Rotate always seals exactly one epoch even when racing
// an Advance. On a plain ring Rotate seals nothing.
func (r *Ring) Rotate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(r.start.Add(r.cfg.Epoch))
}

// Range is a resolved, inclusive epoch range.
type Range struct{ Lo, Hi int }

// String renders the range in the canonical selector syntax.
func (g Range) String() string { return fmt.Sprintf("epochs:%d..%d", g.Lo, g.Hi) }

// Selector is a parsed window selector: exactly one of Last or the absolute
// range is set.
type Selector struct {
	// Last selects the most recent Last epochs ending at the live one
	// (clamped to what is retained). 0 means "not a last: selector".
	Last int
	// Lo, Hi are the absolute inclusive epoch bounds of an epochs:i..j
	// selector; only meaningful when Abs is true.
	Lo, Hi int
	Abs    bool
}

// ParseSelector parses the wire syntax: "last:K" (K ≥ 1) or "epochs:i..j"
// (0 ≤ i ≤ j).
func ParseSelector(s string) (Selector, error) {
	switch {
	case strings.HasPrefix(s, "last:"):
		k, err := strconv.Atoi(s[len("last:"):])
		if err != nil || k < 1 {
			return Selector{}, fmt.Errorf("window: bad selector %q (want last:K with K ≥ 1)", s)
		}
		return Selector{Last: k}, nil
	case strings.HasPrefix(s, "epochs:"):
		lo, hi, ok := strings.Cut(s[len("epochs:"):], "..")
		if !ok {
			return Selector{}, fmt.Errorf("window: bad selector %q (want epochs:i..j)", s)
		}
		i, err1 := strconv.Atoi(lo)
		j, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || i < 0 || j < i {
			return Selector{}, fmt.Errorf("window: bad selector %q (want epochs:i..j with 0 ≤ i ≤ j)", s)
		}
		return Selector{Lo: i, Hi: j, Abs: true}, nil
	default:
		return Selector{}, fmt.Errorf("window: bad selector %q (want last:K or epochs:i..j)", s)
	}
}

// ErrAgedOut marks a Resolve failure caused by the requested epochs having
// fallen out of retention (as opposed to a malformed or future range).
var ErrAgedOut = errors.New("window: epochs aged out of retention")

// IsAgedOut reports whether err stems from an aged-out epoch range.
func IsAgedOut(err error) bool { return errors.Is(err, ErrAgedOut) }

// Resolve maps a selector onto the ring's current state. last:K clamps to
// the retained range; epochs:i..j must lie entirely inside it (aged-out or
// future epochs are an error, so a caller can distinguish "gone" from
// "malformed").
func (r *Ring) Resolve(sel Selector) (Range, error) {
	r.mu.RLock()
	cur, oldest := r.cur, r.oldestLocked()
	r.mu.RUnlock()
	if sel.Abs {
		if sel.Hi > cur {
			return Range{}, fmt.Errorf("window: epoch %d has not started (current is %d)", sel.Hi, cur)
		}
		if sel.Lo < oldest {
			return Range{}, fmt.Errorf("%w: epoch %d is gone (oldest retained is %d)", ErrAgedOut, sel.Lo, oldest)
		}
		return Range{Lo: sel.Lo, Hi: sel.Hi}, nil
	}
	if sel.Last < 1 {
		return Range{}, fmt.Errorf("window: empty selector")
	}
	lo := cur - sel.Last + 1
	if lo < oldest {
		lo = oldest
	}
	return Range{Lo: lo, Hi: cur}, nil
}

// Merge sums the report histograms of the inclusive epoch range into a dense
// float64 histogram (the shape the EM reconstruction consumes) and returns
// it with its report total. dst is reused when it has the right length, so
// a warm Merge allocates nothing. A range that includes the live epoch sums
// its stripes straight into dst without blocking writers; sealed epochs are
// frozen, so a fully-sealed range merges identically forever. Ranges
// outside retention return an error.
func (r *Ring) Merge(g Range, dst []float64) ([]float64, int, error) {
	dst = r.clearDst(dst)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mergeLocked(g, dst)
}

// MergeAll merges every retained epoch plus the live one — the stream's
// current population (everything ingested, on a plain ring).
func (r *Ring) MergeAll(dst []float64) ([]float64, int) {
	dst = r.clearDst(dst)
	r.mu.RLock()
	defer r.mu.RUnlock()
	out, n, _ := r.mergeLocked(Range{Lo: r.oldestLocked(), Hi: r.cur}, dst)
	return out, n
}

func (r *Ring) clearDst(dst []float64) []float64 {
	if len(dst) != r.buckets {
		return make([]float64, r.buckets)
	}
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

func (r *Ring) mergeLocked(g Range, dst []float64) ([]float64, int, error) {
	if g.Lo < r.oldestLocked() || g.Hi > r.cur || g.Lo > g.Hi {
		return dst, 0, fmt.Errorf("window: range %s outside retained epochs %d..%d",
			g, r.oldestLocked(), r.cur)
	}
	var n int
	for i := range r.sealed {
		ep := &r.sealed[i]
		if ep.Index < g.Lo || ep.Index > g.Hi || ep.Counts == nil {
			continue
		}
		for b, c := range ep.Counts {
			dst[b] += float64(c)
		}
		n += ep.N
	}
	if g.Hi == r.cur {
		n += r.live.AddTo(dst)
	}
	return dst, n, nil
}

// RangeN returns the current report total of the inclusive epoch range
// without materializing a merged histogram — one addition per sealed epoch
// plus (for live-inclusive ranges) one atomic load per live stripe.
func (r *Ring) RangeN(g Range) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if g.Lo < r.oldestLocked() || g.Hi > r.cur || g.Lo > g.Hi {
		return 0, fmt.Errorf("window: range %s outside retained epochs %d..%d",
			g, r.oldestLocked(), r.cur)
	}
	var n int
	for i := range r.sealed {
		if idx := r.sealed[i].Index; idx >= g.Lo && idx <= g.Hi {
			n += r.sealed[i].N
		}
	}
	if g.Hi == r.cur {
		n += r.live.N()
	}
	return n, nil
}

// State is a point-in-time serializable dump of a ring, the shape package
// snapshot persists. Live is the live epoch's dense histogram.
type State struct {
	Epoch   time.Duration
	Retain  int
	Current int
	Start   time.Time
	Sealed  []Epoch
	Live    []uint64
	LiveN   int
}

// State captures the ring for persistence. The live histogram is read with a
// non-blocking snapshot; sealed epochs are copied, so the result shares no
// memory with the ring.
func (r *Ring) State() State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	live, ln := r.live.Snapshot(nil)
	st := State{
		Epoch:   r.cfg.Epoch,
		Retain:  r.cfg.Retain,
		Current: r.cur,
		Start:   r.start,
		LiveN:   ln,
	}
	if ln > 0 {
		st.Live = make([]uint64, len(live))
		for i, c := range live {
			st.Live[i] = uint64(c)
		}
	}
	st.Sealed = make([]Epoch, len(r.sealed))
	for i, ep := range r.sealed {
		st.Sealed[i] = Epoch{Index: ep.Index, N: ep.N}
		if ep.Counts != nil {
			st.Sealed[i].Counts = append([]uint64(nil), ep.Counts...)
		}
	}
	return st
}

// validate checks a State against a ring geometry without mutating anything.
func (st State) validate(buckets int) error {
	if st.Current < 0 {
		return fmt.Errorf("window: restore: negative current epoch %d", st.Current)
	}
	for i, ep := range st.Sealed {
		if ep.Index < 0 || ep.Index >= st.Current {
			return fmt.Errorf("window: restore: sealed epoch %d outside [0, %d)", ep.Index, st.Current)
		}
		if i > 0 && ep.Index <= st.Sealed[i-1].Index {
			return fmt.Errorf("window: restore: sealed epochs out of order at index %d", ep.Index)
		}
		if ep.Counts != nil && len(ep.Counts) != buckets {
			return fmt.Errorf("window: restore: sealed epoch %d has %d buckets, want %d",
				ep.Index, len(ep.Counts), buckets)
		}
		// N is what the ring reports as the epoch's size without merging
		// it, so it must be its histogram's total.
		var sum uint64
		for _, c := range ep.Counts {
			sum += c
		}
		if ep.N < 0 || uint64(ep.N) != sum {
			return fmt.Errorf("window: restore: sealed epoch %d claims %d reports, its histogram holds %d",
				ep.Index, ep.N, sum)
		}
	}
	if st.Live != nil && len(st.Live) != buckets {
		return fmt.Errorf("window: restore: live histogram has %d buckets, want %d",
			len(st.Live), buckets)
	}
	return nil
}

// CanAdopt reports (as an error) why a State could not be adopted by this
// ring: a malformed state, epoch history offered to a plain ring, or a ring
// that already rotated or sealed history. A clean CanAdopt does not reserve
// anything — Adopt rechecks under the ring's lock.
func (r *Ring) CanAdopt(st State) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.canAdoptLocked(st)
}

func (r *Ring) canAdoptLocked(st State) error {
	if err := st.validate(r.buckets); err != nil {
		return err
	}
	if r.cfg.Epoch == 0 && (st.Current != 0 || len(st.Sealed) != 0) {
		return fmt.Errorf("window: a plain ring cannot adopt epoch history (current epoch %d)", st.Current)
	}
	if r.cur != 0 || len(r.sealed) != 0 {
		return fmt.Errorf("window: ring already rotated (epoch %d); cannot adopt persisted state", r.cur)
	}
	return nil
}

// Adopt installs a persisted State into a ring that has not rotated yet: the
// rotation clock, sealed history and live histogram all come from st, and
// any reports already ingested into the (epoch-0) live histogram are carried
// into the adopted live epoch — the same additive merge semantics a
// non-windowed restore uses. The ring's own Epoch/Retain configuration is
// kept; callers verify it matches the persisted one.
func (r *Ring) Adopt(st State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.canAdoptLocked(st); err != nil {
		return err
	}
	r.cur = st.Current
	r.start = st.Start
	r.sealed = r.sealed[:0]
	for _, ep := range st.Sealed {
		cp := Epoch{Index: ep.Index, N: ep.N}
		if ep.Counts != nil {
			cp.Counts = append([]uint64(nil), ep.Counts...)
		}
		r.sealed = append(r.sealed, cp)
	}
	if drop := len(r.sealed) - r.cfg.Retain; drop > 0 {
		r.sealed = append(r.sealed[:0], r.sealed[drop:]...)
	}
	if st.Live != nil {
		return r.live.AddCounts(st.Live) // length checked by validate
	}
	return nil
}
