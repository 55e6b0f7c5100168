package engine

// The refresh: under a stream's busy flag a worker advances its rotation
// clock, re-reconstructs the full range when it changed, refreshes the
// requested windows and scores a newly sealed epoch for drift — all warm,
// through the one range→merge→reconstruct path and the one workspace.

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/diagnose"
	"repro/internal/em"
	"repro/internal/histogram"
	"repro/internal/window"
)

// Refresh triggers, the reason label of the Refreshes family.
const (
	refreshGrowth   = iota // the visible histogram grew
	refreshRotation        // an epoch rotated during this refresh
	refreshForced          // a rotation elsewhere, a push or a restore forced it
)

var refreshReasons = [3]string{"growth", "rotation", "forced"}

// windowCache is one cached window reconstruction; workers own init. A
// published window that a rotation sealed is parked: no refresh
// reconstructs it until a read resolves to it again (WindowEstimate).
type windowCache struct {
	rng    window.Range
	est    atomic.Pointer[Estimate]
	init   []float64 // worker-owned warm start
	parked atomic.Bool
}

// reconstruct is every refresh's reconstruct step, warm from a non-nil
// init, into the workspace (busy held) its result aliases.
func (st *Stream) reconstruct(counts, init []float64) em.Result {
	return st.agg.EstimateInto(&st.ws, counts, init)
}

// publish turns a reconstruction into an immutable Estimate.
func (st *Stream) publish(res em.Result, raw int, counts []float64, warm bool) *Estimate {
	// res.Estimate aliases the workspace; the published estimate needs its
	// own copy.
	dist := append([]float64(nil), res.Estimate...)
	return newEstimate(dist, st.agg.Users(counts, raw), raw, res.Iterations, res.Converged,
		warm && st.agg.Channel() != nil, false)
}

func newEstimate(dist []float64, n, raw, iters int, converged, warm, restored bool) *Estimate {
	return &Estimate{
		Distribution: dist,
		N:            n,
		Raw:          raw,
		Mean:         histogram.Mean(dist),
		Variance:     histogram.Variance(dist),
		Median:       histogram.Quantile(dist, 0.5),
		Iterations:   iters,
		Converged:    converged,
		WarmStart:    warm,
		Restored:     restored,
	}
}

// refresh runs one stream's refresh; busy held. The full range publishes
// first, and again before each window reconstruction and the drift score
// when reports arrived meanwhile: on a contended host one of those can take
// tens of milliseconds, and the full range never waits behind more than
// one of them.
func (r *Registry) refresh(st *Stream) {
	reason, sealed := refreshGrowth, -1
	if rotated := st.Advance(r.now()); rotated > 0 {
		reason = refreshRotation
		if c := st.m.rotations; c != nil {
			c.Add(uint64(rotated))
		}
		epoch, _ := st.ring.Current()
		sealed = epoch - rotated
		rsp := r.opts.Tracer.NewTrace("epoch/rotate")
		rsp.SetStream(st.name)
		rsp.Attr("rotated", fmt.Sprintf("%d", rotated)).
			Attr("epoch", fmt.Sprintf("%d", epoch)).End()
	}
	r.refreshFull(st, reason)
	r.refreshWindows(st)
	if sealed >= 0 {
		r.refreshFull(st, refreshGrowth)
		st.scoreSealedEpoch(sealed)
	}
}

// refreshFull re-reconstructs and publishes the full range when it changed;
// busy held.
func (r *Registry) refreshFull(st *Stream, reason int) {
	dirtyAt := st.dirtyAt.Swap(0) // before the merge: later reports re-mark it
	prev := st.est.Load()
	forced := st.mustRefresh.Load()
	// Counts only grow, age-out (a rotation) forces a refresh, and a
	// restored sealed epoch's N is its histogram's total, so an equal N
	// means equal counts: nothing to merge.
	if n := st.ring.N(); n == 0 || (prev != nil && n == prev.Raw && !forced) {
		return
	}
	var n int
	st.scratch, n, _ = st.merge(nil, st.scratch)
	if forced && reason == refreshGrowth {
		reason = refreshForced
	}
	st.mustRefresh.Store(false)
	init := st.init
	if init == nil && prev != nil && len(prev.Distribution) > 0 {
		init = prev.Distribution // a snapshot-restored estimate
	}
	esp := r.opts.Tracer.NewTrace("em/refresh")
	esp.SetStream(st.name)
	esp.Attr("n", fmt.Sprintf("%d", n))
	start := time.Now()
	res := st.reconstruct(st.scratch, init)
	esp.Attr("iterations", fmt.Sprintf("%d", res.Iterations)).End()
	if h := st.m.refresh; h != nil {
		h.ObserveExemplar(time.Since(start).Seconds(), esp.TraceID())
	}
	if h := st.m.iters; h != nil {
		h.Observe(float64(res.Iterations))
	}
	if c := st.m.refreshes[reason]; c != nil {
		c.Inc()
	}
	now := time.Now()
	st.lastRefresh.Store(now.UnixNano())
	st.init = append(st.init[:0], res.Estimate...)
	est := st.publish(res, n, st.scratch, init != nil)
	st.est.Store(est)
	if dirtyAt != 0 {
		if h := r.freshness(st); h != nil {
			h.Observe(now.Sub(time.Unix(0, dirtyAt)).Seconds())
		}
	}
	st.diag.ObserveRefresh(diagnose.Refresh{
		Iterations:    res.Iterations,
		LogLikelihood: res.LogLikelihood,
		LastDelta:     res.LastDelta,
		Converged:     res.Converged,
		Warm:          est.WarmStart,
		Users:         est.N,
	})
}

// scoreSealedEpoch feeds the drift tracker the estimate of the sealed
// epoch idx a rotation just sealed, warm from the previous sealed estimate
// or the stream's warm start. Busy held.
func (st *Stream) scoreSealedEpoch(idx int) {
	sealed := window.Range{Lo: idx, Hi: idx}
	var n int
	var err error
	st.driftScratch, n, err = st.merge(&sealed, st.driftScratch)
	if err != nil || n == 0 {
		return // rotated straight out of retention, or empty
	}
	init := st.diag.LastEpochEstimate()
	if len(init) == 0 {
		init = st.init
	}
	if len(init) == 0 {
		init = nil
	}
	res := st.reconstruct(st.driftScratch, init)
	raised := st.diag.ObserveEpoch(sealed.Lo, res.Estimate)
	if c := st.m.driftAlerts; raised && c != nil {
		c.Inc()
	}
}

// refreshWindows re-reconstructs every requested window whose count moved
// (a fully-sealed one therefore once), skipping parked ones. A window that
// holds every report the ring holds publishes the full-range estimate
// instead of reconstructing the same counts again.
func (r *Registry) refreshWindows(st *Stream) {
	for _, wc := range st.windowCaches() {
		select {
		case <-r.done:
			return
		default:
		}
		if wc.parked.Load() {
			continue
		}
		n, err := st.ring.RangeN(wc.rng)
		if err != nil {
			continue // aged out under us; the next rotation evicts it
		}
		prev := wc.est.Load()
		if n == 0 || (prev != nil && n == prev.Raw) {
			continue
		}
		r.refreshFull(st, refreshGrowth)
		// Counts only grow between rotations, so a window count read before
		// the ring's, equal to it and to the published full range's, means
		// the window's counts are the ones that estimate reconstructed.
		if full := st.est.Load(); full != nil && full.Raw == n && st.ring.N() == n {
			wc.init = append(wc.init[:0], full.Distribution...)
			wc.est.Store(full)
			continue
		}
		st.winScratch, n, err = st.merge(&wc.rng, st.winScratch)
		if err != nil || n == 0 {
			continue
		}
		init := wc.init
		if init == nil {
			if prev != nil && len(prev.Distribution) > 0 {
				init = prev.Distribution // a snapshot-restored cache
			} else if nb := st.neighborInit(wc.rng); nb != nil {
				init = nb
			} else if full := st.est.Load(); full != nil && len(full.Distribution) > 0 {
				init = full.Distribution // the stream's full-range estimate
			}
		}
		res := st.reconstruct(st.winScratch, init)
		wc.init = append(wc.init[:0], res.Estimate...)
		wc.est.Store(st.publish(res, n, st.winScratch, init != nil))
	}
}

// WindowEstimate returns a range's published estimate (nil while pending),
// registering the range with the refresh engine on first use and unparking
// it: it is a read's.
func (st *Stream) WindowEstimate(g window.Range) *Estimate {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	wc, ok := st.wins[g]
	if !ok {
		wc = &windowCache{rng: g}
		st.wins[g] = wc
	}
	wc.parked.Store(false)
	return wc.est.Load()
}

// sealWindows runs at each rotation: it drops cache entries whose range fell
// out of retention and parks the published ones the ring has sealed. A
// last:K reader resolves to a new range after a rotation, so the one it
// read before gets no reconstruction nobody asks for.
func (st *Stream) sealWindows() {
	oldest := st.ring.Oldest()
	cur, _ := st.ring.Current()
	st.winMu.Lock()
	defer st.winMu.Unlock()
	for g, wc := range st.wins {
		switch {
		case g.Lo < oldest:
			delete(st.wins, g)
		case g.Hi < cur && wc.est.Load() != nil:
			wc.parked.Store(true)
		}
	}
}

// windowCaches lists the caches in (Lo, Hi) order; nil, unallocated, if none.
func (st *Stream) windowCaches() []*windowCache {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	if len(st.wins) == 0 {
		return nil
	}
	out := make([]*windowCache, 0, len(st.wins))
	for _, wc := range st.wins {
		out = append(out, wc)
	}
	slices.SortFunc(out, func(a, b *windowCache) int {
		if a.rng.Lo != b.rng.Lo {
			return a.rng.Lo - b.rng.Lo
		}
		return a.rng.Hi - b.rng.Hi
	})
	return out
}

// neighborInit returns the estimate of the window one epoch back — after a
// rotation, last:K's natural warm start.
func (st *Stream) neighborInit(g window.Range) []float64 {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	if prev, ok := st.wins[window.Range{Lo: g.Lo - 1, Hi: g.Hi - 1}]; ok {
		if est := prev.est.Load(); est != nil {
			return est.Distribution
		}
	}
	return nil
}
