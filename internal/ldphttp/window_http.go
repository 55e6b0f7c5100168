package ldphttp

// Windowed (epoch-rotated) collection: streams declared with an epoch
// duration rotate their live histogram into sealed epochs (package window)
// and serve sliding-window estimates for any retained contiguous epoch
// range. The request path never runs EM: the first request for a window
// registers the resolved range in the stream's window cache and answers 503
// (with Retry-After), the background engine reconstructs it — warm-started
// from that window's previous estimate when there is one, from the
// neighboring shifted-by-one-epoch window after a rotation, or from the
// stream's full-range estimate — and subsequent requests serve the cache.
// Fully-sealed ranges are immutable, so their cached estimates never
// recompute and restore bit-identically from snapshots.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/histogram"
	"repro/internal/window"
)

// Duration is a time.Duration that marshals as a human-readable Go duration
// string ("1m30s") in JSON and unmarshals from either that syntax or integer
// nanoseconds, so curl users write {"epoch": "1m"} instead of 60000000000.
type Duration time.Duration

// MarshalJSON renders the Go duration syntax.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1m30s" or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("ldphttp: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err == nil {
		*d = Duration(n)
		return nil
	}
	return fmt.Errorf("ldphttp: bad duration %s (want a Go duration string or nanoseconds)", b)
}

// EpochRange is the resolved inclusive epoch range of a window answer.
type EpochRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// WindowInfo is the windowing block of a GET /streams row.
type WindowInfo struct {
	// Epoch is the rotation period; Retain the sealed-epoch retention.
	Epoch  Duration `json:"epoch"`
	Retain int      `json:"retain"`
	// CurrentEpoch is the live epoch's index; OldestEpoch the lowest index
	// still addressable; SealedEpochs how many sealed epochs are retained.
	CurrentEpoch int `json:"current_epoch"`
	OldestEpoch  int `json:"oldest_epoch"`
	SealedEpochs int `json:"sealed_epochs"`
	// LiveN is the report count of the live epoch alone.
	LiveN int `json:"live_n"`
}

// windowCache is one cached sliding-window reconstruction. The engine owns
// init and all stores; requests only Load.
type windowCache struct {
	rng       window.Range
	est       atomic.Pointer[EstimateResponse]
	published atomic.Int64 // reports covered by est
	init      []float64    // engine-owned warm-start vector
}

// windowCacheFor returns the stream's cache entry for a resolved range,
// creating (and thereby requesting) it if needed.
func (st *stream) windowCacheFor(g window.Range) *windowCache {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	wc, ok := st.wins[g]
	if !ok {
		wc = &windowCache{rng: g}
		st.wins[g] = wc
	}
	return wc
}

// evictAgedWindows drops cache entries whose range fell out of retention.
func (st *stream) evictAgedWindows() {
	oldest := st.ring.Oldest()
	st.winMu.Lock()
	defer st.winMu.Unlock()
	for g := range st.wins {
		if g.Lo < oldest {
			delete(st.wins, g)
		}
	}
}

// windowCaches snapshots the cache entries in deterministic (Lo, Hi) order,
// nil when there are none (every plain stream), without allocating.
func (st *stream) windowCaches() []*windowCache {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	if len(st.wins) == 0 {
		return nil
	}
	out := make([]*windowCache, 0, len(st.wins))
	for _, wc := range st.wins {
		out = append(out, wc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rng.Lo != out[j].rng.Lo {
			return out[i].rng.Lo < out[j].rng.Lo
		}
		return out[i].rng.Hi < out[j].rng.Hi
	})
	return out
}

// neighborInit finds the warm-start vector of the shifted-by-one-epoch
// window — after a rotation, last:K resolves one epoch later, and the
// previous window's estimate is the natural warm start for the new one.
func (st *stream) neighborInit(g window.Range) []float64 {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	if prev, ok := st.wins[window.Range{Lo: g.Lo - 1, Hi: g.Hi - 1}]; ok {
		if est := prev.est.Load(); est != nil {
			return est.Distribution
		}
	}
	return nil
}

// refreshWindows re-estimates every stale requested window of one stream
// (plain streams never have any). Refresh workers only, under the stream's busy flag. Fully-sealed
// ranges compute once and are then skipped forever (published matches and
// sealed counts are frozen); live-inclusive ranges recompute whenever their
// report count moves.
func (s *Server) refreshWindows(st *stream) {
	for _, wc := range st.windowCaches() {
		select {
		case <-s.done:
			return
		default:
		}
		n, err := st.ring.RangeN(wc.rng)
		if err != nil {
			continue // aged out under us; eviction removes it on the next rotation
		}
		if n == 0 || int64(n) == wc.published.Load() {
			continue
		}
		st.winScratch, n, err = st.ring.Merge(wc.rng, st.winScratch)
		if err != nil || n == 0 {
			continue
		}
		init := wc.init
		if init == nil {
			if prev := wc.est.Load(); prev != nil && len(prev.Distribution) > 0 {
				init = prev.Distribution // snapshot-restored cache
			} else if nb := st.neighborInit(wc.rng); nb != nil {
				init = nb
			} else if prev := st.est.Load(); prev != nil && len(prev.Distribution) > 0 {
				init = prev.Distribution // the stream's full-range estimate
			}
		}
		res := st.agg.EstimateInto(&st.ws, st.winScratch, init)
		wc.init = append(wc.init[:0], res.Estimate...)
		users := st.agg.Users(st.winScratch, n)
		warm := init != nil && st.agg.Channel() != nil
		// res.Estimate aliases the stream's workspace; publish a copy.
		dist := append([]float64(nil), res.Estimate...)
		resp := s.windowEstimateResponse(st, wc.rng, users, dist, res.Iterations, res.Converged, warm, false)
		resp.raw = n
		wc.est.Store(resp)
		wc.published.Store(int64(n))
	}
}

// windowEstimateResponse assembles the served shape of a window estimate.
func (s *Server) windowEstimateResponse(st *stream, g window.Range, n int, dist []float64, iters int, converged, warm, restored bool) *EstimateResponse {
	return &EstimateResponse{
		Stream:       st.name,
		N:            n,
		Epsilon:      st.cfg.Epsilon,
		Mechanism:    st.cfg.Mechanism,
		Distribution: dist,
		Mean:         histogram.Mean(dist),
		Variance:     histogram.Variance(dist),
		Median:       histogram.Quantile(dist, 0.5),
		Iterations:   iters,
		Converged:    converged,
		WarmStart:    warm,
		Restored:     restored,
		Window:       g.String(),
		Epochs:       &EpochRange{Lo: g.Lo, Hi: g.Hi},
	}
}

// loadWindowEstimate is the window-selector counterpart of loadEstimate: it
// resolves the selector against the stream's ring, registers the range in
// the window cache, and serves the cached reconstruction — 400 for
// non-windowed streams and malformed selectors, 410 for ranges that aged out
// of retention, 409 for windows with no reports, 503 (with Retry-After)
// while the engine computes the first estimate for the range.
func (s *Server) loadWindowEstimate(w http.ResponseWriter, st *stream, rawSel string) (*EstimateResponse, int, bool) {
	if !st.cfg.windowed() {
		errorJSON(w, http.StatusBadRequest, CodeNotWindowed,
			"stream %q is not windowed; declare it with an epoch to enable window queries", st.name)
		return nil, 0, false
	}
	sel, err := window.ParseSelector(rawSel)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return nil, 0, false
	}
	g, err := st.ring.Resolve(sel)
	if err != nil {
		status, code := http.StatusBadRequest, CodeBadRequest
		if window.IsAgedOut(err) {
			status, code = http.StatusGone, CodeWindowAgedOut
		}
		errorJSON(w, status, code, "%v", err)
		return nil, 0, false
	}
	n, err := st.ring.RangeN(g)
	if err != nil { // the range aged out between Resolve and RangeN
		errorJSON(w, http.StatusGone, CodeWindowAgedOut, "%v", err)
		return nil, 0, false
	}
	if n == 0 {
		errorJSON(w, http.StatusConflict, CodeNoReports, "no reports in window %s on stream %q", g, st.name)
		return nil, 0, false
	}
	wc := st.windowCacheFor(g)
	cached := wc.est.Load()
	if cached == nil {
		s.wake()
		retryJSON(w, http.StatusServiceUnavailable, CodeEstimatePending, time.Second,
			map[string]any{"stream": st.name, "window": g.String(), "pending_reports": n},
			"window estimate pending: reconstruction in progress")
		return nil, 0, false
	}
	// Staleness is tracked in raw histogram increments, not the user count
	// the cached response carries.
	pub := int(wc.published.Load())
	if n != pub {
		s.wake() // refresh in the background; serve the cache now
	}
	pending := n - pub
	if pending < 0 {
		pending = 0
	}
	return cached, pending, true
}

// loadEstimateOrWindow dispatches between the whole-stream cache and the
// window cache on the presence of a window selector.
func (s *Server) loadEstimateOrWindow(w http.ResponseWriter, st *stream, rawSel string) (*EstimateResponse, int, bool) {
	if rawSel == "" {
		return s.loadEstimate(w, st)
	}
	return s.loadWindowEstimate(w, st, rawSel)
}

// handleStreamItem serves /streams/{name}: DELETE retires a stream.
func (s *Server) handleStreamItem(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		methodNotAllowed(w, r, http.MethodDelete)
		return
	}
	name := r.URL.Path[len("/streams/"):]
	if name == "" {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "missing stream name (DELETE /streams/{name})")
		return
	}
	s.serveStreamDelete(w, name)
}
