package engine

// Persistence: the one capture and restore of both public surfaces, and
// the ring ↔ record conversion.

import (
	"fmt"
	"time"

	"repro/internal/snapshot"
	"repro/internal/window"
)

// Capture records every stream in declaration order — declaration,
// histogram (rotation clock and sealed epochs included), published estimate
// and resolvable window estimates — without blocking ingest.
func (r *Registry) Capture() []snapshot.Stream {
	list := r.List()
	out := make([]snapshot.Stream, 0, len(list))
	for _, st := range list {
		out = append(out, st.capture())
	}
	return out
}

func (st *Stream) capture() snapshot.Stream {
	rec := snapshot.Stream{
		Name:      st.name,
		Epsilon:   st.cfg.Epsilon,
		Buckets:   st.cfg.Buckets,
		Mechanism: st.cfg.Mechanism,
		Bandwidth: st.cfg.Bandwidth,
		Shards:    st.cfg.Shards,
	}
	state := st.ring.State()
	// Counts always holds the live epoch at full length; a plain record
	// keeps the shape every payload version has written (no Window).
	rec.Counts = state.Live
	if rec.Counts == nil {
		rec.Counts = make([]uint64, st.ring.Buckets())
	}
	if state.Epoch > 0 {
		rec.Window = &snapshot.Window{
			EpochNanos:     int64(state.Epoch),
			Retain:         state.Retain,
			Current:        state.Current,
			StartUnixNanos: state.Start.UnixNano(),
		}
		for _, ep := range state.Sealed {
			rec.Window.Sealed = append(rec.Window.Sealed,
				snapshot.SealedEpoch{Index: ep.Index, Counts: ep.Counts, N: uint64(ep.N)})
		}
		// A cache can briefly outlive its epochs between a rotation and
		// the next eviction; only resolvable ranges persist.
		oldest := state.Current
		if len(state.Sealed) > 0 {
			oldest = state.Sealed[0].Index
		}
		for _, wc := range st.windowCaches() {
			est := wc.est.Load()
			if est == nil || wc.rng.Hi > state.Current || wc.rng.Lo < oldest {
				continue
			}
			rec.Window.Estimates = append(rec.Window.Estimates, snapshot.WindowEstimate{
				Lo: wc.rng.Lo, Hi: wc.rng.Hi, N: est.N, Raw: est.Raw, Estimate: est.Distribution,
			})
		}
	}
	if est := st.est.Load(); est != nil {
		rec.Estimate = est.Distribution
		rec.EstimateN = est.N
		rec.EstimateRaw = est.Raw
	}
	return rec
}

// ringState converts a windowed record back into the ring state it was
// captured from.
func ringState(rec *snapshot.Stream) window.State {
	w := rec.Window
	state := window.State{
		Epoch:   time.Duration(w.EpochNanos),
		Retain:  w.Retain,
		Current: w.Current,
		Start:   time.Unix(0, w.StartUnixNanos),
		Live:    rec.Counts,
	}
	for _, ep := range w.Sealed {
		state.Sealed = append(state.Sealed, window.Epoch{Index: ep.Index, Counts: ep.Counts, N: int(ep.N)})
	}
	return state
}

// Restore restores records under one hold of the registry lock, so no
// declaration or rotation slips in between. It first validates every record,
// building (not registering) the missing streams: a record restores into a
// stream whose declaration the redeclare rule accepts, with the ring's
// granularity; a windowed record also needs an unrotated ring, a plain one
// merges into the live epoch. Only then does it register the built streams
// and merge every record — a windowed one adopts its clock and epochs — and
// a stream empty before the merge takes the record's estimates, serving
// bit-identically at once. On error nothing changed. It queues the refresh
// of every stream it restored into.
func (r *Registry) Restore(records []snapshot.Stream) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	targets := make([]*Stream, len(records))
	for i := range records {
		rec := &records[i]
		cfg := Config{
			Mechanism: rec.MechanismName(),
			Epsilon:   rec.Epsilon,
			Buckets:   rec.Buckets,
			Bandwidth: rec.Bandwidth,
			Shards:    rec.Shards,
		}
		if rec.Window != nil {
			cfg.Epoch = time.Duration(rec.Window.EpochNanos)
			cfg.Retain = rec.Window.Retain
		}
		cfg, err := cfg.Resolve()
		if err != nil {
			return fmt.Errorf("restore stream %q: %w", rec.Name, err)
		}
		st, ok := r.streams[rec.Name]
		if !ok {
			if !snapshot.ValidStreamName(rec.Name) {
				return fmt.Errorf("restore: %w", errInvalidName(rec.Name))
			}
			st = r.newStream(rec.Name, cfg)
		}
		if err := st.checkRestore(rec, cfg); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		targets[i] = st
	}
	for i := range records {
		rec, st := &records[i], targets[i]
		wasEmpty := st.ring.N() == 0
		if r.streams[st.name] == nil { // built above
			r.addLocked(st)
		}
		var err error
		if rec.Window != nil {
			err = st.ring.Adopt(ringState(rec))
		} else {
			err = st.ring.AddCounts(rec.Counts)
		}
		if err != nil { // validated above: cannot happen
			return fmt.Errorf("restore stream %q: %w", rec.Name, err)
		}
		if !wasEmpty {
			continue
		}
		if len(rec.Estimate) > 0 {
			raw := rec.EstimateRaw
			if raw == 0 {
				raw = rec.EstimateN // version ≤ 2, or a non-fan-out stream
			}
			st.est.Store(newEstimate(append([]float64(nil), rec.Estimate...), rec.EstimateN, raw, 0, true, true, true))
		}
		if rec.Window != nil {
			st.restoreWindowEstimates(rec.Window.Estimates)
		}
	}
	for _, st := range targets {
		st.Absorbed()
	}
	return nil
}

// checkRestore reports why a record declared as cfg cannot restore into st.
func (st *Stream) checkRestore(rec *snapshot.Stream, cfg Config) error {
	if rec.Window == nil {
		// Windowing is the ring's business below; a plain record merges
		// into the live epoch of either kind.
		cfg.Epoch, cfg.Retain = 0, 0
	}
	if err := redeclare(rec.Name, st.cfg, cfg); err != nil {
		return fmt.Errorf("snapshot record: %w", err)
	}
	if len(rec.Counts) != st.ring.Buckets() {
		return fmt.Errorf("snapshot stream %q has %d histogram buckets, the live stream has %d",
			rec.Name, len(rec.Counts), st.ring.Buckets())
	}
	if rec.Window == nil {
		return nil
	}
	return st.ring.CanAdopt(ringState(rec))
}

// restoreWindowEstimates installs persisted window estimates.
func (st *Stream) restoreWindowEstimates(ests []snapshot.WindowEstimate) {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	for _, we := range ests {
		g := window.Range{Lo: we.Lo, Hi: we.Hi}
		raw := we.Raw
		if raw == 0 {
			raw = we.N
		}
		dist := append([]float64(nil), we.Estimate...)
		wc := &windowCache{rng: g, init: append([]float64(nil), dist...)}
		wc.est.Store(newEstimate(dist, we.N, raw, 0, true, true, true))
		st.wins[g] = wc
	}
}
