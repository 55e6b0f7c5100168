package ldphttp

// Durability: SaveSnapshot/LoadSnapshot persist every stream's report
// histogram and cached reconstruction through package snapshot, so a
// restarted collector resumes exactly where the previous process stopped —
// the restored estimate is served immediately (bit-identical: JSON float64
// encoding round-trips exactly) and the engine warm-starts from it when new
// reports arrive. Windowed streams additionally persist their rotation
// clock, sealed epochs and cached window estimates, so a restart resumes
// mid-epoch and serves bit-identical window estimates. Payload version 3
// carries each stream's mechanism identifier and the raw increment totals
// its cached estimates cover; version ≤ 2 files still load, their streams
// defaulting to the "sw" mechanism (the only one those versions could have
// written). Version-1 snapshots additionally carry no window state, and a
// v1 record restoring into a stream that was declared windowed lands in the
// live epoch — the old history behaves as a single epoch that seals whole
// at the next rotation.

import (
	"fmt"
	"time"

	"repro/internal/histogram"
	"repro/internal/snapshot"
	"repro/internal/window"
)

// SaveSnapshot atomically writes the state of every stream to path. Safe to
// call concurrently with ingestion and estimation: each stream's histogram
// is captured with a non-blocking consistent snapshot, and concurrent saves
// are serialized. Federation cursors (payload version 4) are captured under
// the same lock that serializes push application, so the persisted peer
// watermarks and histograms always agree — a restored root skips exactly
// the replays whose increments its histograms already contain.
func (s *Server) SaveSnapshot(path string) error {
	sp := s.tracer.NewTrace("snapshot/save")
	start := time.Now()
	err := s.saveSnapshot(path)
	s.observeSnapshot("save", start, err)
	if err != nil {
		sp.Fail("save_failed")
	}
	sp.End()
	return err
}

func (s *Server) saveSnapshot(path string) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// fedMu covers only the in-memory capture: holding it across the file
	// write would stall every incoming federation push on disk I/O. snapMu
	// alone serializes concurrent saves.
	s.fedMu.Lock()
	list := s.streamList()
	records := make([]snapshot.Stream, 0, len(list))
	for _, st := range list {
		rec := st.record()
		state := rec.Capture(st.ring)
		if rec.Window != nil {
			rec.Window.Estimates = windowEstimates(st, state)
		}
		if est := st.est.Load(); est != nil {
			rec.Estimate = est.Distribution
			rec.EstimateN = est.N
			rec.EstimateRaw = est.raw
		}
		records = append(records, rec)
	}
	fed := s.federationRecordLocked()
	s.fedMu.Unlock()
	return snapshot.SaveFile(path, &snapshot.File{Streams: records, Federation: fed})
}

// record is the stream's declaration as a snapshot record, histogram not
// yet captured; restores compare records against it.
func (st *stream) record() snapshot.Stream {
	return snapshot.Stream{
		Name:      st.name,
		Epsilon:   st.cfg.Epsilon,
		Buckets:   st.cfg.Buckets,
		Mechanism: st.cfg.Mechanism,
		Bandwidth: st.cfg.Bandwidth,
		Shards:    st.cfg.Shards,
	}
}

// windowEstimates collects the stream's cached window estimates whose range
// is still resolvable against the captured ring state — a cache can briefly
// outlive its epochs between a rotation and the next eviction.
func windowEstimates(st *stream, state window.State) []snapshot.WindowEstimate {
	oldest := state.Current
	if len(state.Sealed) > 0 {
		oldest = state.Sealed[0].Index
	}
	var out []snapshot.WindowEstimate
	for _, wc := range st.windowCaches() {
		est := wc.est.Load()
		if est == nil || wc.rng.Hi > state.Current || wc.rng.Lo < oldest {
			continue
		}
		out = append(out, snapshot.WindowEstimate{
			Lo: wc.rng.Lo, Hi: wc.rng.Hi, N: est.N, Raw: est.raw, Estimate: est.Distribution,
		})
	}
	return out
}

// LoadSnapshot restores streams from a snapshot file. Streams that do not
// exist are created with their persisted configuration (including epoch
// rotation state); the persisted histogram of a stream that already exists
// (e.g. the default stream on a fresh boot) is merged into it, provided the
// mechanism parameters match. A windowed record restoring into a live
// windowed stream requires matching epoch/retain and a stream that has not
// rotated yet (the boot-time shape: declare flags, then restore); a v1
// record restoring into a windowed stream merges into the live epoch. A
// persisted cached estimate is installed when the live stream had no
// reports before the merge, so GET .../estimate — and any persisted window
// estimate — serves instantly and bit-identically after a restart. Corrupt,
// truncated, or incompatible files return an error and change nothing: the
// whole restore — validation of every record, construction of every missing
// stream, then the merge — happens atomically under the registry lock, so
// neither a concurrent stream declaration nor an engine rotation (which
// takes the registry read-lock) can slip between validation and apply, and
// no error path leaves a partial merge behind.
func (s *Server) LoadSnapshot(path string) error {
	sp := s.tracer.NewTrace("snapshot/load")
	start := time.Now()
	err := s.loadSnapshot(path)
	s.observeSnapshot("load", start, err)
	if err != nil {
		sp.Fail("load_failed")
	}
	sp.End()
	if err == nil {
		// Restore completed: a server started with Ops.AwaitRestore is now
		// safe to serve from (readiness probe flips to 200).
		s.MarkReady()
	}
	return err
}

func (s *Server) loadSnapshot(path string) error {
	file, err := snapshot.LoadFile(path)
	if err != nil {
		return err
	}
	records := file.Streams
	// Lock order: fedMu before the registry lock, matching the push path —
	// the restore must exclude concurrent pushes, or a push applied between
	// the histogram merge and the peer-cursor install would be forgotten.
	s.fedMu.Lock()
	defer s.fedMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Phase 1 — validate every record and build (but do not register) the
	// streams that are missing. Nothing live is mutated until every record
	// has a proven-compatible destination.
	targets := make([]*stream, len(records))
	fresh := make([]bool, len(records))
	for i, rec := range records {
		st, ok := s.streams[rec.Name]
		if !ok {
			cfg := StreamConfig{
				Epsilon:   rec.Epsilon,
				Buckets:   rec.Buckets,
				Mechanism: rec.MechanismName(),
				Bandwidth: rec.Bandwidth,
				Shards:    rec.Shards,
			}
			if rec.Window != nil {
				cfg.Epoch = Duration(rec.Window.EpochNanos)
				cfg.Retain = rec.Window.Retain
			}
			cfg, err := s.fillStreamDefaults(cfg)
			if err != nil {
				return fmt.Errorf("ldphttp: restore stream %q: %w", rec.Name, err)
			}
			st = s.newStream(rec.Name, cfg)
			fresh[i] = true
		}
		if err := rec.CheckRestore(st.record(), st.ring); err != nil {
			return fmt.Errorf("ldphttp: restore: %w", err)
		}
		targets[i] = st
	}
	// The edge push cursor restores between validation and the merges: its
	// one failure mode — a tracker that already acked pushes this process
	// made, state the snapshot cannot know about — must abort the load
	// while nothing has merged yet, or a retry would double-merge. The
	// cursor installed here agrees with the histograms only once phase 2
	// lands, which it now cannot fail to do.
	if err := s.restorePushCursorLocked(file.Federation); err != nil {
		return fmt.Errorf("ldphttp: restore federation state: %w", err)
	}
	// Phase 2 — register and merge; no failure paths remain: the engine
	// rotates rings only under the registry read-lock, which this restore
	// holds exclusively, so a ring validated as adoptable in phase 1 is
	// still adoptable here.
	for i, rec := range records {
		st := targets[i]
		wasEmpty := st.ring.N() == 0
		if fresh[i] {
			s.streams[st.name] = st
			s.order = append(s.order, st)
		}
		if err := rec.Restore(st.ring); err != nil {
			return fmt.Errorf("ldphttp: restore stream %q: %w", rec.Name, err)
		}
		if wasEmpty && len(rec.Estimate) > 0 {
			dist := append([]float64(nil), rec.Estimate...)
			raw := rec.EstimateRaw
			if raw == 0 {
				raw = rec.EstimateN // version ≤ 2, or a non-fan-out stream
			}
			st.est.Store(&EstimateResponse{
				Stream:       st.name,
				N:            rec.EstimateN,
				Epsilon:      st.cfg.Epsilon,
				Mechanism:    st.cfg.Mechanism,
				Distribution: dist,
				Mean:         histogram.Mean(dist),
				Variance:     histogram.Variance(dist),
				Median:       histogram.Quantile(dist, 0.5),
				Converged:    true,
				WarmStart:    true,
				Restored:     true,
				raw:          raw,
			})
			st.published.Store(int64(raw))
		}
		if rec.Window != nil && wasEmpty {
			st.restoreWindowEstimates(s, rec.Window.Estimates)
		}
	}
	// Phase 3 — root-side peer cursors (validated in LoadFile, install
	// cannot fail).
	s.restorePeersLocked(file.Federation)
	s.wake() // re-estimate any stream whose counts moved past its estimate
	return nil
}

// restoreWindowEstimates installs persisted window reconstructions into the
// stream's cache, so window queries after a restart serve bit-identically
// without recomputation (fully-sealed ranges never recompute at all).
func (st *stream) restoreWindowEstimates(s *Server, ests []snapshot.WindowEstimate) {
	st.winMu.Lock()
	defer st.winMu.Unlock()
	for _, we := range ests {
		g := window.Range{Lo: we.Lo, Hi: we.Hi}
		wc := &windowCache{rng: g}
		dist := append([]float64(nil), we.Estimate...)
		wc.init = append([]float64(nil), dist...)
		raw := we.Raw
		if raw == 0 {
			raw = we.N
		}
		resp := s.windowEstimateResponse(st, g, we.N, dist, 0, true, true, true)
		resp.raw = raw
		wc.est.Store(resp)
		wc.published.Store(int64(raw))
		st.wins[g] = wc
	}
}
