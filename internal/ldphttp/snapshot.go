package ldphttp

// Durability: SaveSnapshot/LoadSnapshot persist every stream through the
// engine's capture and restore (package engine) into package
// snapshot's file format, so a restarted collector resumes where the last
// one stopped: restored estimates — window estimates and the rotation clock
// of windowed streams included — serve immediately and bit-identically, and
// the engine warm-starts from them. Older payload versions still load (see
// snapshot.Version); a record without window state merges into the live
// epoch of a windowed stream.

import (
	"fmt"
	"time"

	"repro/internal/snapshot"
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
	records := s.reg.Capture()
	fed := s.federationRecordLocked()
	s.fedMu.Unlock()
	return snapshot.SaveFile(path, &snapshot.File{Streams: records, Federation: fed})
}

// LoadSnapshot restores streams from a snapshot file: missing streams are
// created with their persisted configuration and rotation state, and a
// record merges into an existing stream (e.g. the default stream on a fresh
// boot) by the engine's restore rule — a windowed record only into a stream
// that has not rotated yet (the boot-time shape: declare flags, then
// restore). A stream that had no reports takes the persisted estimates.
// The root side's peer cursors are installed, and the edge push cursor is
// kept for EnablePush to adopt. Corrupt, truncated, or incompatible files
// return an error and change nothing: validation, construction and merge
// run under one hold of the registry lock, so no declaration or rotation
// slips in between and no error path leaves a partial merge behind. Once
// EnablePush has run, LoadSnapshot refuses and changes nothing: the running
// pusher's cursor counts pushes this process made, which no snapshot knows.
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
	// Lock order: fedMu before the registry lock, matching the push path —
	// the restore must exclude concurrent pushes, or a push applied between
	// the histogram merge and the peer-cursor install would be forgotten.
	s.fedMu.Lock()
	defer s.fedMu.Unlock()
	if s.pusher != nil {
		return fmt.Errorf("ldphttp: cannot load a snapshot once push is enabled")
	}
	// The engine validates, builds and merges, then queues the refresh of
	// every restored stream, re-estimating any whose counts moved past its
	// estimate.
	if err := s.reg.Restore(file.Streams); err != nil {
		return fmt.Errorf("ldphttp: %w", err)
	}
	// Both cursors were validated in LoadFile; installing them cannot fail.
	if fed := file.Federation; fed != nil {
		if fed.Push != nil {
			cs := *fed.Push
			s.restoredCursor = &cs
		}
		s.restorePeersLocked(fed)
	}
	return nil
}
