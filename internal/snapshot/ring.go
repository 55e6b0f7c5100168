package snapshot

// Conversion between a stream's report histogram — a window.Ring, plain or
// rotating — and its persisted record. The HTTP collector and the library's
// Streams registry both save and restore through these methods, so the
// record shape, the compatibility rule and the restore itself are defined
// once; each caller keeps its own registry, locking and two-phase
// validate-then-merge.

import (
	"fmt"
	"time"

	"repro/internal/mechanism"
	"repro/internal/window"
)

// Capture fills the record's histogram from r and returns the ring state it
// read. Counts always holds the live epoch at full length (zeros when
// empty). A rotating ring also fills Window with its rotation clock and
// sealed epochs; a plain ring leaves Window nil, so a plain record keeps the
// shape every payload version has written.
func (s *Stream) Capture(r *window.Ring) window.State {
	st := r.State()
	s.Counts = st.Live
	if s.Counts == nil {
		s.Counts = make([]uint64, r.Buckets())
	}
	s.Window = nil
	if st.Epoch > 0 {
		s.Window = newWindow(st)
	}
	return st
}

// CheckRestore reports why the record cannot restore into a live stream
// declared as live (its Epsilon, Buckets, Mechanism and Bandwidth) whose
// histogram is r. It changes nothing. The rule: the same mechanism, ε and
// granularity; the same bandwidth once a declared 0 resolves to the optimum;
// a histogram of the ring's granularity; and a windowed record only into a
// ring that rotates on the same epoch and retention and has not rotated yet.
// A record without window state restores into the live epoch of any ring.
func (s *Stream) CheckRestore(live Stream, r *window.Ring) error {
	mech, liveMech := s.MechanismName(), live.MechanismName()
	if mech != liveMech {
		return fmt.Errorf("snapshot stream %q uses mechanism %q but the live stream uses %q",
			s.Name, mech, liveMech)
	}
	if s.Epsilon != live.Epsilon || s.Buckets != live.Buckets ||
		mechanism.EffectiveBandwidth(mech, s.Epsilon, s.Bandwidth) !=
			mechanism.EffectiveBandwidth(liveMech, live.Epsilon, live.Bandwidth) {
		return fmt.Errorf("snapshot stream %q has (ε=%v, buckets=%d, b=%v) but the live stream has (ε=%v, buckets=%d, b=%v)",
			s.Name, s.Epsilon, s.Buckets, s.Bandwidth, live.Epsilon, live.Buckets, live.Bandwidth)
	}
	if len(s.Counts) != r.Buckets() {
		return fmt.Errorf("snapshot stream %q has %d histogram buckets, the live stream has %d",
			s.Name, len(s.Counts), r.Buckets())
	}
	if s.Window == nil {
		return nil
	}
	cfg := r.Config()
	if cfg.Epoch == 0 {
		return fmt.Errorf("snapshot stream %q is windowed (epoch %v) but the live stream is not; declare it with an epoch before restoring",
			s.Name, time.Duration(s.Window.EpochNanos))
	}
	if int64(cfg.Epoch) != s.Window.EpochNanos || cfg.Retain != s.Window.Retain {
		return fmt.Errorf("snapshot stream %q rotates every %v retaining %d but the live stream rotates every %v retaining %d",
			s.Name, time.Duration(s.Window.EpochNanos), s.Window.Retain, cfg.Epoch, cfg.Retain)
	}
	return r.CanAdopt(s.Window.state(s.Counts))
}

// Restore applies a record CheckRestore accepted: a windowed record adopts
// its rotation clock, sealed epochs and live histogram; any other record
// adds its counts into the live epoch.
func (s *Stream) Restore(r *window.Ring) error {
	if s.Window != nil {
		return r.Adopt(s.Window.state(s.Counts))
	}
	return r.AddCounts(s.Counts)
}
