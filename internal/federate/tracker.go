package federate

// Edge-side delta cursor: the Tracker remembers, per stream and epoch, the
// per-bucket counts the root has durably acknowledged, computes the next
// delta as "current histogram minus acked basis", and freezes it into an
// immutable pending payload that is retried until acknowledged. All the
// arithmetic is on snapshots the caller provides, so the Tracker never
// touches live histograms and has no lock-ordering relationship with the
// collector's ingestion path.

import (
	"fmt"
	"sort"
	"sync"
)

// EpochCounts is one epoch's dense histogram as the Tracker consumes and
// persists it.
type EpochCounts struct {
	Epoch int `json:"epoch"`
	// Counts may be nil (an epoch that exists but has no reports).
	Counts []uint64 `json:"counts,omitempty"`
}

// StreamState is one stream's current histogram state, as gathered by the
// collector for delta computation: every retained epoch plus the live one.
// Plain (non-windowed) streams present a single epoch 0 that never rotates.
type StreamState struct {
	Name        string
	Fingerprint Fingerprint
	Epochs      []EpochCounts
}

// Pending is a frozen, in-flight push: the exact bytes to (re)transmit. It
// is immutable once built — retries and crash-restore replays send the same
// payload, which is what makes the root's CRC-checked duplicate detection
// exact.
type Pending struct {
	Seq int64 `json:"seq"`
	// CRC is the payload checksum inside Body, kept alongside so the
	// pusher can compare against a duplicate ack without re-decoding.
	CRC  string `json:"payload_crc32"`
	Body []byte `json:"body"`
}

// CursorState is the Tracker's persistent form, carried in snapshot payloads
// (version ≥ 4) so a restarted edge resumes its push stream without double
// counting.
type CursorState struct {
	// Seq is the last acknowledged push sequence.
	Seq int64 `json:"seq"`
	// Streams holds the acked basis per stream, epochs ascending.
	Streams []CursorStream `json:"streams,omitempty"`
	// Pending is the frozen in-flight payload, if one was built but not
	// yet acknowledged.
	Pending *Pending `json:"pending,omitempty"`
}

// CursorStream is the acked basis of one stream.
type CursorStream struct {
	Stream string        `json:"stream"`
	Epochs []EpochCounts `json:"epochs,omitempty"`
}

// Tracker is the edge-side cursor. All methods are safe for concurrent use.
type Tracker struct {
	mu      sync.Mutex
	seq     int64 // last acked push sequence
	streams map[string]map[int][]uint64
	pending *Pending
}

// NewTracker returns an empty cursor: nothing acked, nothing in flight.
func NewTracker() *Tracker {
	return &Tracker{streams: make(map[string]map[int][]uint64)}
}

// AckedSeq returns the last acknowledged push sequence.
func (t *Tracker) AckedSeq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Pending returns the frozen in-flight payload, or nil.
func (t *Tracker) Pending() *Pending {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}

// fresh reports whether the tracker has never folded an acknowledgment —
// the state of a brand-new edge (or one restarted without a snapshot).
func (t *Tracker) fresh() bool {
	return t.seq == 0 && len(t.streams) == 0
}

// Prepare returns the payload to transmit: the existing pending push if one
// is in flight, whatever codec it was frozen in, otherwise a freshly frozen
// LDPB frame (EncodePushBinary) of states' delta against the acked basis
// (seq = acked+1). It returns nil when there is nothing to ship. As a side
// effect it prunes acked state for epochs that aged out of states and for
// streams no longer present — their deltas can never be shipped again.
func (t *Tracker) Prepare(edge string, states []StreamState) (*Pending, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending != nil {
		return t.pending, nil
	}
	t.pruneLocked(states)
	var deltas []StreamDelta
	for _, st := range states {
		acked := t.streams[st.Name]
		sd := StreamDelta{Stream: st.Name, Fingerprint: st.Fingerprint}
		for _, ep := range st.Epochs {
			inc := incrementsSince(ep.Counts, acked[ep.Epoch])
			if inc == nil {
				continue
			}
			if d, ok := NewEpochDelta(ep.Epoch, inc); ok {
				sd.Epochs = append(sd.Epochs, d)
			}
		}
		if len(sd.Epochs) > 0 {
			sort.Slice(sd.Epochs, func(i, j int) bool { return sd.Epochs[i].Epoch < sd.Epochs[j].Epoch })
			deltas = append(deltas, sd)
		}
	}
	if len(deltas) == 0 {
		return nil, nil
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Stream < deltas[j].Stream })
	body, err := EncodePushBinary(edge, t.seq+1, deltas)
	if err != nil {
		return nil, err
	}
	t.pending = &Pending{Seq: t.seq + 1, CRC: fmt.Sprintf("%08x", frameCRC(body)), Body: body}
	return t.pending, nil
}

// incrementsSince computes cur − acked per bucket, nil when nothing grew.
// A bucket that shrank (a stream dropped and re-declared under the same
// name) clamps to zero: conservatively never re-ship counts the root may
// already hold.
func incrementsSince(cur, acked []uint64) []uint64 {
	if cur == nil {
		return nil
	}
	var out []uint64
	for b, c := range cur {
		var base uint64
		if b < len(acked) {
			base = acked[b]
		}
		if c > base {
			if out == nil {
				out = make([]uint64, len(cur))
			}
			out[b] = c - base
		}
	}
	return out
}

// pruneLocked drops acked state that can never be shipped against again:
// streams absent from states, and epochs below each stream's oldest
// presented epoch.
func (t *Tracker) pruneLocked(states []StreamState) {
	live := make(map[string]int, len(states)) // stream → oldest epoch presented
	for _, st := range states {
		oldest := 0
		for i, ep := range st.Epochs {
			if i == 0 || ep.Epoch < oldest {
				oldest = ep.Epoch
			}
		}
		live[st.Name] = oldest
	}
	for name, acked := range t.streams {
		oldest, ok := live[name]
		if !ok {
			delete(t.streams, name)
			continue
		}
		for epoch := range acked {
			if epoch < oldest {
				delete(acked, epoch)
			}
		}
	}
}

// Ack folds the pending push into the acked basis: the root has durably
// applied (or provably already held) payload seq. The seq must match the
// pending one.
func (t *Tracker) Ack(seq int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending == nil {
		return fmt.Errorf("federate: ack %d with no pending push", seq)
	}
	if t.pending.Seq != seq {
		return fmt.Errorf("federate: ack %d does not match pending push %d", seq, t.pending.Seq)
	}
	push, err := DecodePushAuto(t.pending.Body)
	if err != nil {
		return fmt.Errorf("federate: pending push unreadable at ack: %w", err)
	}
	for _, sd := range push.Streams {
		acked := t.streams[sd.Stream]
		if acked == nil {
			acked = make(map[int][]uint64)
			t.streams[sd.Stream] = acked
		}
		for _, d := range sd.Epochs {
			// Pending payloads are built by this tracker (or restored from
			// its own snapshot), so Dense cannot fail against the width the
			// delta itself carries. The acked basis grows to the delta's
			// width when needed; a wider stale basis (a stream re-declared
			// narrower) is left alone — incrementsSince only ever reads up
			// to the current histogram's width.
			width := len(d.Counts)
			if width == 0 {
				for _, cell := range d.Cells {
					if w := int(cell[0]) + 1; w > width {
						width = w
					}
				}
			}
			inc, err := d.Dense(width)
			if err != nil {
				return fmt.Errorf("federate: pending epoch %d unreadable at ack: %w", d.Epoch, err)
			}
			base := acked[d.Epoch]
			if len(base) < width {
				grown := make([]uint64, width)
				copy(grown, base)
				base = grown
			}
			for b, c := range inc {
				base[b] += c
			}
			acked[d.Epoch] = base
		}
	}
	t.seq = seq
	t.pending = nil
	return nil
}

// Discard drops an unsent pending push. Safe only before the payload ever
// reached the root (e.g. the write-ahead persist failed): the next Prepare
// rebuilds a superset delta under a fresh attempt of the same sequence.
func (t *Tracker) Discard() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pending = nil
}

// AdoptSeq resynchronizes a fresh tracker (nothing ever acked) to the root's
// sequence high-water mark: a restarted-without-snapshot edge whose id the
// root already knows continues the sequence instead of colliding with it.
// The acked basis stays empty — the edge's histograms restarted from zero
// too, so shipping everything from scratch is exact. Calling it on a
// non-fresh tracker is an error.
func (t *Tracker) AdoptSeq(seq int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fresh() {
		return fmt.Errorf("federate: cannot adopt seq %d: tracker already acked seq %d", seq, t.seq)
	}
	if seq < 0 {
		return fmt.Errorf("federate: cannot adopt negative seq %d", seq)
	}
	t.seq = seq
	t.pending = nil
	return nil
}

// Reset clears the cursor entirely: the root reports no memory of this edge
// (its sequence high-water mark is zero — a fresh root, or one that lost its
// disk), so the next delta ships the edge's full history from basis zero.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq = 0
	t.streams = make(map[string]map[int][]uint64)
	t.pending = nil
}

// Fresh reports whether the tracker has never acked anything — the state in
// which AdoptSeq is legal.
func (t *Tracker) Fresh() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fresh()
}

// State captures the cursor for persistence: acked bases, sequence, and the
// frozen pending payload. The result shares no memory with the tracker.
func (t *Tracker) State() CursorState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := CursorState{Seq: t.seq}
	names := make([]string, 0, len(t.streams))
	for name := range t.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := CursorStream{Stream: name}
		epochs := make([]int, 0, len(t.streams[name]))
		for e := range t.streams[name] {
			epochs = append(epochs, e)
		}
		sort.Ints(epochs)
		for _, e := range epochs {
			cs.Epochs = append(cs.Epochs, EpochCounts{
				Epoch:  e,
				Counts: append([]uint64(nil), t.streams[name][e]...),
			})
		}
		out.Streams = append(out.Streams, cs)
	}
	if t.pending != nil {
		out.Pending = &Pending{
			Seq:  t.pending.Seq,
			CRC:  t.pending.CRC,
			Body: append([]byte(nil), t.pending.Body...),
		}
	}
	return out
}

// Restore installs a persisted cursor into an empty tracker (restart path).
// A tracker that already acked pushes refuses the restore — overwriting a
// live cursor would forget what the root holds.
func (t *Tracker) Restore(cs CursorState) error {
	if err := cs.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fresh() || t.pending != nil {
		return fmt.Errorf("federate: tracker already in use (acked seq %d); cannot restore a persisted cursor", t.seq)
	}
	t.seq = cs.Seq
	for _, cstream := range cs.Streams {
		acked := make(map[int][]uint64, len(cstream.Epochs))
		for _, ep := range cstream.Epochs {
			acked[ep.Epoch] = append([]uint64(nil), ep.Counts...)
		}
		t.streams[cstream.Stream] = acked
	}
	if cs.Pending != nil {
		t.pending = &Pending{
			Seq:  cs.Pending.Seq,
			CRC:  cs.Pending.CRC,
			Body: append([]byte(nil), cs.Pending.Body...),
		}
	}
	return nil
}

// Validate checks a persisted cursor before any field is trusted.
func (cs CursorState) Validate() error {
	if cs.Seq < 0 {
		return fmt.Errorf("federate: cursor seq %d is negative", cs.Seq)
	}
	seen := make(map[string]bool, len(cs.Streams))
	for _, cstream := range cs.Streams {
		if cstream.Stream == "" {
			return fmt.Errorf("federate: cursor carries a nameless stream")
		}
		if seen[cstream.Stream] {
			return fmt.Errorf("federate: cursor carries stream %q twice", cstream.Stream)
		}
		seen[cstream.Stream] = true
		prev := -1
		for _, ep := range cstream.Epochs {
			if ep.Epoch < 0 || ep.Epoch <= prev {
				return fmt.Errorf("federate: cursor stream %q epochs out of order at %d", cstream.Stream, ep.Epoch)
			}
			prev = ep.Epoch
		}
	}
	if p := cs.Pending; p != nil {
		if p.Seq != cs.Seq+1 {
			return fmt.Errorf("federate: cursor pending seq %d does not follow acked seq %d", p.Seq, cs.Seq)
		}
		push, err := DecodePushAuto(p.Body)
		if err != nil {
			return fmt.Errorf("federate: cursor pending payload: %w", err)
		}
		if push.Seq != p.Seq || push.CRC != p.CRC {
			return fmt.Errorf("federate: cursor pending payload disagrees with its envelope (seq %d/%d)",
				push.Seq, p.Seq)
		}
	}
	return nil
}
