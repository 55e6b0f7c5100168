package federate

import (
	"testing"
)

func fp(mech string) Fingerprint {
	return Fingerprint{Mechanism: mech, Epsilon: 1, Buckets: 4, OutputBuckets: 4}
}

// state builds a single-stream, single-epoch StreamState.
func state(name string, epoch int, counts ...uint64) StreamState {
	return StreamState{Name: name, Fingerprint: fp("sw"),
		Epochs: []EpochCounts{{Epoch: epoch, Counts: counts}}}
}

func mustPrepare(t *testing.T, tr *Tracker, states ...StreamState) *Pending {
	t.Helper()
	p, err := tr.Prepare("edge", states)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		// The CRC and seq read off the fresh frame are the ones a
		// receiver decodes from it.
		push, err := DecodePushBinary(p.Body)
		if err != nil {
			t.Fatal(err)
		}
		if p.CRC != push.CRC || p.Seq != push.Seq {
			t.Fatalf("pending (seq %d, crc %s), frame decodes to (seq %d, crc %s)", p.Seq, p.CRC, push.Seq, push.CRC)
		}
	}
	return p
}

// deltaOf decodes a pending payload and returns the dense delta of one
// stream/epoch (nil if absent).
func deltaOf(t *testing.T, p *Pending, stream string, epoch, buckets int) []uint64 {
	t.Helper()
	push, err := DecodePushAuto(p.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range push.Streams {
		if sd.Stream != stream {
			continue
		}
		for _, d := range sd.Epochs {
			if d.Epoch == epoch {
				dense, err := d.Dense(buckets)
				if err != nil {
					t.Fatal(err)
				}
				return dense
			}
		}
	}
	return nil
}

func TestTrackerDeltaAckDelta(t *testing.T) {
	tr := NewTracker()
	if p := mustPrepare(t, tr, state("age", 0, 0, 0, 0, 0)); p != nil {
		t.Fatal("empty histogram produced a pending push")
	}

	p := mustPrepare(t, tr, state("age", 0, 3, 0, 1, 0))
	if p == nil || p.Seq != 1 {
		t.Fatalf("pending = %+v", p)
	}
	if d := deltaOf(t, p, "age", 0, 4); d[0] != 3 || d[2] != 1 {
		t.Fatalf("first delta %v", d)
	}
	if err := tr.Ack(1); err != nil {
		t.Fatal(err)
	}
	if tr.AckedSeq() != 1 || tr.Pending() != nil {
		t.Fatal("ack did not clear pending")
	}

	// Nothing new: no pending.
	if p := mustPrepare(t, tr, state("age", 0, 3, 0, 1, 0)); p != nil {
		t.Fatal("unchanged histogram produced a pending push")
	}

	// Growth ships only the increment.
	p = mustPrepare(t, tr, state("age", 0, 5, 2, 1, 0))
	if p.Seq != 2 {
		t.Fatalf("second pending seq %d", p.Seq)
	}
	if d := deltaOf(t, p, "age", 0, 4); d[0] != 2 || d[1] != 2 || d[2] != 0 {
		t.Fatalf("incremental delta %v", d)
	}
}

func TestTrackerPendingIsFrozen(t *testing.T) {
	tr := NewTracker()
	p1 := mustPrepare(t, tr, state("age", 0, 1, 0, 0, 0))
	// More reports arrive while the push is in flight: Prepare returns the
	// same frozen payload, byte for byte.
	p2 := mustPrepare(t, tr, state("age", 0, 9, 9, 9, 9))
	if p1.Seq != p2.Seq || string(p1.Body) != string(p2.Body) {
		t.Fatal("pending payload mutated while in flight")
	}
	if err := tr.Ack(p1.Seq); err != nil {
		t.Fatal(err)
	}
	// The increments that arrived in flight ship next.
	p3 := mustPrepare(t, tr, state("age", 0, 9, 9, 9, 9))
	if d := deltaOf(t, p3, "age", 0, 4); d[0] != 8 || d[1] != 9 {
		t.Fatalf("post-ack delta %v", d)
	}
}

func TestTrackerAckValidation(t *testing.T) {
	tr := NewTracker()
	if err := tr.Ack(1); err == nil {
		t.Fatal("ack with no pending accepted")
	}
	mustPrepare(t, tr, state("age", 0, 1, 0, 0, 0))
	if err := tr.Ack(9); err == nil {
		t.Fatal("mismatched ack accepted")
	}
}

func TestTrackerDiscardRebuildsSuperset(t *testing.T) {
	tr := NewTracker()
	p1 := mustPrepare(t, tr, state("age", 0, 1, 0, 0, 0))
	tr.Discard()
	p2 := mustPrepare(t, tr, state("age", 0, 2, 0, 0, 0))
	if p2.Seq != p1.Seq {
		t.Fatalf("discarded pending reused seq %d, rebuilt got %d", p1.Seq, p2.Seq)
	}
	if d := deltaOf(t, p2, "age", 0, 4); d[0] != 2 {
		t.Fatalf("rebuilt delta %v", d)
	}
}

func TestTrackerWindowedEpochsAndPrune(t *testing.T) {
	tr := NewTracker()
	st := StreamState{Name: "lat", Fingerprint: fp("sw"), Epochs: []EpochCounts{
		{Epoch: 0, Counts: []uint64{5, 0, 0, 0}},
		{Epoch: 1, Counts: []uint64{0, 2, 0, 0}},
	}}
	p := mustPrepare(t, tr, st)
	if d := deltaOf(t, p, "lat", 0, 4); d[0] != 5 {
		t.Fatalf("epoch 0 delta %v", d)
	}
	if d := deltaOf(t, p, "lat", 1, 4); d[1] != 2 {
		t.Fatalf("epoch 1 delta %v", d)
	}
	if err := tr.Ack(p.Seq); err != nil {
		t.Fatal(err)
	}

	// Epoch 0 ages out; epoch 1 is sealed frozen; epoch 2 is live.
	st = StreamState{Name: "lat", Fingerprint: fp("sw"), Epochs: []EpochCounts{
		{Epoch: 1, Counts: []uint64{0, 2, 0, 0}},
		{Epoch: 2, Counts: []uint64{0, 0, 7, 0}},
	}}
	p = mustPrepare(t, tr, st)
	if d := deltaOf(t, p, "lat", 1, 4); d != nil {
		t.Fatalf("frozen sealed epoch re-shipped: %v", d)
	}
	if d := deltaOf(t, p, "lat", 2, 4); d[2] != 7 {
		t.Fatalf("live epoch delta %v", d)
	}
	if err := tr.Ack(p.Seq); err != nil {
		t.Fatal(err)
	}
	// The acked basis for aged epoch 0 is pruned.
	cs := tr.State()
	for _, s := range cs.Streams {
		for _, ep := range s.Epochs {
			if ep.Epoch == 0 {
				t.Fatal("aged epoch 0 still in the cursor")
			}
		}
	}
}

func TestTrackerDroppedStreamClampsNotReships(t *testing.T) {
	tr := NewTracker()
	p := mustPrepare(t, tr, state("age", 0, 4, 0, 0, 0))
	if err := tr.Ack(p.Seq); err != nil {
		t.Fatal(err)
	}
	// The stream was dropped and re-declared: its histogram went backward.
	// The tracker must not ship negative or stale counts.
	if p := mustPrepare(t, tr, state("age", 0, 2, 0, 0, 0)); p != nil {
		t.Fatalf("shrunk histogram shipped %+v", p)
	}
	// Growth past the old basis ships only the excess (conservative).
	p = mustPrepare(t, tr, state("age", 0, 6, 0, 0, 0))
	if d := deltaOf(t, p, "age", 0, 4); d[0] != 2 {
		t.Fatalf("post-shrink delta %v", d)
	}
}

func TestTrackerStateRestoreRoundTrip(t *testing.T) {
	tr := NewTracker()
	p := mustPrepare(t, tr, state("age", 0, 3, 1, 0, 0))
	if err := tr.Ack(p.Seq); err != nil {
		t.Fatal(err)
	}
	mustPrepare(t, tr, state("age", 0, 5, 1, 0, 0)) // leave a pending in flight

	cs := tr.State()
	tr2 := NewTracker()
	if err := tr2.Restore(cs); err != nil {
		t.Fatal(err)
	}
	if tr2.AckedSeq() != 1 {
		t.Fatalf("restored seq %d", tr2.AckedSeq())
	}
	p2 := tr2.Pending()
	if p2 == nil || p2.Seq != 2 || string(p2.Body) != string(tr.Pending().Body) {
		t.Fatal("pending did not survive the round trip byte-identically")
	}
	// The restored tracker acks the pending and resumes exact deltas.
	if err := tr2.Ack(2); err != nil {
		t.Fatal(err)
	}
	p3 := mustPrepare(t, tr2, state("age", 0, 6, 1, 0, 0))
	if d := deltaOf(t, p3, "age", 0, 4); d[0] != 1 {
		t.Fatalf("post-restore delta %v", d)
	}

	// Restore refuses a used tracker.
	if err := tr2.Restore(cs); err == nil {
		t.Fatal("restore over a used tracker accepted")
	}
}

func TestCursorStateValidate(t *testing.T) {
	good, _ := EncodePush("e", 1, testDeltas())
	push, _ := DecodePush(good)
	cases := []struct {
		name string
		cs   CursorState
	}{
		{"negative seq", CursorState{Seq: -1}},
		{"nameless stream", CursorState{Streams: []CursorStream{{}}}},
		{"dup stream", CursorState{Streams: []CursorStream{{Stream: "a"}, {Stream: "a"}}}},
		{"epochs out of order", CursorState{Streams: []CursorStream{
			{Stream: "a", Epochs: []EpochCounts{{Epoch: 2}, {Epoch: 1}}}}}},
		{"pending seq gap", CursorState{Seq: 3, Pending: &Pending{Seq: 5, CRC: push.CRC, Body: good}}},
		{"pending corrupt", CursorState{Seq: 0, Pending: &Pending{Seq: 1, CRC: push.CRC, Body: []byte("x")}}},
		{"pending crc disagrees", CursorState{Seq: 0, Pending: &Pending{Seq: 1, CRC: "ffffffff", Body: good}}},
	}
	for _, tc := range cases {
		if err := tc.cs.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	ok := CursorState{Seq: 0, Pending: &Pending{Seq: 1, CRC: push.CRC, Body: good}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid cursor rejected: %v", err)
	}
}

func TestTrackerAdoptSeqAndReset(t *testing.T) {
	tr := NewTracker()
	if err := tr.AdoptSeq(9); err != nil {
		t.Fatal(err)
	}
	p := mustPrepare(t, tr, state("age", 0, 2, 0, 0, 0))
	if p.Seq != 10 {
		t.Fatalf("adopted tracker pending seq %d, want 10", p.Seq)
	}
	if err := tr.Ack(10); err != nil {
		t.Fatal(err)
	}
	if err := tr.AdoptSeq(20); err == nil {
		t.Fatal("adopt on a used tracker accepted")
	}

	tr.Reset()
	if !tr.Fresh() {
		t.Fatal("reset tracker not fresh")
	}
	// Full history ships again from basis zero.
	p = mustPrepare(t, tr, state("age", 0, 2, 0, 0, 0))
	if p.Seq != 1 {
		t.Fatalf("reset tracker pending seq %d", p.Seq)
	}
	if d := deltaOf(t, p, "age", 0, 4); d[0] != 2 {
		t.Fatalf("reset delta %v", d)
	}
}

func TestTrackerAckSurvivesNarrowedStream(t *testing.T) {
	// A stream dropped and re-declared with fewer buckets leaves a wider
	// acked basis behind. The next (narrower) delta must still fold on
	// ack — a failure here would wedge the push loop forever, since the
	// root has already applied the payload.
	tr := NewTracker()
	wide := StreamState{Name: "age", Fingerprint: fp("sw"),
		Epochs: []EpochCounts{{Epoch: 0, Counts: []uint64{1, 2, 3, 4}}}}
	p := mustPrepare(t, tr, wide)
	if err := tr.Ack(p.Seq); err != nil {
		t.Fatal(err)
	}
	narrow := StreamState{Name: "age", Fingerprint: fp("sw"),
		Epochs: []EpochCounts{{Epoch: 0, Counts: []uint64{5, 9}}}}
	p = mustPrepare(t, tr, narrow)
	if p == nil {
		t.Fatal("narrowed stream produced no delta")
	}
	if err := tr.Ack(p.Seq); err != nil {
		t.Fatalf("ack after narrowing: %v", err)
	}
	// Steady state resumes: nothing new, no delta.
	if p := mustPrepare(t, tr, narrow); p != nil {
		t.Fatalf("post-narrowing idle cycle shipped %+v", p)
	}
}
