package federate

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// binaryTestDeltas exercises every fingerprint field, both epoch
// encodings, and multiple streams.
func binaryTestDeltas() []StreamDelta {
	sparse := make([]uint64, 1000)
	sparse[3] = 7
	sparse[900] = 2
	d, _ := NewEpochDelta(4, sparse)
	return []StreamDelta{
		{
			Stream: "age",
			Fingerprint: Fingerprint{
				Mechanism: "sw", Epsilon: 1.25, Buckets: 8, OutputBuckets: 8, Bandwidth: 0.25,
			},
			Epochs: []EpochDelta{
				{Epoch: 0, N: 3, Counts: []uint64{1, 0, 2, 0, 0, 0, 0, 0}},
				{Epoch: 2, N: 5, Counts: []uint64{0, 5, 0, 0, 0, 0, 0, 0}},
			},
		},
		{
			Stream: "income (windowed)",
			Fingerprint: Fingerprint{
				Mechanism: "oue", Epsilon: 2, Buckets: 1000, OutputBuckets: 1000,
				EpochNanos: 60e9, Retain: 24, EpochOriginNanos: -5e9,
			},
			Epochs: []EpochDelta{d},
		},
	}
}

func TestBinaryPushRoundTrip(t *testing.T) {
	deltas := binaryTestDeltas()
	body, err := EncodePushBinary("edge-1", 7, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinaryPush(body) {
		t.Fatal("IsBinaryPush = false on an encoded push")
	}
	if IsBinaryPush([]byte(`{"edge":"x"}`)) {
		t.Fatal("IsBinaryPush = true on JSON")
	}
	push, err := DecodePushBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	if push.Edge != "edge-1" || push.Seq != 7 || len(push.Streams) != 2 {
		t.Fatalf("decoded %+v", push)
	}
	if push.CRC == "" || len(push.CRC) != 8 {
		t.Fatalf("CRC = %q, want 8 hex digits", push.CRC)
	}
	for i, sd := range push.Streams {
		want := deltas[i]
		if sd.Stream != want.Stream || !sd.Fingerprint.Equal(want.Fingerprint) {
			t.Fatalf("stream %d decoded %+v, want %+v", i, sd, want)
		}
		if len(sd.Epochs) != len(want.Epochs) {
			t.Fatalf("stream %d epoch count %d, want %d", i, len(sd.Epochs), len(want.Epochs))
		}
		for j, e := range sd.Epochs {
			wd, err := want.Epochs[j].Dense(want.Fingerprint.OutputBuckets)
			if err != nil {
				t.Fatal(err)
			}
			gd, err := e.Dense(want.Fingerprint.OutputBuckets)
			if err != nil {
				t.Fatalf("stream %d epoch %d: %v", i, j, err)
			}
			if e.Epoch != want.Epochs[j].Epoch || e.N != want.Epochs[j].N || !reflect.DeepEqual(gd, wd) {
				t.Fatalf("stream %d epoch %d decoded %+v", i, j, e)
			}
		}
	}

	// DecodePushAuto sniffs the right codec for both framings.
	if p, err := DecodePushAuto(body); err != nil || p.Edge != "edge-1" {
		t.Fatalf("auto on binary: %+v %v", p, err)
	}
	jsonBody, err := EncodePush("edge-1", 7, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := DecodePushAuto(jsonBody); err != nil || p.Edge != "edge-1" {
		t.Fatalf("auto on JSON: %+v %v", p, err)
	}
}

func TestBinaryPushStableCRC(t *testing.T) {
	// The CRC is a pure function of the streams payload: re-encoding the
	// same deltas yields the same CRC, so root-side duplicate comparison
	// works across a pusher restart exactly as it does for JSON.
	a, err := EncodePushBinary("e", 3, binaryTestDeltas())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodePushBinary("e", 3, binaryTestDeltas())
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := DecodePushBinary(a)
	pb, _ := DecodePushBinary(b)
	if pa.CRC != pb.CRC {
		t.Fatalf("CRC not stable: %s != %s", pa.CRC, pb.CRC)
	}
}

func TestBinaryPushSmallerThanJSON(t *testing.T) {
	// The acceptance bar of the codec: at B=1024 with ~10% occupancy the
	// binary framing must be at least 5× smaller than the dense JSON push.
	const buckets = 1024
	counts := make([]uint64, buckets)
	for b := 0; b < buckets; b += 10 {
		counts[b] = uint64(b%97 + 1)
	}
	deltas := []StreamDelta{{
		Stream: "bench",
		Fingerprint: Fingerprint{
			Mechanism: "sw", Epsilon: 1, Buckets: buckets, OutputBuckets: buckets, Bandwidth: 0.25,
		},
		Epochs: []EpochDelta{{Epoch: 0, N: total(counts), Counts: counts}},
	}}
	jsonBody, err := EncodePush("edge-1", 1, deltas)
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := EncodePushBinary("edge-1", 1, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(binBody)*5 > len(jsonBody) {
		t.Fatalf("binary push is %d bytes vs %d JSON — less than the required 5× reduction",
			len(binBody), len(jsonBody))
	}
}

func total(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

func TestDecodeBinaryPushRejectsCorruption(t *testing.T) {
	body, err := EncodePushBinary("edge-1", 2, binaryTestDeltas())
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte in turn: never a panic, and almost always an error.
	// (A flip in the edge-name bytes that keeps lengths and CRC coherent is
	// impossible — the CRC trailer covers the streams payload and the
	// header fields feed length checks.)
	for i := range body {
		corrupt := append([]byte(nil), body...)
		corrupt[i] ^= 0x01
		p, err := DecodePushBinary(corrupt)
		if err == nil {
			// The only legal silent flips are in the edge-name byte or the
			// seq varint, which the CRC does not cover (they are replay
			// metadata, compared server-side). Anything else must fail.
			if p.Edge == "edge-1" && p.Seq == 2 {
				t.Fatalf("flipping byte %d decoded cleanly to the identical push", i)
			}
			continue
		}
	}
	for n := 0; n < len(body); n++ {
		if _, err := DecodePushBinary(body[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	if _, err := DecodePushBinary(append(append([]byte(nil), body...), 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

func TestEncodePushBinaryRejectsBadArgs(t *testing.T) {
	if _, err := EncodePushBinary("", 1, binaryTestDeltas()); err == nil {
		t.Fatal("empty edge accepted")
	}
	if _, err := EncodePushBinary("e", 0, binaryTestDeltas()); err == nil {
		t.Fatal("seq 0 accepted")
	}
	bad := []StreamDelta{{
		Stream:      "x",
		Fingerprint: Fingerprint{Mechanism: "sw", Epsilon: 1, Buckets: 4, OutputBuckets: 4},
		Epochs:      []EpochDelta{{Epoch: -1, N: 1, Counts: []uint64{1, 0, 0, 0}}},
	}}
	if _, err := EncodePushBinary("e", 1, bad); err == nil {
		t.Fatal("negative epoch accepted")
	}
}

// TestTrackerBinaryFormat: a tracker freezes LDPB frames that carry the
// delta itself, and Ack and cursor-state validation work on them.
func TestTrackerBinaryFormat(t *testing.T) {
	tr := NewTracker()
	p, err := tr.Prepare("edge-1", []StreamState{state("age", 0, 4, 0, 9, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinaryPush(p.Body) {
		t.Fatalf("pending body %q is not an LDPB frame", p.Body)
	}
	push, err := DecodePushBinary(p.Body)
	if err != nil {
		t.Fatal(err)
	}
	if push.Edge != "edge-1" || push.Seq != 1 || p.Seq != 1 || push.CRC != p.CRC || len(push.Streams) != 1 {
		t.Fatalf("frozen frame %+v does not match pending seq %d crc %s", push, p.Seq, p.CRC)
	}
	sd := push.Streams[0]
	if sd.Stream != "age" || !sd.Fingerprint.Equal(fp("sw")) || len(sd.Epochs) != 1 {
		t.Fatalf("frozen stream delta %+v", sd)
	}
	d, err := sd.Epochs[0].Dense(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{4, 0, 9, 0}; sd.Epochs[0].Epoch != 0 || sd.Epochs[0].N != 13 || !reflect.DeepEqual(d, want) {
		t.Fatalf("frozen epoch %d n=%d counts %v, want epoch 0 n=13 counts %v",
			sd.Epochs[0].Epoch, sd.Epochs[0].N, d, want)
	}

	// Ack on a binary pending advances the cursor; the next delta is
	// incremental, and a restored state revalidates the binary body.
	if err := tr.Ack(p.Seq); err != nil {
		t.Fatalf("ack binary pending: %v", err)
	}
	p2, err := tr.Prepare("edge-1", []StreamState{state("age", 0, 4, 1, 9, 0)})
	if err != nil {
		t.Fatal(err)
	}
	push2, err := DecodePushBinary(p2.Body)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := push2.Streams[0].Epochs[0].Dense(4)
	if push2.Seq != 2 || d2[1] != 1 || d2[0] != 0 {
		t.Fatalf("incremental binary delta seq %d %v, want seq 2 and only bucket 1", push2.Seq, d2)
	}
	cs := tr.State()
	if cs.Pending == nil {
		t.Fatal("cursor state lost the binary pending")
	}
	fresh := NewTracker()
	if err := fresh.Restore(cs); err != nil {
		t.Fatalf("restore with binary pending: %v", err)
	}
}

// TestPusherBinaryContentType: a pusher ships LDPB frames as the binary
// media type. A JSON pending payload — what an older edge froze and
// persisted — restores into a tracker and replays verbatim as
// application/json (the transmit header is sniffed from the frozen body),
// and the next delta goes out binary.
func TestPusherBinaryContentType(t *testing.T) {
	root := newStubRoot()
	ts := httptest.NewServer(http.HandlerFunc(root.handler))
	defer ts.Close()
	h := &edgeHist{counts: []uint64{3, 0, 1, 0}}
	p := newTestPusher(t, ts.URL, h, nil)

	if acked, err := p.PushOnce(); err != nil || !acked {
		t.Fatalf("binary push: acked=%v err=%v", acked, err)
	}
	if root.lastContentType != wire.ContentType {
		t.Fatalf("pusher sent Content-Type %q, want %q", root.lastContentType, wire.ContentType)
	}
	if got := root.counts("age", 0); got[0] != 3 || got[2] != 1 {
		t.Fatalf("root merged %v from binary push", got)
	}

	// The edge restarts from a snapshot whose pending push is a JSON
	// envelope carrying the two reports that arrived after seq 1.
	h.add(1, 2)
	st := h.states()[0]
	d, _ := NewEpochDelta(0, []uint64{0, 2, 0, 0})
	body, err := EncodePush("edge-1", 2, []StreamDelta{{Stream: st.Name, Fingerprint: st.Fingerprint, Epochs: []EpochDelta{d}}})
	if err != nil {
		t.Fatal(err)
	}
	jsonPush, err := DecodePush(body)
	if err != nil {
		t.Fatal(err)
	}
	cs := p.Tracker().State()
	cs.Pending = &Pending{Seq: 2, CRC: jsonPush.CRC, Body: body}
	restored := NewTracker()
	if err := restored.Restore(cs); err != nil {
		t.Fatalf("restore JSON pending: %v", err)
	}
	p2, err := NewPusher(PusherConfig{URL: ts.URL, Edge: "edge-1", Gather: h.states}, restored)
	if err != nil {
		t.Fatal(err)
	}
	if acked, err := p2.PushOnce(); err != nil || !acked {
		t.Fatalf("replay of frozen JSON pending: acked=%v err=%v", acked, err)
	}
	root.mu.Lock()
	ct, crc := root.lastContentType, root.lastCRC
	root.mu.Unlock()
	if ct != "application/json" || crc != jsonPush.CRC {
		t.Fatalf("JSON pending replayed as %q with crc %s, want application/json with crc %s",
			ct, crc, jsonPush.CRC)
	}
	if got := root.counts("age", 0); got[1] != 2 {
		t.Fatalf("root merged %v after replay", got)
	}
	// The next fresh delta is frozen binary.
	h.add(3, 5)
	if acked, err := p2.PushOnce(); err != nil || !acked {
		t.Fatalf("push after replay: %v", err)
	}
	if root.lastContentType != wire.ContentType {
		t.Fatalf("push after replay sent Content-Type %q", root.lastContentType)
	}
	if got := root.counts("age", 0); got[1] != 2 || got[3] != 5 {
		t.Fatalf("root merged %v after the binary follow-up", got)
	}
}

// FuzzBinaryPush: arbitrary bytes never panic the binary push decoder, and
// anything that decodes re-encodes to a semantically identical push.
func FuzzBinaryPush(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("LDPB"))
	if body, err := EncodePushBinary("edge-1", 7, binaryTestDeltas()); err == nil {
		f.Add(body)
	}
	if body, err := EncodePushBinary("e", 1, testDeltas()); err == nil {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		push, err := DecodePushBinary(data)
		if err != nil {
			return
		}
		body, err := EncodePushBinary(push.Edge, push.Seq, push.Streams)
		if err != nil {
			t.Fatalf("re-encode of a decoded push failed: %v", err)
		}
		again, err := DecodePushBinary(body)
		if err != nil {
			t.Fatalf("decode of a re-encoded push failed: %v", err)
		}
		if again.Edge != push.Edge || again.Seq != push.Seq || len(again.Streams) != len(push.Streams) {
			t.Fatalf("push not stable: %+v != %+v", again, push)
		}
	})
}
