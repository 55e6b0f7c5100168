// Package federate is the wire protocol and edge-side state machine of the
// collector's federation tier: many edge collectors near the reporting
// clients, each periodically shipping the histogram increments it has
// accumulated since its last acknowledged push to one root collector, which
// merges them and answers queries over the union. Shipping deltas — not
// reports, not full histograms — keeps the payloads O(buckets) regardless of
// population size (the SW/EMS pipeline is aggregate-sufficient, so nothing
// beyond the sufficient-statistic histogram ever needs to travel), and keying
// every delta by epoch index makes windowed streams federate exactly: an
// increment lands in the same epoch at the root that it occupied at the edge.
//
// # Exactness model
//
// The protocol is exact: after every acknowledged push, the root's histogram
// equals what a single collector would hold had it ingested every edge's
// reports directly. Three mechanisms make that survive crashes and retries:
//
//   - Per-push sequence numbers. An edge freezes each delta payload with
//     seq = lastAcked+1 and retries that exact payload until the root
//     acknowledges it. The root remembers the last sequence (and payload
//     CRC) it applied per edge, so a replayed payload — a retry after a lost
//     response, or a restart from a snapshot taken before the ack — is
//     detected and skipped, never double-counted.
//   - Per-bucket acked cursors. The edge's Tracker remembers, per stream and
//     epoch, exactly which counts the root has durably acknowledged; the next
//     delta is the current histogram minus that basis. A restarted edge
//     resumes from its persisted cursor and recomputes the same arithmetic.
//   - Write-ahead pending. A pusher configured with a Persist hook persists
//     the frozen pending payload before its first transmission, so a crash
//     between send and ack restores the identical bytes — the root's CRC
//     check then proves the replay is the payload it already applied (or
//     never received), and either way the fold is exact.
//
// # Compatibility
//
// Every stream delta carries the stream's Fingerprint — mechanism, ε,
// reconstruction and histogram granularity, resolved bandwidth, and epoch
// geometry. The root refuses (HTTP 409) any push whose fingerprint differs
// from its own stream: merging histograms produced by different channels
// would be statistically meaningless, the same rule core.Aggregator.Merge
// has always enforced in-process.
package federate

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"
)

// WireVersion is the push payload version. Roots reject newer versions;
// older versions (there are none yet) would be accepted here.
const WireVersion = 1

// Fingerprint is a stream's compatibility surface: two streams may be merged
// iff their fingerprints are equal. Bandwidth travels resolved (the declared
// 0 = "optimal" is expanded first), so an edge that declared the default and
// a root that declared the explicit optimum still match.
type Fingerprint struct {
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
	// Buckets is the reconstruction granularity; OutputBuckets the report
	// histogram granularity the deltas are shaped in.
	Buckets       int     `json:"buckets"`
	OutputBuckets int     `json:"output_buckets"`
	Bandwidth     float64 `json:"bandwidth,omitempty"`
	// EpochNanos and Retain carry the epoch geometry of a windowed stream
	// (zero for plain streams). Windowing must match: a windowed edge
	// cannot fold into a plain root stream or vice versa.
	EpochNanos int64 `json:"epoch_nanos,omitempty"`
	Retain     int   `json:"retain,omitempty"`
	// EpochOriginNanos is the wall-clock instant (Unix nanoseconds) of the
	// stream's epoch 0. Deltas are keyed by epoch index, so two streams
	// may merge only when their indexes name the same wall-clock
	// intervals — the origin makes a misaligned pairing a loud 409 instead
	// of silently filing reports into the wrong epochs. Roots that
	// auto-declare adopt the first edge's origin.
	EpochOriginNanos int64 `json:"epoch_origin_nanos,omitempty"`
}

// Equal reports whether two fingerprints are merge-compatible. Equality is
// exact, including the float64 bandwidth: both sides resolve the default
// bandwidth through the same arithmetic, so compatible configurations agree
// bit-for-bit.
func (f Fingerprint) Equal(o Fingerprint) bool { return f == o }

// String renders the fingerprint for error messages.
func (f Fingerprint) String() string {
	s := fmt.Sprintf("%s ε=%v d=%d/%d b=%v", f.Mechanism, f.Epsilon, f.Buckets, f.OutputBuckets, f.Bandwidth)
	if f.EpochNanos > 0 {
		s += fmt.Sprintf(" epoch=%v retain=%d origin=%s", time.Duration(f.EpochNanos), f.Retain,
			time.Unix(0, f.EpochOriginNanos).UTC().Format(time.RFC3339Nano))
	}
	return s
}

// EpochDelta is the increments of one epoch of one stream since the last
// acknowledged push. Exactly one of Counts (dense) or Cells (sparse
// [bucket, count] pairs) is set; the encoder picks whichever is smaller on
// the wire. An all-zero delta is never encoded.
type EpochDelta struct {
	// Epoch is the epoch index the increments belong to (always 0 for a
	// plain, non-windowed stream).
	Epoch int `json:"epoch"`
	// N is the increment total, a checksum over the counts.
	N uint64 `json:"n"`
	// Counts is the dense increment histogram.
	Counts []uint64 `json:"counts,omitempty"`
	// Cells is the sparse encoding: [bucket, count] pairs, ascending by
	// bucket.
	Cells [][2]uint64 `json:"cells,omitempty"`
}

// sparseCutover is the nonzero-cell fraction above which dense encoding is
// smaller on the wire (a pair costs roughly 2.5× a dense zero).
const sparseCutover = 3

// NewEpochDelta builds the wire encoding of one epoch's increments, choosing
// sparse cells when fewer than 1/3 of the buckets are nonzero. ok is false
// when every increment is zero — such deltas are not shipped.
func NewEpochDelta(epoch int, inc []uint64) (d EpochDelta, ok bool) {
	var n uint64
	nonzero := 0
	for _, c := range inc {
		if c != 0 {
			n += c
			nonzero++
		}
	}
	if n == 0 {
		return EpochDelta{}, false
	}
	d = EpochDelta{Epoch: epoch, N: n}
	if nonzero*sparseCutover < len(inc) {
		d.Cells = make([][2]uint64, 0, nonzero)
		for b, c := range inc {
			if c != 0 {
				d.Cells = append(d.Cells, [2]uint64{uint64(b), c})
			}
		}
		return d, true
	}
	d.Counts = append([]uint64(nil), inc...)
	return d, true
}

// Dense expands the delta into a dense histogram of the given granularity,
// validating shape and the N checksum. The returned slice is freshly
// allocated for sparse deltas and aliases d.Counts for dense ones.
func (d EpochDelta) Dense(buckets int) ([]uint64, error) {
	if d.Epoch < 0 {
		return nil, fmt.Errorf("federate: negative epoch %d", d.Epoch)
	}
	if d.Counts != nil && d.Cells != nil {
		return nil, fmt.Errorf("federate: epoch %d delta is both dense and sparse", d.Epoch)
	}
	var out []uint64
	var n uint64
	switch {
	case d.Counts != nil:
		if len(d.Counts) != buckets {
			return nil, fmt.Errorf("federate: epoch %d delta has %d buckets, want %d",
				d.Epoch, len(d.Counts), buckets)
		}
		out = d.Counts
		for _, c := range out {
			n += c
		}
	case d.Cells != nil:
		out = make([]uint64, buckets)
		prev := -1
		for _, cell := range d.Cells {
			b := int(cell[0])
			if b <= prev || b >= buckets {
				return nil, fmt.Errorf("federate: epoch %d delta cell bucket %d out of order or outside [0, %d)",
					d.Epoch, b, buckets)
			}
			prev = b
			out[b] = cell[1]
			n += cell[1]
		}
	default:
		return nil, fmt.Errorf("federate: epoch %d delta carries no counts", d.Epoch)
	}
	if n != d.N || n == 0 {
		return nil, fmt.Errorf("federate: epoch %d delta totals %d counts but claims n=%d", d.Epoch, n, d.N)
	}
	return out, nil
}

// StreamDelta is every unshipped epoch of one stream.
type StreamDelta struct {
	Stream      string       `json:"stream"`
	Fingerprint Fingerprint  `json:"fingerprint"`
	Epochs      []EpochDelta `json:"epochs"`
}

// pushEnvelope is the top-level JSON of POST /federation/push. Streams stays
// raw so the CRC is computed over the exact bytes that traveled.
type pushEnvelope struct {
	Version int             `json:"version"`
	Edge    string          `json:"edge"`
	Seq     int64           `json:"seq"`
	CRC     string          `json:"payload_crc32"`
	Streams json.RawMessage `json:"streams"`
}

// Push is a decoded, CRC-verified push payload.
type Push struct {
	Edge string
	Seq  int64
	// CRC is the hex CRC32 of the streams payload — the root remembers it
	// per edge so byte-identical replays are provably the payload already
	// applied.
	CRC     string
	Streams []StreamDelta
}

// EncodePush builds a push payload in the JSON envelope: the stream deltas
// are marshaled once, checksummed, and wrapped in the versioned envelope.
// Edges freeze their payloads in the binary codec (EncodePushBinary); roots
// still accept this envelope from hand-written pushes and older edges, and a
// pending payload an older edge persisted in it replays verbatim.
func EncodePush(edge string, seq int64, streams []StreamDelta) ([]byte, error) {
	if edge == "" {
		return nil, fmt.Errorf("federate: empty edge id")
	}
	if seq < 1 {
		return nil, fmt.Errorf("federate: push seq must be positive, got %d", seq)
	}
	inner, err := json.Marshal(streams)
	if err != nil {
		return nil, fmt.Errorf("federate: encode push: %w", err)
	}
	body, err := json.Marshal(pushEnvelope{
		Version: WireVersion,
		Edge:    edge,
		Seq:     seq,
		CRC:     fmt.Sprintf("%08x", crc32.ChecksumIEEE(inner)),
		Streams: inner,
	})
	if err != nil {
		return nil, fmt.Errorf("federate: encode push: %w", err)
	}
	return body, nil
}

// DecodePush parses and verifies a push payload: version, CRC over the raw
// stream bytes, and basic shape. It never panics on hostile input; deeper
// validation (fingerprints, bucket counts) is the receiver's job because it
// needs the live stream registry.
func DecodePush(body []byte) (Push, error) {
	var env pushEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return Push{}, fmt.Errorf("federate: decode push: %v", err)
	}
	if env.Version != WireVersion {
		return Push{}, fmt.Errorf("federate: push version %d not supported (this build speaks %d)",
			env.Version, WireVersion)
	}
	if env.Edge == "" {
		return Push{}, fmt.Errorf("federate: push carries no edge id")
	}
	if env.Seq < 1 {
		return Push{}, fmt.Errorf("federate: push seq %d must be positive", env.Seq)
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(env.Streams)); got != env.CRC {
		return Push{}, fmt.Errorf("federate: push payload checksum mismatch (corrupt in flight?)")
	}
	var streams []StreamDelta
	if err := json.Unmarshal(env.Streams, &streams); err != nil {
		return Push{}, fmt.Errorf("federate: decode push streams: %v", err)
	}
	if err := checkStreamShapes(streams); err != nil {
		return Push{}, err
	}
	return Push{Edge: env.Edge, Seq: env.Seq, CRC: env.CRC, Streams: streams}, nil
}

// checkStreamShapes enforces the shape rules both push codecs share: stream
// deltas are named, unique and carry at least one epoch.
func checkStreamShapes(streams []StreamDelta) error {
	seen := make(map[string]bool, len(streams))
	for _, sd := range streams {
		if sd.Stream == "" {
			return fmt.Errorf("federate: push carries a nameless stream delta")
		}
		if seen[sd.Stream] {
			return fmt.Errorf("federate: push carries stream %q twice", sd.Stream)
		}
		seen[sd.Stream] = true
		if len(sd.Epochs) == 0 {
			return fmt.Errorf("federate: push stream %q carries no epochs", sd.Stream)
		}
	}
	return nil
}

// Machine-readable reasons carried by PushResponse on failure, so the pusher
// can distinguish retryable transport trouble from configuration conflicts
// and state divergence.
const (
	// ReasonSeqGap: the push's sequence is more than one ahead of the
	// root's high-water mark — the root lost state (restored an older
	// snapshot, or is fresh).
	ReasonSeqGap = "seq_gap"
	// ReasonFingerprint: a stream's fingerprint does not match the root's.
	ReasonFingerprint = "fingerprint_mismatch"
	// ReasonUnknownStream: the root does not host the stream and
	// auto-declaration is off.
	ReasonUnknownStream = "unknown_stream"
	// ReasonDisabled: the root does not accept federation pushes.
	ReasonDisabled = "federation_disabled"
)

// StreamResult is the per-stream outcome inside a PushResponse.
type StreamResult struct {
	Stream string `json:"stream"`
	// AppliedEpochs counts epochs merged; N the increments they carried.
	AppliedEpochs int    `json:"applied_epochs"`
	N             uint64 `json:"n"`
	// DroppedEpochs lists epoch indexes the root could not place (aged out
	// of its retention, or not yet started on its clock); DroppedN the
	// increments they carried. Drops are reported, never silently eaten.
	DroppedEpochs []int  `json:"dropped_epochs,omitempty"`
	DroppedN      uint64 `json:"dropped_n,omitempty"`
}

// PushResponse is the root's answer to POST /federation/push.
type PushResponse struct {
	// Seq echoes the push; LastSeq is the root's per-edge high-water mark
	// after handling it.
	Seq     int64 `json:"seq"`
	LastSeq int64 `json:"last_seq"`
	// Applied is true when this push's deltas were merged; Duplicate when
	// the sequence was already applied and the push was skipped. CRC, on a
	// duplicate, is the payload checksum the root applied for that
	// sequence — the edge compares it to prove the skip was exact.
	Applied   bool   `json:"applied"`
	Duplicate bool   `json:"duplicate,omitempty"`
	CRC       string `json:"payload_crc32,omitempty"`
	// Reports is the total increments absorbed by this push.
	Reports uint64         `json:"reports,omitempty"`
	Streams []StreamResult `json:"streams,omitempty"`
	// Error and Reason describe a rejection (HTTP 4xx). On the wire they
	// travel as the uniform error envelope every collector endpoint speaks
	// — {"error": {"code": Reason, "message": Error}} — see MarshalJSON.
	Error  string `json:"-"`
	Reason string `json:"-"`
}

// pushResponseWire is PushResponse's JSON form: every field flat except the
// rejection, which nests as the uniform HTTP error envelope so federation
// 4xx bodies look exactly like every other endpoint's. The Go struct keeps
// flat Error/Reason fields — the pusher's state machine and its tests never
// see the envelope.
type pushResponseWire struct {
	Seq       int64          `json:"seq"`
	LastSeq   int64          `json:"last_seq"`
	Applied   bool           `json:"applied"`
	Duplicate bool           `json:"duplicate,omitempty"`
	CRC       string         `json:"payload_crc32,omitempty"`
	Reports   uint64         `json:"reports,omitempty"`
	Streams   []StreamResult `json:"streams,omitempty"`
	Err       *wireError     `json:"error,omitempty"`
}

// wireError mirrors ldphttp's envelope body (the two packages must not
// import each other).
type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// MarshalJSON renders Reason/Error as the nested envelope, with Reason as
// the machine-readable code ("bad_request" when a rejection carries no
// reason).
func (r PushResponse) MarshalJSON() ([]byte, error) {
	w := pushResponseWire{
		Seq: r.Seq, LastSeq: r.LastSeq, Applied: r.Applied, Duplicate: r.Duplicate,
		CRC: r.CRC, Reports: r.Reports, Streams: r.Streams,
	}
	if r.Error != "" || r.Reason != "" {
		code := r.Reason
		if code == "" {
			code = "bad_request"
		}
		w.Err = &wireError{Code: code, Message: r.Error}
	}
	return json.Marshal(w)
}

// UnmarshalJSON folds the envelope back into the flat fields.
func (r *PushResponse) UnmarshalJSON(b []byte) error {
	var w pushResponseWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = PushResponse{
		Seq: w.Seq, LastSeq: w.LastSeq, Applied: w.Applied, Duplicate: w.Duplicate,
		CRC: w.CRC, Reports: w.Reports, Streams: w.Streams,
	}
	if w.Err != nil {
		r.Reason = w.Err.Code
		r.Error = w.Err.Message
	}
	return nil
}
