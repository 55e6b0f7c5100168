package federate

// The binary push codec: the same Push semantics as the JSON envelope —
// versioned, edge- and seq-stamped, CRC32 over the inner stream-delta
// payload — in a varint frame that encodes epoch increments as runs of
// consecutive nonzero buckets. A mid-round histogram is mostly zeros with
// clustered mass, so runs beat both JSON dense (every zero costs bytes) and
// JSON sparse (every cell repeats its bucket index in decimal). Edges
// freeze every new payload in this codec; roots accept either codec on the
// same endpoint, keyed by Content-Type. The CRC carried in Push.CRC stays
// the hex crc32 of the inner payload bytes, so duplicate detection compares
// the exact bytes that traveled regardless of codec — a JSON and a binary
// encoding of the same deltas are, correctly, different payloads.
//
// Frame layout:
//
//	"LDPB" | version(1) | uvarint len(edge) | edge | uvarint seq
//	       | uvarint len(inner) | inner | crc32(inner) (LE, 4)
//	inner   = uvarint streamCount | streamCount × stream
//	stream  = uvarint len(name) | name | fingerprint
//	        | uvarint epochCount | epochCount × epoch
//	fingerprint = uvarint len(mechanism) | mechanism | epsilon (8, LE bits)
//	        | uvarint buckets | uvarint outputBuckets
//	        | bandwidth (8, LE bits) | varint epochNanos | uvarint retain
//	        | varint epochOriginNanos
//	epoch   = uvarint index | uvarint n | uvarint runCount | runCount × run
//	run     = uvarint gap | uvarint runLen | runLen × uvarint count
//
// A run's gap is the zero-bucket distance from the end of the previous run
// (from bucket 0 for the first), so bucket indexes are strictly ascending
// by construction and the decoder always yields the sparse Cells form,
// which EpochDelta.Dense validates downstream exactly like a JSON sparse
// delta. Decoding never panics: every length is bounded by the bytes that
// remain and bucket indexes are capped.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/wire"
)

const (
	pushMagic   = "LDPB"
	pushVersion = 1
)

// maxBinaryBuckets caps decoded bucket indexes and epoch numbers against
// hostile frames; real histograms are orders of magnitude smaller.
const maxBinaryBuckets = 1 << 26

// IsBinaryPush reports whether body starts with the binary push magic. A
// JSON envelope starts with '{', so sniffing is unambiguous — this is how
// replayed pending payloads and received bodies pick their decoder.
func IsBinaryPush(body []byte) bool {
	return len(body) >= len(pushMagic) && string(body[:len(pushMagic)]) == pushMagic
}

// EncodePushBinary freezes a push payload in the binary codec, the codec
// every edge pushes in; the exact analogue of EncodePush. The returned
// bytes are what travels and what a write-ahead snapshot persists.
func EncodePushBinary(edge string, seq int64, streams []StreamDelta) ([]byte, error) {
	if edge == "" {
		return nil, fmt.Errorf("federate: empty edge id")
	}
	if seq < 1 {
		return nil, fmt.Errorf("federate: push seq must be positive, got %d", seq)
	}
	inner, err := appendStreamDeltas(nil, streams)
	if err != nil {
		return nil, fmt.Errorf("federate: encode push: %w", err)
	}
	body := make([]byte, 0, len(pushMagic)+1+len(edge)+len(inner)+24)
	body = append(body, pushMagic...)
	body = append(body, pushVersion)
	body = binary.AppendUvarint(body, uint64(len(edge)))
	body = append(body, edge...)
	body = binary.AppendUvarint(body, uint64(seq))
	body = binary.AppendUvarint(body, uint64(len(inner)))
	body = append(body, inner...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(inner)), nil
}

func appendStreamDeltas(dst []byte, streams []StreamDelta) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(streams)))
	for _, sd := range streams {
		dst = binary.AppendUvarint(dst, uint64(len(sd.Stream)))
		dst = append(dst, sd.Stream...)
		dst = appendFingerprint(dst, sd.Fingerprint)
		dst = binary.AppendUvarint(dst, uint64(len(sd.Epochs)))
		for _, d := range sd.Epochs {
			var err error
			if dst, err = appendEpochDelta(dst, d); err != nil {
				return nil, fmt.Errorf("stream %q: %w", sd.Stream, err)
			}
		}
	}
	return dst, nil
}

func appendFingerprint(dst []byte, f Fingerprint) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(f.Mechanism)))
	dst = append(dst, f.Mechanism...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Epsilon))
	dst = binary.AppendUvarint(dst, uint64(f.Buckets))
	dst = binary.AppendUvarint(dst, uint64(f.OutputBuckets))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Bandwidth))
	dst = binary.AppendVarint(dst, f.EpochNanos)
	dst = binary.AppendUvarint(dst, uint64(f.Retain))
	return binary.AppendVarint(dst, f.EpochOriginNanos)
}

// appendEpochDelta writes one epoch as nonzero runs, accepting either the
// dense or the sparse in-memory form.
func appendEpochDelta(dst []byte, d EpochDelta) ([]byte, error) {
	if d.Epoch < 0 {
		return nil, fmt.Errorf("negative epoch %d", d.Epoch)
	}
	if d.Counts != nil && d.Cells != nil {
		return nil, fmt.Errorf("epoch %d delta is both dense and sparse", d.Epoch)
	}
	cells := d.Cells
	if d.Counts != nil {
		cells = cells[:0]
		for b, c := range d.Counts {
			if c != 0 {
				cells = append(cells, [2]uint64{uint64(b), c})
			}
		}
	} else if cells == nil {
		return nil, fmt.Errorf("epoch %d delta carries no counts", d.Epoch)
	}
	dst = binary.AppendUvarint(dst, uint64(d.Epoch))
	dst = binary.AppendUvarint(dst, d.N)
	// First pass: count the runs of consecutive buckets.
	runs := 0
	prev := uint64(math.MaxUint64)
	for _, cell := range cells {
		if prev != math.MaxUint64 && cell[0] <= prev {
			return nil, fmt.Errorf("epoch %d delta cell bucket %d out of order", d.Epoch, cell[0])
		}
		if prev == math.MaxUint64 || cell[0] != prev+1 {
			runs++
		}
		prev = cell[0]
	}
	dst = binary.AppendUvarint(dst, uint64(runs))
	// Second pass: emit gap, length, and counts per run.
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j][0] == cells[j-1][0]+1 {
			j++
		}
		gap := cells[i][0]
		if i > 0 {
			gap = cells[i][0] - cells[i-1][0] - 1
		}
		dst = binary.AppendUvarint(dst, gap)
		dst = binary.AppendUvarint(dst, uint64(j-i))
		for ; i < j; i++ {
			dst = binary.AppendUvarint(dst, cells[i][1])
		}
	}
	return dst, nil
}

// DecodePushBinary parses and verifies a binary push payload, enforcing the
// same shape rules as DecodePush: version, CRC over the inner payload,
// nonempty edge and positive seq, named, unique, epoch-bearing streams.
// Deeper validation (fingerprints, bucket counts, the N checksum) is the
// receiver's job via EpochDelta.Dense, exactly as for JSON pushes.
func DecodePushBinary(body []byte) (Push, error) {
	if !IsBinaryPush(body) {
		return Push{}, fmt.Errorf("federate: not a binary push (bad magic)")
	}
	if len(body) < len(pushMagic)+1+4 {
		return Push{}, fmt.Errorf("federate: binary push truncated (%d bytes)", len(body))
	}
	if v := body[len(pushMagic)]; v != pushVersion {
		return Push{}, fmt.Errorf("federate: binary push version %d not supported (this build speaks %d)", v, pushVersion)
	}
	r := wire.NewReader(body[len(pushMagic)+1 : len(body)-4])
	edgeLen := r.Uvarint()
	if edgeLen > uint64(r.Remaining()) {
		return Push{}, fmt.Errorf("federate: binary push edge id truncated")
	}
	edge := string(r.Bytes(int(edgeLen)))
	seq := r.Uvarint()
	innerLen := r.Uvarint()
	if r.Err() == nil && innerLen != uint64(r.Remaining()) {
		return Push{}, fmt.Errorf("federate: binary push inner payload claims %d bytes, frame carries %d",
			innerLen, r.Remaining())
	}
	inner := r.Bytes(int(innerLen))
	if err := r.Err(); err != nil {
		return Push{}, fmt.Errorf("federate: decode binary push: %w", err)
	}
	if edge == "" {
		return Push{}, fmt.Errorf("federate: push carries no edge id")
	}
	if seq < 1 || seq > math.MaxInt64 {
		return Push{}, fmt.Errorf("federate: push seq %d must be positive", seq)
	}
	crc := frameCRC(body)
	if crc32.ChecksumIEEE(inner) != crc {
		return Push{}, fmt.Errorf("federate: push payload checksum mismatch (corrupt in flight?)")
	}
	streams, err := decodeStreamDeltas(inner)
	if err != nil {
		return Push{}, fmt.Errorf("federate: decode binary push streams: %w", err)
	}
	if err := checkStreamShapes(streams); err != nil {
		return Push{}, err
	}
	return Push{
		Edge:    edge,
		Seq:     int64(seq),
		CRC:     fmt.Sprintf("%08x", crc),
		Streams: streams,
	}, nil
}

// frameCRC reads the crc32 of the inner payload from a binary push frame's
// 4-byte trailer.
func frameCRC(body []byte) uint32 {
	return binary.LittleEndian.Uint32(body[len(body)-4:])
}

func decodeStreamDeltas(inner []byte) ([]StreamDelta, error) {
	r := wire.NewReader(inner)
	count := r.Uvarint()
	if count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("claims %d streams in %d bytes", count, r.Remaining())
	}
	streams := make([]StreamDelta, 0, count)
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		var sd StreamDelta
		nameLen := r.Uvarint()
		if nameLen > uint64(r.Remaining()) {
			return nil, fmt.Errorf("stream %d name truncated", i)
		}
		sd.Stream = string(r.Bytes(int(nameLen)))
		fp, err := decodeFingerprint(r)
		if err != nil {
			return nil, fmt.Errorf("stream %q: %w", sd.Stream, err)
		}
		sd.Fingerprint = fp
		epochCount := r.Uvarint()
		if epochCount > uint64(r.Remaining()) {
			return nil, fmt.Errorf("stream %q claims %d epochs in %d bytes", sd.Stream, epochCount, r.Remaining())
		}
		sd.Epochs = make([]EpochDelta, 0, epochCount)
		for e := uint64(0); e < epochCount && r.Err() == nil; e++ {
			d, err := decodeEpochDelta(r)
			if err != nil {
				return nil, fmt.Errorf("stream %q: %w", sd.Stream, err)
			}
			sd.Epochs = append(sd.Epochs, d)
		}
		streams = append(streams, sd)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after stream deltas", r.Remaining())
	}
	return streams, nil
}

func decodeFingerprint(r *wire.Reader) (Fingerprint, error) {
	var f Fingerprint
	mechLen := r.Uvarint()
	if mechLen > uint64(r.Remaining()) {
		return f, fmt.Errorf("fingerprint mechanism truncated")
	}
	f.Mechanism = string(r.Bytes(int(mechLen)))
	f.Epsilon = r.Float64()
	buckets := r.Uvarint()
	outputBuckets := r.Uvarint()
	if buckets > maxBinaryBuckets || outputBuckets > maxBinaryBuckets {
		return f, fmt.Errorf("fingerprint granularity %d/%d out of range", buckets, outputBuckets)
	}
	f.Buckets = int(buckets)
	f.OutputBuckets = int(outputBuckets)
	f.Bandwidth = r.Float64()
	f.EpochNanos = r.Varint()
	retain := r.Uvarint()
	if retain > maxBinaryBuckets {
		return f, fmt.Errorf("fingerprint retain %d out of range", retain)
	}
	f.Retain = int(retain)
	f.EpochOriginNanos = r.Varint()
	return f, r.Err()
}

func decodeEpochDelta(r *wire.Reader) (EpochDelta, error) {
	var d EpochDelta
	epoch := r.Uvarint()
	if epoch > maxBinaryBuckets {
		return d, fmt.Errorf("epoch index %d out of range", epoch)
	}
	d.Epoch = int(epoch)
	d.N = r.Uvarint()
	runs := r.Uvarint()
	if runs > uint64(r.Remaining()) {
		return d, fmt.Errorf("epoch %d claims %d runs in %d bytes", d.Epoch, runs, r.Remaining())
	}
	d.Cells = make([][2]uint64, 0, runs)
	next := uint64(0)
	for i := uint64(0); i < runs && r.Err() == nil; i++ {
		gap := r.Uvarint()
		runLen := r.Uvarint()
		if runLen == 0 {
			return d, fmt.Errorf("epoch %d carries an empty run", d.Epoch)
		}
		if runLen > uint64(r.Remaining()) || gap > maxBinaryBuckets || next+gap+runLen > maxBinaryBuckets {
			return d, fmt.Errorf("epoch %d run %d out of range (gap %d, len %d)", d.Epoch, i, gap, runLen)
		}
		b := next + gap
		for j := uint64(0); j < runLen && r.Err() == nil; j++ {
			d.Cells = append(d.Cells, [2]uint64{b, r.Uvarint()})
			b++
		}
		next = b
	}
	return d, r.Err()
}

// DecodePushAuto decodes a push payload in whichever codec its bytes carry
// — the binary magic selects DecodePushBinary, anything else is treated as
// the JSON envelope. Replay paths (Tracker.Ack, CursorState.Validate) use
// this so a JSON pending payload that an older edge froze restores and
// replays correctly.
func DecodePushAuto(body []byte) (Push, error) {
	if IsBinaryPush(body) {
		return DecodePushBinary(body)
	}
	return DecodePush(body)
}
