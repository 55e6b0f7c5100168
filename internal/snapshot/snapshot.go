// Package snapshot is the file format of the collector's persisted stream
// state — report histograms, mechanism parameters, and cached
// reconstructions — so a restarted server resumes warm instead of losing
// every report. What a stream's record holds and how it restores is the
// stream engine's (package engine); this package writes and reads files.
//
// The on-disk format is deliberately boring: a one-line header carrying a
// magic string and a CRC32 of the payload, followed by a versioned JSON
// payload. The header makes truncation and corruption detectable before any
// field is trusted, and the JSON keeps snapshots inspectable with standard
// tools. Writes go to a temporary file in the destination directory and are
// published with an atomic rename, so a crash mid-save can never clobber the
// previous good snapshot.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/federate"
)

// magic is the first token of every snapshot file. The trailing 1 is the
// header version; bump it only if the header line itself changes shape.
const magic = "LDPSNAP1"

// ValidName reports whether name is usable as a strict identifier: 1–64
// characters from [A-Za-z0-9._-]. Federation edge IDs enforce this — they
// appear unescaped in metrics labels, log lines and CLI flags. Stream names
// use the wider ValidStreamName.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ValidStreamName reports whether name is usable as a stream identifier:
// 1–64 bytes with no control characters. Stream names are wider than edge
// identifiers (ValidName): they travel percent-escaped in v1 URLs and as
// JSON strings in snapshots and push payloads, so `50%off` or `a b/c` are
// fine. Edge IDs stay on the strict alphabet — they name peers in metrics
// label values and flat config flags.
func ValidStreamName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < 0x20 || c == 0x7f {
			return false
		}
	}
	return true
}

// Version is the current payload version. Load rejects anything newer and
// accepts anything older.
//
// Version history:
//
//	1 — streams with report histograms and cached estimates.
//	2 — adds the optional per-stream Window block (epoch-rotated
//	    collection): rotation clock, sealed epochs and cached window
//	    estimates. A v1 file loads into a v2 build unchanged — its streams
//	    simply have no window state, i.e. their whole history behaves as a
//	    single (live) epoch.
//	3 — adds the per-stream Mechanism identifier (pluggable mechanism
//	    layer) and the raw increment totals cached estimates cover
//	    (EstimateRaw / WindowEstimate.Raw). v1 and v2 files load into a v3
//	    build unchanged: a missing mechanism means "sw" (the only
//	    mechanism those versions could have written) and missing raw
//	    totals fall back to the user counts, which coincide for sw.
//	4 — adds the optional top-level Federation block: on a root, the
//	    per-edge peer high-water marks (last applied push sequence and
//	    absorbed counts per stream/epoch); on an edge, the push cursor
//	    (acked bases, sequence, and the frozen in-flight payload). The
//	    block is captured atomically with the stream histograms, so a
//	    restore can never double-count or lose a federated delta. Files of
//	    version ≤ 3 load into a v4 build with empty federation state.
const Version = 4

// SealedEpoch is one rotated-out epoch of a windowed stream: a frozen dense
// report histogram. Empty epochs carry nil Counts.
type SealedEpoch struct {
	// Index is the global epoch number (epochs count up from 0 and are
	// never reused).
	Index int `json:"index"`
	// Counts is the epoch's report histogram; nil/omitted means empty.
	Counts []uint64 `json:"counts,omitempty"`
	// N is the report total of Counts.
	N uint64 `json:"n,omitempty"`
}

// WindowEstimate is one cached sliding-window reconstruction, persisted so a
// restarted collector serves bit-identical window estimates.
type WindowEstimate struct {
	// Lo, Hi are the inclusive epoch bounds the estimate covers.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// N is the report (user) count the estimate covers; Raw the histogram
	// increment total (0/omitted means N, which is exact for
	// one-cell-per-report mechanisms — all a version ≤ 2 file can carry).
	N   int `json:"n"`
	Raw int `json:"raw,omitempty"`
	// Estimate is the reconstruction (length = stream Buckets).
	Estimate []float64 `json:"estimate"`
}

// Window is the persisted windowing state of an epoch-rotated stream.
type Window struct {
	// EpochNanos is the rotation period in nanoseconds.
	EpochNanos int64 `json:"epoch_nanos"`
	// Retain is the sealed-epoch retention.
	Retain int `json:"retain"`
	// Current is the live epoch's index; StartUnixNanos its start time —
	// together the rotation clock, so a restore resumes mid-epoch.
	Current        int   `json:"current"`
	StartUnixNanos int64 `json:"start_unix_nanos"`
	// Sealed holds the retained sealed epochs, ascending by Index. The
	// live epoch's histogram lives in the enclosing Stream.Counts.
	Sealed []SealedEpoch `json:"sealed,omitempty"`
	// Estimates carries the cached window reconstructions.
	Estimates []WindowEstimate `json:"estimates,omitempty"`
}

// Stream is the persisted state of one named attribute stream.
type Stream struct {
	// Name identifies the stream.
	Name string `json:"name"`
	// Epsilon, Buckets, Mechanism, Bandwidth, Shards are the stream's
	// mechanism and ingestion parameters; a restored stream must be
	// reconstructed with exactly these, or the report histogram is
	// meaningless. An empty Mechanism means "sw" (version ≤ 2 files
	// predate the mechanism layer and were always Square Wave).
	Epsilon   float64 `json:"epsilon"`
	Buckets   int     `json:"buckets"`
	Mechanism string  `json:"mechanism,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	// Counts is the report histogram (length = the mechanism's output
	// granularity, which may differ from Buckets). For a windowed stream
	// this is the live epoch's histogram; sealed epochs live in Window.
	Counts []uint64 `json:"counts"`
	// Window, when present, marks the stream as epoch-rotated and carries
	// its rotation clock, sealed epochs and cached window estimates
	// (payload version ≥ 2).
	Window *Window `json:"window,omitempty"`
	// Estimate optionally carries the cached reconstruction so a restart
	// serves estimates immediately; EstimateN is the report (user) count
	// it covers and EstimateRaw the histogram increment total (0 means
	// EstimateN; the two differ only for fan-out mechanisms).
	Estimate    []float64 `json:"estimate,omitempty"`
	EstimateN   int       `json:"estimate_n,omitempty"`
	EstimateRaw int       `json:"estimate_raw,omitempty"`
}

// MechanismName returns the stream's mechanism, defaulting the empty value
// of version ≤ 2 files to "sw".
func (s *Stream) MechanismName() string {
	if s.Mechanism == "" {
		return "sw"
	}
	return s.Mechanism
}

// N returns the total report count of the persisted histogram.
func (s *Stream) N() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// FederationEpochN is one absorbed-count high-water mark: how many
// histogram increments of one epoch a root has merged from one edge.
type FederationEpochN struct {
	Epoch int    `json:"epoch"`
	N     uint64 `json:"n"`
}

// FederationPeerStream is the per-stream watermark block of one peer.
type FederationPeerStream struct {
	Stream string             `json:"stream"`
	Epochs []FederationEpochN `json:"epochs,omitempty"`
}

// FederationPeer is the root-side state of one edge: replay-detection
// cursor plus absorbed-count watermarks.
type FederationPeer struct {
	Edge          string                 `json:"edge"`
	LastSeq       int64                  `json:"last_seq"`
	LastCRC       string                 `json:"last_crc,omitempty"`
	LastUnixNanos int64                  `json:"last_unix_nanos,omitempty"`
	Reports       uint64                 `json:"reports,omitempty"`
	Dropped       uint64                 `json:"dropped,omitempty"`
	Streams       []FederationPeerStream `json:"streams,omitempty"`
}

// Federation is the optional version-4 federation block. Peers is the root
// side; Push the edge side (a collector can be both, in a tiered fan-in).
type Federation struct {
	Peers []FederationPeer      `json:"peers,omitempty"`
	Push  *federate.CursorState `json:"push,omitempty"`
}

// File is the versioned payload. SavedUnix records the save wall-clock time
// (seconds) for operators; nothing is derived from it.
type File struct {
	Version   int      `json:"version"`
	SavedUnix int64    `json:"saved_unix"`
	Streams   []Stream `json:"streams"`
	// Federation carries the replication cursors (version ≥ 4; absent on
	// collectors that neither push nor accept pushes).
	Federation *Federation `json:"federation,omitempty"`
}

// Save writes the streams to path atomically (no federation state); see
// SaveFile for the full payload.
func Save(path string, streams []Stream) error {
	return SaveFile(path, &File{Streams: streams})
}

// SaveFile writes a full payload to path atomically: the payload lands in a
// temporary file in the same directory (so the rename cannot cross
// filesystems), is synced, and then renamed over path; the directory is
// synced last, so a crash after SaveFile returns cannot undo the rename.
// Version and SavedUnix are stamped here.
func SaveFile(path string, file *File) error {
	stamped := *file
	stamped.Version = Version
	stamped.SavedUnix = time.Now().Unix()
	payload, err := json.Marshal(stamped)
	if err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	header := fmt.Sprintf("%s %08x %d\n", magic, crc32.ChecksumIEEE(payload), len(payload))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ldpsnap-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.WriteString(header); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write %s: %w", tmpName, err)
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmpName, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return fmt.Errorf("snapshot: chmod %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: publish %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("snapshot: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("snapshot: close dir %s: %w", dir, err)
	}
	return nil
}

// Load reads and verifies a snapshot, returning the stream records; see
// LoadFile for the full payload including federation state.
func Load(path string) ([]Stream, error) {
	file, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return file.Streams, nil
}

// LoadFile reads and verifies a snapshot. Truncated, corrupt, or
// version-incompatible files, and records with invalid stream names, return
// a descriptive error; LoadFile never panics on hostile input.
func LoadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	header, err := r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: unreadable header (truncated?): %v", path, err)
	}
	fields := strings.Fields(header)
	if len(fields) != 3 || fields[0] != magic {
		return nil, fmt.Errorf("snapshot: %s: not a snapshot file (bad magic)", path)
	}
	wantCRC, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: malformed checksum %q", path, fields[1])
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("snapshot: %s: malformed payload length %q", path, fields[2])
	}

	var payload bytes.Buffer
	if _, err := payload.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("snapshot: %s: read payload: %v", path, err)
	}
	if payload.Len() != wantLen {
		return nil, fmt.Errorf("snapshot: %s: payload is %d bytes, header promises %d (truncated?)",
			path, payload.Len(), wantLen)
	}
	if got := crc32.ChecksumIEEE(payload.Bytes()); uint32(wantCRC) != got {
		return nil, fmt.Errorf("snapshot: %s: checksum mismatch (file corrupt)", path)
	}

	var file File
	if err := json.Unmarshal(payload.Bytes(), &file); err != nil {
		return nil, fmt.Errorf("snapshot: %s: decode payload: %v", path, err)
	}
	if file.Version < 1 || file.Version > Version {
		return nil, fmt.Errorf("snapshot: %s: payload version %d not supported (this build reads ≤ %d)",
			path, file.Version, Version)
	}
	seen := make(map[string]bool, len(file.Streams))
	for i := range file.Streams {
		st := &file.Streams[i]
		// The file is outside input: a name CreateStream or Declare would
		// refuse must not enter a registry through a restore either.
		if !ValidStreamName(st.Name) {
			return nil, fmt.Errorf("snapshot: %s: stream %d has invalid name %q (want 1-64 bytes with no control characters)",
				path, i, st.Name)
		}
		if seen[st.Name] {
			return nil, fmt.Errorf("snapshot: %s: duplicate stream %q", path, st.Name)
		}
		seen[st.Name] = true
		if st.Epsilon <= 0 {
			return nil, fmt.Errorf("snapshot: %s: stream %q has epsilon %v", path, st.Name, st.Epsilon)
		}
		if st.Buckets < 2 {
			return nil, fmt.Errorf("snapshot: %s: stream %q has %d buckets", path, st.Name, st.Buckets)
		}
		if len(st.Counts) == 0 {
			return nil, fmt.Errorf("snapshot: %s: stream %q has no report histogram", path, st.Name)
		}
		if st.Estimate != nil && len(st.Estimate) != st.Buckets {
			return nil, fmt.Errorf("snapshot: %s: stream %q cached estimate has %d buckets, want %d",
				path, st.Name, len(st.Estimate), st.Buckets)
		}
		if st.Window != nil {
			if err := validateWindow(st.Window, st.Buckets, len(st.Counts)); err != nil {
				return nil, fmt.Errorf("snapshot: %s: stream %q: %v", path, st.Name, err)
			}
		}
	}
	if file.Federation != nil {
		if err := validateFederation(file.Federation); err != nil {
			return nil, fmt.Errorf("snapshot: %s: %v", path, err)
		}
	}
	return &file, nil
}

// validateFederation checks the federation block before any field is
// trusted.
func validateFederation(fed *Federation) error {
	seen := make(map[string]bool, len(fed.Peers))
	for _, p := range fed.Peers {
		if !ValidName(p.Edge) {
			return fmt.Errorf("federation peer has invalid edge id %q", p.Edge)
		}
		if seen[p.Edge] {
			return fmt.Errorf("duplicate federation peer %q", p.Edge)
		}
		seen[p.Edge] = true
		if p.LastSeq < 0 {
			return fmt.Errorf("federation peer %q has negative sequence %d", p.Edge, p.LastSeq)
		}
		streams := make(map[string]bool, len(p.Streams))
		for _, ps := range p.Streams {
			if ps.Stream == "" || streams[ps.Stream] {
				return fmt.Errorf("federation peer %q has a missing or duplicate stream entry", p.Edge)
			}
			streams[ps.Stream] = true
			prev := -1
			for _, ep := range ps.Epochs {
				if ep.Epoch < 0 || ep.Epoch <= prev {
					return fmt.Errorf("federation peer %q stream %q epochs out of order", p.Edge, ps.Stream)
				}
				prev = ep.Epoch
			}
		}
	}
	if fed.Push != nil {
		if err := fed.Push.Validate(); err != nil {
			return fmt.Errorf("federation push cursor: %v", err)
		}
	}
	return nil
}

// validateWindow checks a persisted window block before any field is
// trusted. histBuckets is the report-histogram granularity (sealed epochs
// must match it); estBuckets the reconstruction granularity (cached window
// estimates must match it).
func validateWindow(w *Window, estBuckets, histBuckets int) error {
	if w.EpochNanos <= 0 {
		return fmt.Errorf("window epoch %d ns is not positive", w.EpochNanos)
	}
	if w.Retain < 1 {
		return fmt.Errorf("window retains %d epochs", w.Retain)
	}
	if w.Current < 0 {
		return fmt.Errorf("window current epoch %d is negative", w.Current)
	}
	prev := -1
	for _, ep := range w.Sealed {
		if ep.Index < 0 || ep.Index >= w.Current {
			return fmt.Errorf("sealed epoch %d outside [0, %d)", ep.Index, w.Current)
		}
		if ep.Index <= prev {
			return fmt.Errorf("sealed epochs out of order at %d", ep.Index)
		}
		prev = ep.Index
		if ep.Counts != nil && len(ep.Counts) != histBuckets {
			return fmt.Errorf("sealed epoch %d has %d histogram buckets, want %d",
				ep.Index, len(ep.Counts), histBuckets)
		}
		if ep.Counts == nil && ep.N != 0 {
			return fmt.Errorf("sealed epoch %d claims %d reports with no histogram", ep.Index, ep.N)
		}
	}
	for _, we := range w.Estimates {
		if we.Lo < 0 || we.Hi < we.Lo || we.Hi > w.Current {
			return fmt.Errorf("window estimate range %d..%d outside [0, %d]", we.Lo, we.Hi, w.Current)
		}
		if len(we.Estimate) != estBuckets {
			return fmt.Errorf("window estimate %d..%d has %d buckets, want %d",
				we.Lo, we.Hi, len(we.Estimate), estBuckets)
		}
		if we.N < 0 {
			return fmt.Errorf("window estimate %d..%d has negative N", we.Lo, we.Hi)
		}
	}
	return nil
}
