package ldphttp

// Federation tier: edge collectors merging into a root over HTTP.
//
// The root side lives here — POST /federation/push validates an edge's
// delta payload (versioned, CRC-checked, fingerprint-carrying; see package
// federate), applies it atomically against the per-edge replay cursor, and
// merges every epoch delta into the matching live or sealed epoch of the
// target stream. GET /federation/peers exposes the per-edge high-water
// marks. The edge side is a federate.Pusher bound to this server through
// EnablePush: it gathers per-stream, per-epoch histogram snapshots, freezes
// deltas, and ships them on a jittered interval with exponential backoff.
//
// Consistency: push application and snapshot capture serialize on fedMu, so
// a snapshot's stream histograms and peer watermarks always agree — a root
// restored from its snapshot detects exactly the replays it must skip.
// Federated increments flow through the same striped histograms as direct
// reports, so the background engine's staleness accounting (published raw
// increments vs. current counts) covers them with no special casing: a push
// leaves pending_reports non-zero until the next engine pass re-estimates.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/federate"
	"repro/internal/snapshot"
	"repro/internal/window"
)

// peerState is the root-side cursor of one edge.
type peerState struct {
	edge     string
	lastSeq  int64
	lastCRC  string
	lastPush time.Time
	reports  uint64 // increments absorbed
	dropped  uint64 // increments dropped (epoch outside the root's window)
	// absorbed is the per-stream, per-epoch high-water mark of merged
	// increments — the audit trail GET /federation/peers serves.
	absorbed map[string]map[int]uint64
}

// PeerEpochInfo is one absorbed-count watermark of GET /federation/peers.
type PeerEpochInfo struct {
	Epoch int    `json:"epoch"`
	N     uint64 `json:"n"`
}

// PeerStreamInfo is the per-stream block of a peer row.
type PeerStreamInfo struct {
	Stream string `json:"stream"`
	// N sums the epochs' absorbed increments.
	N      uint64          `json:"n"`
	Epochs []PeerEpochInfo `json:"epochs,omitempty"`
}

// PeerInfo is one row of GET /federation/peers: everything the root knows
// about one edge. LastSeq is the replay high-water mark — a restarted edge
// resumes against it without double counting.
type PeerInfo struct {
	Edge     string           `json:"edge"`
	LastSeq  int64            `json:"last_seq"`
	LastPush string           `json:"last_push,omitempty"`
	Reports  uint64           `json:"reports"`
	Dropped  uint64           `json:"dropped,omitempty"`
	Streams  []PeerStreamInfo `json:"streams,omitempty"`
}

// Peers lists every edge that has pushed to this root, sorted by edge id.
func (s *Server) Peers() []PeerInfo {
	s.fedMu.Lock()
	defer s.fedMu.Unlock()
	return s.peersLocked()
}

func (s *Server) peersLocked() []PeerInfo {
	out := make([]PeerInfo, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, p.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Edge < out[j].Edge })
	return out
}

func (p *peerState) info() PeerInfo {
	info := PeerInfo{
		Edge:    p.edge,
		LastSeq: p.lastSeq,
		Reports: p.reports,
		Dropped: p.dropped,
	}
	if !p.lastPush.IsZero() {
		info.LastPush = p.lastPush.UTC().Format(time.RFC3339Nano)
	}
	names := make([]string, 0, len(p.absorbed))
	for name := range p.absorbed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		psi := PeerStreamInfo{Stream: name}
		epochs := make([]int, 0, len(p.absorbed[name]))
		for e := range p.absorbed[name] {
			epochs = append(epochs, e)
		}
		sort.Ints(epochs)
		for _, e := range epochs {
			n := p.absorbed[name][e]
			psi.Epochs = append(psi.Epochs, PeerEpochInfo{Epoch: e, N: n})
			psi.N += n
		}
		info.Streams = append(info.Streams, psi)
	}
	return info
}

func (s *Server) handleFederationPeers(w http.ResponseWriter, _ *http.Request, _ string) {
	writeJSON(w, map[string]any{"peers": s.Peers()})
}

// maxPushBytes bounds a push payload (64 MiB holds thousands of dense
// 4096-bucket streams; anything bigger is hostile or misconfigured).
const maxPushBytes = 64 << 20

func (s *Server) handleFederationPush(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.cfg.Federation.Accept {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		writeJSONBody(w, federate.PushResponse{
			Error:  "this collector does not accept federation pushes (start it with -accept-federation)",
			Reason: federate.ReasonDisabled,
		})
		return
	}
	codec, ok := s.negotiateCodec(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPushBytes))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "read push payload: %v", err)
		return
	}
	// The declared Content-Type picks the decoder; the body is never
	// sniffed here, so a mislabeled payload fails loudly instead of being
	// guessed at.
	decode := federate.DecodePush
	if codec == codecBinary {
		decode = federate.DecodePushBinary
	}
	push, err := decode(body)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if !snapshot.ValidName(push.Edge) {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest,
			"invalid edge id %q (want 1-64 chars of [A-Za-z0-9._-])", push.Edge)
		return
	}
	// The per-edge admission tier sits after edge-id validation (so the key
	// space stays operator-controlled) and before the engine: a runaway edge
	// is shed here without touching cursors or histograms.
	if s.edgeLim != nil {
		if ok, retry := s.edgeLim.Allow(push.Edge); !ok {
			if m := s.metrics; m != nil {
				m.shed.With("/federation/push", "edge").Inc()
			}
			retryJSON(w, http.StatusTooManyRequests, CodeRateLimited, retry, nil,
				"edge %q is pushing faster than the root admits; retry in %v", push.Edge, retry)
			return
		}
	}

	asp := spanOf(w).Child("absorb").Attr("edge", push.Edge).Attr("seq", fmt.Sprintf("%d", push.Seq))
	resp, status := s.applyPush(push)
	switch {
	case resp.Applied:
		asp.Attr("reports", fmt.Sprintf("%d", resp.Reports))
	case resp.Duplicate:
		asp.Attr("duplicate", "true")
	default:
		code := resp.Reason
		if code == "" {
			code = CodeBadRequest
		}
		asp.Fail(code)
	}
	asp.End()
	if resp.Applied {
		// Mint link markers for the sampled edge ingest traces this push
		// carried: the edge's trace IDs become findable in the root's
		// flight recorder even though the reports arrive pre-aggregated.
		for _, id := range parseTraceLinks(r.Header.Get("X-LDP-Trace-Link")) {
			s.tracer.Link(id, "federation/absorb-link").Attr("edge", push.Edge).End()
		}
	}
	if m := s.metrics; m != nil {
		switch {
		case resp.Duplicate:
			m.fedDuplicates.With(push.Edge).Inc()
		case resp.Applied:
			m.fedAbsorbed.With(push.Edge).Add(resp.Reports)
			var dropped uint64
			for _, sr := range resp.Streams {
				dropped += sr.DroppedN
			}
			if dropped > 0 {
				m.fedDropped.With(push.Edge).Add(dropped)
			}
		default:
			code := resp.Reason
			if code == "" {
				code = CodeBadRequest
			}
			m.fedRejects.With(push.Edge, code).Inc()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSONBody(w, resp)
}

// applyPush runs the replay-cursor state machine under fedMu and, for an
// in-sequence push, validates every stream fingerprint before merging
// anything: a push is applied in full or not at all (epoch drops excepted —
// those are time-window misses, counted and reported, never a rejection).
// Streams a root auto-declares for the push are built unregistered and
// registered only once every stream of the push has validated.
func (s *Server) applyPush(push federate.Push) (federate.PushResponse, int) {
	s.fedMu.Lock()
	defer s.fedMu.Unlock()
	// A peer entry is registered only once a push from it applies: a
	// rejected or malformed push must not leave cursor state behind.
	peer := s.peers[push.Edge]
	if peer == nil {
		peer = &peerState{edge: push.Edge, absorbed: make(map[string]map[int]uint64)}
	}
	resp := federate.PushResponse{Seq: push.Seq, LastSeq: peer.lastSeq}
	switch {
	case push.Seq <= peer.lastSeq:
		// Replay of an already-applied sequence: skip, and prove which
		// payload was applied so the edge can fold (or detect divergence).
		resp.Duplicate = true
		if push.Seq == peer.lastSeq {
			resp.CRC = peer.lastCRC
		}
		return resp, http.StatusOK
	case push.Seq > peer.lastSeq+1:
		resp.Reason = federate.ReasonSeqGap
		resp.Error = fmt.Sprintf("push seq %d but the high-water mark for edge %q is %d",
			push.Seq, push.Edge, peer.lastSeq)
		return resp, http.StatusConflict
	}
	reject := func(status int, reason, format string, args ...any) (federate.PushResponse, int) {
		resp.Reason, resp.Error = reason, fmt.Sprintf(format, args...)
		return resp, status
	}

	// Validate every stream first; nothing merges, and nothing is
	// declared, unless all of them fit.
	targets := make([]*engine.Stream, len(push.Streams))
	dense := make([][][]uint64, len(push.Streams))
	var cands []*engine.Stream
	var candAt []int // the push index of each candidate
	for i, sd := range push.Streams {
		st := s.lookup(sd.Stream)
		if st == nil {
			if !s.cfg.Federation.AutoDeclare {
				return reject(http.StatusConflict, federate.ReasonUnknownStream,
					"unknown stream %q (declare it, or start the root with auto-declaration)", sd.Stream)
			}
			var err error
			if st, err = s.autoDeclareCandidate(sd.Stream, sd.Fingerprint); err != nil {
				return reject(http.StatusConflict, federate.ReasonFingerprint, "auto-declare stream %q: %v", sd.Stream, err)
			}
			cands, candAt = append(cands, st), append(candAt, i)
		}
		if fp := fingerprintOf(st); !fp.Equal(sd.Fingerprint) {
			return reject(http.StatusConflict, federate.ReasonFingerprint,
				"stream %q fingerprint mismatch: edge has [%s], root has [%s]", sd.Stream, sd.Fingerprint, fp)
		}
		dense[i] = make([][]uint64, len(sd.Epochs))
		for j, d := range sd.Epochs {
			counts, err := d.Dense(st.Ring().Buckets())
			if err != nil {
				return reject(http.StatusBadRequest, "", "stream %q: %v", sd.Stream, err)
			}
			if !st.Config().Windowed() && d.Epoch != 0 {
				return reject(http.StatusBadRequest, "",
					"stream %q is not windowed but the delta addresses epoch %d", sd.Stream, d.Epoch)
			}
			dense[i][j] = counts
		}
		targets[i] = st
	}
	if len(cands) > 0 {
		// A name declared meanwhile resolves to that stream only when it
		// counts the same epochs — the same fingerprint — or fails the push.
		registered, err := s.reg.Register(cands)
		if err != nil {
			return reject(http.StatusConflict, federate.ReasonFingerprint, "auto-declare: %v", err)
		}
		for j, i := range candAt {
			targets[i] = registered[j]
		}
	}

	// Merge. Rotation happens first (as in the engine) so a delta addressed
	// at an epoch the root's clock has reached but the engine has not yet
	// sealed still lands correctly.
	for i, sd := range push.Streams {
		st := targets[i]
		st.Advance(s.reg.Now())
		result := federate.StreamResult{Stream: sd.Stream}
		for j, d := range sd.Epochs {
			// An epoch outside the root's window (aged out, or not started
			// on the root's clock) is dropped and reported, never rejected.
			if err := st.Ring().AddEpochCounts(d.Epoch, dense[i][j]); err != nil {
				result.DroppedEpochs = append(result.DroppedEpochs, d.Epoch)
				result.DroppedN += d.N
				peer.dropped += d.N
				continue
			}
			result.AppliedEpochs++
			result.N += d.N
			absorbed := peer.absorbed[sd.Stream]
			if absorbed == nil {
				absorbed = make(map[int]uint64)
				peer.absorbed[sd.Stream] = absorbed
			}
			absorbed[d.Epoch] += d.N
		}
		resp.Reports += result.N
		peer.reports += result.N
		resp.Streams = append(resp.Streams, result)
		s.pruneWatermarksLocked(st)
		st.Absorbed() // the engine re-estimates the touched stream
	}
	peer.lastSeq = push.Seq
	peer.lastCRC = push.CRC
	peer.lastPush = s.reg.Now()
	s.peers[push.Edge] = peer
	resp.Applied = true
	resp.LastSeq = push.Seq
	return resp, http.StatusOK
}

// autoDeclareCandidate builds, unregistered, the stream a pushed
// fingerprint declares. A windowed stream adopts the edge's epoch origin,
// so the root's epoch indexes mean the same wall-clock intervals as the
// pushing edge's — the alignment the index-keyed delta protocol requires.
func (s *Server) autoDeclareCandidate(name string, fp federate.Fingerprint) (*engine.Stream, error) {
	st, err := s.reg.NewStream(name, s.engineConfig(StreamConfig{
		Epsilon:   fp.Epsilon,
		Buckets:   fp.Buckets,
		Mechanism: fp.Mechanism,
		Bandwidth: fp.Bandwidth,
		Epoch:     Duration(fp.EpochNanos),
		Retain:    fp.Retain,
	}))
	if err != nil {
		return nil, err
	}
	if fp.EpochNanos > 0 {
		// Re-anchor the pristine ring on the edge's origin, fast-forwarded
		// to the epoch the root's clock is in now (the gap epochs never
		// existed here, so there is nothing to seal).
		origin := fp.EpochOriginNanos
		now := s.reg.Now().UnixNano()
		cur := 0
		if now > origin {
			cur = int((now - origin) / fp.EpochNanos)
		}
		if err := st.Ring().Adopt(window.State{
			Epoch:   time.Duration(fp.EpochNanos),
			Retain:  st.Config().Retain,
			Current: cur,
			Start:   time.Unix(0, origin+int64(cur)*fp.EpochNanos),
		}); err != nil {
			return nil, fmt.Errorf("align stream %q to edge epoch origin: %w", name, err)
		}
	}
	return st, nil
}

// fingerprintOf computes a stream's federation fingerprint. Bandwidth is the
// resolved effective value (mechanism params), not the declared one, so
// "declare 0 = optimal" and "declare the optimum explicitly" match. For a
// windowed stream the fingerprint also pins the epoch origin — the
// wall-clock instant of epoch 0, invariant under rotation — because
// index-keyed deltas are only meaningful between streams whose indexes name
// the same wall-clock intervals.
func fingerprintOf(st *engine.Stream) federate.Fingerprint {
	cfg, mech := st.Config(), st.Mechanism()
	fp := federate.Fingerprint{
		Mechanism:     cfg.Mechanism,
		Epsilon:       cfg.Epsilon,
		Buckets:       cfg.Buckets,
		OutputBuckets: mech.OutputBuckets(),
		Bandwidth:     mech.Params().Bandwidth,
		EpochNanos:    int64(cfg.Epoch),
		Retain:        cfg.Retain,
	}
	if cfg.Windowed() {
		fp.EpochOriginNanos = st.EpochOrigin().UnixNano()
	}
	return fp
}

// federationStates gathers every stream's per-epoch histogram for the edge
// pusher: every retained sealed epoch plus the live one, keyed by global
// index — for a plain stream, the single epoch 0 (nil counts when empty).
func (s *Server) federationStates() []federate.StreamState {
	list := s.reg.List()
	out := make([]federate.StreamState, 0, len(list))
	for _, st := range list {
		state := federate.StreamState{Name: st.Name(), Fingerprint: fingerprintOf(st)}
		rs := st.Ring().State()
		for _, ep := range rs.Sealed {
			state.Epochs = append(state.Epochs, federate.EpochCounts{Epoch: ep.Index, Counts: ep.Counts})
		}
		state.Epochs = append(state.Epochs, federate.EpochCounts{Epoch: rs.Current, Counts: rs.Live})
		out = append(out, state)
	}
	return out
}

// pruneWatermarksLocked drops absorbed-count entries for epochs that aged
// out of the stream's retention — they can never be pushed again, so the
// audit map stays bounded by the ring size (a plain stream's epoch 0 never
// ages out). Caller holds fedMu.
func (s *Server) pruneWatermarksLocked(st *engine.Stream) {
	oldest := st.Ring().Oldest()
	for _, peer := range s.peers {
		for epoch := range peer.absorbed[st.Name()] {
			if epoch < oldest {
				delete(peer.absorbed[st.Name()], epoch)
			}
		}
	}
}

// PushOptions configures this server's edge side: a background loop shipping
// delta pushes to a root collector.
type PushOptions struct {
	// URL is the root's base URL; Edge this collector's stable identity at
	// the root. Both required.
	URL  string
	Edge string
	// Interval is the push cadence (0 = 10s, jittered ±10%).
	Interval time.Duration
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Persist is the write-ahead hook: called after a new delta payload is
	// frozen and before its first transmission (pass a SaveSnapshot
	// closure so a crash replays the identical bytes). Optional — without
	// it, an edge that crashes mid-push and restarts without a snapshot
	// re-ships from scratch, which the root's replay cursor still keeps
	// exact.
	Persist func() error
	// Binary is ignored: an edge always freezes its pushes in the binary
	// codec (Content-Type application/x-ldp-binary), and a pending payload
	// restored from an older snapshot replays in the codec it was frozen in.
	//
	// Deprecated: it chose between the JSON and binary codecs, and remains
	// only so existing callers compile.
	Binary bool
	// Logf receives push-loop diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// EnablePush starts the edge side: a federate.Pusher shipping this server's
// streams to the root at opts.URL until Close. The push cursor of an
// earlier LoadSnapshot is adopted, so the boot order "declare streams →
// restore snapshot → enable push" resumes the sequence exactly; after
// EnablePush, LoadSnapshot refuses. EnablePush can be called at most once.
func (s *Server) EnablePush(opts PushOptions) error {
	if !snapshot.ValidName(opts.Edge) {
		return fmt.Errorf("ldphttp: invalid edge id %q (want 1-64 chars of [A-Za-z0-9._-])", opts.Edge)
	}
	s.fedMu.Lock()
	if s.pusher != nil {
		s.fedMu.Unlock()
		return fmt.Errorf("ldphttp: push already enabled")
	}
	tracker := federate.NewTracker()
	if s.restoredCursor != nil {
		if err := tracker.Restore(*s.restoredCursor); err != nil {
			s.fedMu.Unlock()
			return fmt.Errorf("ldphttp: restore push cursor: %w", err)
		}
		s.restoredCursor = nil
	}
	pusher, err := federate.NewPusher(federate.PusherConfig{
		URL:        opts.URL,
		Edge:       opts.Edge,
		Interval:   opts.Interval,
		HTTPClient: opts.HTTPClient,
		Gather:     s.federationStates,
		Persist:    opts.Persist,
		Logf:       opts.Logf,
		Tracer:     s.tracer,
		TraceLinks: s.links.drain,
	}, tracker)
	if err != nil {
		s.fedMu.Unlock()
		return err
	}
	s.pusher = pusher
	s.fedMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		pusher.Run(s.done)
	}()
	return nil
}

// PushNow performs one synchronous push attempt (tests, shutdown flush). It
// reports whether a payload was acknowledged; (false, nil) means there was
// nothing to ship.
func (s *Server) PushNow() (bool, error) {
	s.fedMu.Lock()
	pusher := s.pusher
	s.fedMu.Unlock()
	if pusher == nil {
		return false, fmt.Errorf("ldphttp: push not enabled")
	}
	return pusher.PushOnce()
}

// PushStatus reports the edge push loop's health (zero value when push is
// not enabled).
func (s *Server) PushStatus() federate.PusherStatus {
	s.fedMu.Lock()
	pusher := s.pusher
	s.fedMu.Unlock()
	if pusher == nil {
		return federate.PusherStatus{}
	}
	return pusher.Status()
}

// federationRecordLocked captures the federation block for a snapshot:
// peer cursors (root side) and the push cursor (edge side). Caller holds
// fedMu. Returns nil when there is nothing to persist.
func (s *Server) federationRecordLocked() *snapshot.Federation {
	var fed snapshot.Federation
	for _, info := range s.peersLocked() {
		p := s.peers[info.Edge]
		rec := snapshot.FederationPeer{
			Edge:    p.edge,
			LastSeq: p.lastSeq,
			LastCRC: p.lastCRC,
			Reports: p.reports,
			Dropped: p.dropped,
		}
		if !p.lastPush.IsZero() {
			rec.LastUnixNanos = p.lastPush.UnixNano()
		}
		for _, ps := range info.Streams {
			rs := snapshot.FederationPeerStream{Stream: ps.Stream}
			for _, ep := range ps.Epochs {
				rs.Epochs = append(rs.Epochs, snapshot.FederationEpochN{Epoch: ep.Epoch, N: ep.N})
			}
			rec.Streams = append(rec.Streams, rs)
		}
		fed.Peers = append(fed.Peers, rec)
	}
	if s.pusher != nil {
		cs := s.pusher.Tracker().State()
		fed.Push = &cs
	} else if s.restoredCursor != nil {
		// Loaded but never enabled: carry the cursor forward unchanged.
		cs := *s.restoredCursor
		fed.Push = &cs
	}
	if len(fed.Peers) == 0 && fed.Push == nil {
		return nil
	}
	return &fed
}

// restorePeersLocked installs a snapshot's root-side peer cursors. Caller
// holds fedMu. The peer cursors replace any same-named live ones — the
// snapshot's histograms already include those peers' contributions, so
// keeping a newer in-memory cursor would desynchronize the two.
func (s *Server) restorePeersLocked(fed *snapshot.Federation) {
	for _, rec := range fed.Peers {
		p := &peerState{
			edge:     rec.Edge,
			lastSeq:  rec.LastSeq,
			lastCRC:  rec.LastCRC,
			reports:  rec.Reports,
			dropped:  rec.Dropped,
			absorbed: make(map[string]map[int]uint64, len(rec.Streams)),
		}
		if rec.LastUnixNanos != 0 {
			p.lastPush = time.Unix(0, rec.LastUnixNanos)
		}
		for _, ps := range rec.Streams {
			m := make(map[int]uint64, len(ps.Epochs))
			for _, ep := range ps.Epochs {
				m[ep.Epoch] = ep.N
			}
			p.absorbed[ps.Stream] = m
		}
		s.peers[rec.Edge] = p
	}
}

// writeJSONBody encodes v without touching headers (the caller already wrote
// the status line).
func writeJSONBody(w http.ResponseWriter, v any) {
	json.NewEncoder(w).Encode(v)
}
