package ldphttp

// Estimate-quality serving surface: GET /v1/streams/{name}/diagnostics
// returns one stream's full quality record — EM convergence trajectory,
// analytic confidence interval, warm-start effectiveness, and (for windowed
// streams) epoch-over-epoch drift scores with the alert state — and GET
// /v1/diagnostics the fleet-wide view with filters. The records themselves
// are accumulated by the refresh engine (diagnose.Tracker), so serving a
// diagnostic is a lock-snapshot and a JSON encode, never a reconstruction.

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/diagnose"
	"repro/internal/window"
)

// StreamDiagnostics is the body of GET /v1/streams/{name}/diagnostics and
// one row of GET /v1/diagnostics: the stream's identity, its live ingest
// state, and the embedded quality record.
type StreamDiagnostics struct {
	Stream    string  `json:"stream"`
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
	Buckets   int     `json:"buckets"`
	// Users is the report (user) count currently visible to estimates;
	// PendingReports the increments ingested after the published estimate.
	Users          int `json:"users"`
	PendingReports int `json:"pending_reports"`
	// LastRefreshAgeSeconds is the age of the published estimate, -1 until
	// the first refresh publishes one.
	LastRefreshAgeSeconds float64 `json:"last_refresh_age_seconds"`
	diagnose.Record
	// Window carries the epoch-rotation state of a windowed stream.
	Window *WindowInfo `json:"window,omitempty"`
}

// FleetDiagnostics is the body of GET /v1/diagnostics.
type FleetDiagnostics struct {
	Streams []StreamDiagnostics `json:"streams"`
}

// streamDiagnostics assembles one stream's diagnostics row.
func (s *Server) streamDiagnostics(st *stream) StreamDiagnostics {
	users := st.users()
	pending := st.ring.N() - int(st.published.Load())
	if pending < 0 {
		pending = 0
	}
	age := -1.0
	if lr := st.lastRefresh.Load(); lr > 0 {
		age = time.Since(time.Unix(0, lr)).Seconds()
	}
	return StreamDiagnostics{
		Stream:                st.name,
		Mechanism:             st.cfg.Mechanism,
		Epsilon:               st.cfg.Epsilon,
		Buckets:               st.cfg.Buckets,
		Users:                 users,
		PendingReports:        pending,
		LastRefreshAgeSeconds: age,
		Record:                st.diag.Snapshot(users),
		Window:                st.windowInfo(),
	}
}

// windowInfo snapshots the epoch-rotation state, nil for plain streams.
func (st *stream) windowInfo() *WindowInfo {
	if !st.cfg.windowed() {
		return nil
	}
	cur, _ := st.ring.Current()
	return &WindowInfo{
		Epoch:        st.cfg.Epoch,
		Retain:       st.cfg.Retain,
		CurrentEpoch: cur,
		OldestEpoch:  st.ring.Oldest(),
		SealedEpochs: st.ring.SealedLen(),
		LiveN:        st.ring.LiveN(),
	}
}

// serveStreamDiagnostics answers GET /v1/streams/{name}/diagnostics.
func (s *Server) serveStreamDiagnostics(w http.ResponseWriter, name string) {
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	writeJSON(w, s.streamDiagnostics(st))
}

// handleFleetDiagnostics answers GET /v1/diagnostics: every stream's row in
// declaration order, optionally filtered by ?stream= (exact name),
// ?mechanism=, and ?alerting=true|false (drift alert state).
func (s *Server) handleFleetDiagnostics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	q := r.URL.Query()
	var alerting *bool
	if v := q.Get("alerting"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, CodeBadRequest,
				"bad alerting filter %q (want true or false)", v)
			return
		}
		alerting = &b
	}
	nameF, mechF := q.Get("stream"), q.Get("mechanism")
	out := []StreamDiagnostics{}
	for _, st := range s.streamList() {
		if nameF != "" && st.name != nameF {
			continue
		}
		if mechF != "" && st.cfg.Mechanism != mechF {
			continue
		}
		if alerting != nil && st.diag.Alerting() != *alerting {
			continue
		}
		out = append(out, s.streamDiagnostics(st))
	}
	writeJSON(w, FleetDiagnostics{Streams: out})
}

// scoreSealedEpoch reconstructs the epoch that rotation just sealed and
// feeds its lone estimate to the stream's drift tracker. Refresh workers
// only, busy held: the EM workspace and driftScratch are exclusively ours,
// and the main refresh that follows passes its own warm start explicitly,
// so borrowing the workspace here is safe. The sealed epoch is warm-started
// from the previous sealed estimate (falling back to the stream's rolling
// init), which keeps the extra reconstruction a few iterations in steady
// state.
func (s *Server) scoreSealedEpoch(st *stream, rotated int) {
	cur, _ := st.ring.Current()
	sealed := cur - rotated
	if sealed < st.ring.Oldest() {
		return // rotated straight out of retention: nothing to score
	}
	var n int
	var err error
	st.driftScratch, n, err = st.ring.Merge(window.Range{Lo: sealed, Hi: sealed}, st.driftScratch)
	if err != nil || n == 0 {
		return
	}
	init := st.diag.LastEpochEstimate()
	if len(init) == 0 {
		init = st.init
	}
	if len(init) == 0 {
		init = nil
	}
	res := st.agg.EstimateInto(&st.ws, st.driftScratch, init)
	w1, ks, scored, raised := st.diag.ObserveEpoch(sealed, res.Estimate)
	if raised && st.mDriftAlerts != nil {
		st.mDriftAlerts.Inc()
	}
	if scored {
		if st.mDriftW1 != nil {
			st.mDriftW1.Set(w1)
		}
		if st.mDriftKS != nil {
			st.mDriftKS.Set(ks)
		}
	}
}
