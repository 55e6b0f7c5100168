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
	"repro/internal/engine"
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
func streamDiagnostics(st *engine.Stream) StreamDiagnostics {
	users := st.Users()
	age := -1.0
	if lr := st.LastRefresh(); !lr.IsZero() {
		age = time.Since(lr).Seconds()
	}
	cfg := st.Config()
	return StreamDiagnostics{
		Stream:                st.Name(),
		Mechanism:             cfg.Mechanism,
		Epsilon:               cfg.Epsilon,
		Buckets:               cfg.Buckets,
		Users:                 users,
		PendingReports:        st.Pending(),
		LastRefreshAgeSeconds: age,
		Record:                st.Diagnostics().Snapshot(users),
		Window:                windowInfo(st),
	}
}

// handleStreamDiagnostics serves GET /v1/streams/{name}/diagnostics.
func (s *Server) handleStreamDiagnostics(w http.ResponseWriter, _ *http.Request, name string) {
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	writeJSON(w, streamDiagnostics(st))
}

// handleFleetDiagnostics answers GET /v1/diagnostics: every stream's row in
// declaration order, optionally filtered by ?stream= (exact name),
// ?mechanism=, and ?alerting=true|false (drift alert state).
func (s *Server) handleFleetDiagnostics(w http.ResponseWriter, r *http.Request, _ string) {
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
	for _, st := range s.reg.List() {
		if nameF != "" && st.Name() != nameF {
			continue
		}
		if mechF != "" && st.Config().Mechanism != mechF {
			continue
		}
		if alerting != nil && st.Diagnostics().Alerting() != *alerting {
			continue
		}
		out = append(out, streamDiagnostics(st))
	}
	writeJSON(w, FleetDiagnostics{Streams: out})
}
