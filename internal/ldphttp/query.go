package ldphttp

// HTTP surface of the analytics layer (package query): GET
// /v1/streams/{name}/query answers a single query from URL parameters, POST
// answers a batch against one consistent snapshot of the stream's estimate.

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/query"
)

// QueryResponse is the JSON shape of a GET query answer: the evaluated
// query.Response plus the provenance of the estimate it was computed from.
type QueryResponse struct {
	Stream string `json:"stream"`
	// N is the number of reports covered by the estimate the answer was
	// computed from; PendingReports how many arrived after it.
	N              int `json:"n"`
	PendingReports int `json:"pending_reports,omitempty"`
	// Window and Epochs echo the sliding-window the answer was computed
	// over (absent on whole-stream queries).
	Window string      `json:"window,omitempty"`
	Epochs *EpochRange `json:"epochs,omitempty"`
	query.Response
}

// BatchQueryResponse is the JSON shape of a POST query answer.
type BatchQueryResponse struct {
	Stream         string           `json:"stream"`
	N              int              `json:"n"`
	PendingReports int              `json:"pending_reports,omitempty"`
	Window         string           `json:"window,omitempty"`
	Epochs         *EpochRange      `json:"epochs,omitempty"`
	Results        []query.Response `json:"results"`
}

// handleQueryGet serves GET /v1/streams/{name}/query.
func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request, name string) {
	params := r.URL.Query()
	req, err := parseQueryParams(params)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	cached, ok := s.loadEstimate(w, st, params.Get("window"))
	if !ok {
		return
	}
	qsp := spanOf(w).Child("query/eval")
	qsp.SetStream(st.Name())
	resp, err := query.Eval(cached.Distribution, cached.N, req)
	qsp.End()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, QueryResponse{
		Stream:         st.Name(),
		N:              cached.N,
		PendingReports: cached.PendingReports,
		Window:         cached.Window,
		Epochs:         cached.Epochs,
		Response:       resp,
	})
}

type batchQueryRequest struct {
	// Stream is optional; when present it must name the stream the path
	// addresses.
	Stream string `json:"stream"`
	// Window optionally scopes the whole batch to one sliding window
	// ("last:K" or "epochs:i..j"), so every answer reads the same epoch
	// range.
	Window  string          `json:"window,omitempty"`
	Queries []query.Request `json:"queries"`
}

// handleQueryPost serves POST /v1/streams/{name}/query.
func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request, name string) {
	var req batchQueryRequest
	if !decodeJSON(w, r, &req) || !streamMatches(w, name, req.Stream) {
		return
	}
	if len(req.Queries) == 0 {
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "empty query batch")
		return
	}
	// Validate the whole batch before evaluating anything, so a bad query
	// in the middle cannot produce a half-answered 400.
	for i, q := range req.Queries {
		if err := query.Validate(q); err != nil {
			errorJSON(w, http.StatusBadRequest, CodeBadRequest, "query %d: %v", i, err)
			return
		}
	}
	st := s.resolveStream(w, name)
	if st == nil {
		return
	}
	cached, ok := s.loadEstimate(w, st, req.Window)
	if !ok {
		return
	}
	// Every query in the batch reads the same cached estimate, so the
	// answers are mutually consistent even under concurrent ingestion.
	qsp := spanOf(w).Child("query/eval").Attr("queries", fmt.Sprintf("%d", len(req.Queries)))
	qsp.SetStream(st.Name())
	results := make([]query.Response, len(req.Queries))
	for i, q := range req.Queries {
		resp, err := query.Eval(cached.Distribution, cached.N, q)
		if err != nil {
			qsp.Fail(CodeBadRequest).End()
			errorJSON(w, http.StatusBadRequest, CodeBadRequest, "query %d: %v", i, err)
			return
		}
		results[i] = resp
	}
	qsp.End()
	writeJSON(w, BatchQueryResponse{
		Stream:         st.Name(),
		N:              cached.N,
		PendingReports: cached.PendingReports,
		Window:         cached.Window,
		Epochs:         cached.Epochs,
		Results:        results,
	})
}

// parseQueryParams maps GET query URL parameters onto a query.Request:
// type (required), q (comma-separated points for quantile/cdf), lo/hi
// (range), k (topk).
func parseQueryParams(params url.Values) (query.Request, error) {
	req := query.Request{Type: query.Type(params.Get("type"))}
	if raw := params.Get("q"); raw != "" {
		for _, tok := range strings.Split(raw, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return req, fmt.Errorf("bad q value %q", tok)
			}
			req.Qs = append(req.Qs, v)
		}
	}
	var err error
	if req.Lo, err = parseFloatParam(params, "lo", 0); err != nil {
		return req, err
	}
	if req.Hi, err = parseFloatParam(params, "hi", 0); err != nil {
		return req, err
	}
	if raw := params.Get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			return req, fmt.Errorf("bad k value %q", raw)
		}
		req.K = k
	}
	return req, query.Validate(req)
}

func parseFloatParam(params url.Values, name string, def float64) (float64, error) {
	raw := params.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return def, fmt.Errorf("bad %s value %q", name, raw)
	}
	return v, nil
}
