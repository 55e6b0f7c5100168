package ldphttp

// Uniform error envelope: every non-2xx response across every endpoint —
// /v1, federation, admission control — carries the same JSON shape:
//
//	{"error": {"code": "<machine-readable>", "message": "...",
//	           "retry_after_ms": N}}
//
// plus optional endpoint-specific top-level fields (a pending estimate's
// stream and pending_reports, a federation rejection's full PushResponse).
// Codes are stable API: clients branch on them, messages are for humans.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Stable error codes. Federation rejections additionally use the
// machine-readable reason strings of package federate (seq_gap,
// fingerprint_mismatch, unknown_stream, federation_disabled) as codes.
const (
	// CodeBadRequest: malformed JSON, parameters, or report payloads.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: the resource exists but not under this method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no such route.
	CodeNotFound = "not_found"
	// CodeUnknownStream: the addressed stream is not declared.
	CodeUnknownStream = "unknown_stream"
	// CodeStreamConflict: a declaration conflicts with the live stream.
	CodeStreamConflict = "stream_conflict"
	// CodeStreamMismatch: a /v1/streams/{name}/... body names a different
	// stream than the path.
	CodeStreamMismatch = "stream_mismatch"
	// CodeNoReports: the stream (or window) has no reports to estimate.
	CodeNoReports = "no_reports"
	// CodeEstimatePending: the first reconstruction is still being
	// computed; retry after retry_after_ms.
	CodeEstimatePending = "estimate_pending"
	// CodeNotWindowed: a window selector addressed a stream without epochs.
	CodeNotWindowed = "not_windowed"
	// CodeWindowAgedOut: the requested epoch range fell out of retention.
	CodeWindowAgedOut = "window_aged_out"
	// CodeBodyTooLarge: the request body exceeds the admission bound.
	CodeBodyTooLarge = "body_too_large"
	// CodeUnsupportedMedia: the request declared a Content-Type the
	// endpoint does not speak (absent and application/json always work;
	// ingest endpoints additionally accept application/x-ldp-binary).
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeRateLimited: admission control shed the request; retry after
	// retry_after_ms.
	CodeRateLimited = "rate_limited"
	// CodeNotReady: the server has not finished restoring its snapshot.
	CodeNotReady = "not_ready"
	// CodeEngineStopped / CodeEngineStalled: liveness probe failures.
	CodeEngineStopped = "engine_stopped"
	CodeEngineStalled = "engine_stalled"
)

// ErrorBody is the envelope's "error" object.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, when non-zero, is how long the client should wait
	// before retrying (429 and 503 responses; mirrored in the Retry-After
	// header, which rounds up to whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// RequestID identifies this request in the access log (req_id field)
	// and the X-Request-Id response header — quote it when reporting an
	// error so the operator can find the matching log line and trace.
	RequestID string `json:"request_id,omitempty"`
}

// writeEnvelope writes a non-2xx envelope with optional extra top-level
// fields. A RetryAfterMS also sets the Retry-After header (ceiling of whole
// seconds, minimum 1 — the header has no sub-second syntax).
func writeEnvelope(w http.ResponseWriter, status int, body ErrorBody, extra map[string]any) {
	// Stamp the request ID when the middleware's writer is underneath;
	// minting here (not per request) keeps the 2xx path free of IDs.
	if rw, ok := w.(interface{ requestID() string }); ok {
		body.RequestID = rw.requestID()
	}
	w.Header().Set("Content-Type", "application/json")
	if body.RetryAfterMS > 0 {
		secs := (body.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(status)
	payload := map[string]any{"error": body}
	for k, v := range extra {
		payload[k] = v
	}
	json.NewEncoder(w).Encode(payload)
}

// errorJSON writes a plain envelope (code + formatted message).
func errorJSON(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeEnvelope(w, status, ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}, nil)
}

// retryJSON writes an envelope that asks the client to come back.
func retryJSON(w http.ResponseWriter, status int, code string, retryAfter time.Duration, extra map[string]any, format string, args ...any) {
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	writeEnvelope(w, status, ErrorBody{
		Code: code, Message: fmt.Sprintf(format, args...), RetryAfterMS: ms,
	}, extra)
}

// methodNotAllowed answers an unsupported method the way RFC 9110 asks: 405
// with an Allow header listing what the resource supports ("GET, POST"), in
// the uniform JSON envelope.
func methodNotAllowed(w http.ResponseWriter, r *http.Request, allow string) {
	w.Header().Set("Allow", allow)
	errorJSON(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		"method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow)
}

// decodeJSON decodes a request body and writes the envelope on failure —
// 413 body_too_large when the admission body cap truncated it, 400
// bad_request otherwise. The body must be exactly one JSON value: trailing
// bytes after the first value (`{"report":1}garbage`) are a 400, not
// silently ignored, so a concatenated or corrupted payload can never be
// half-accepted.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dsp := spanOf(w).Child("decode").Attr("codec", codecJSON)
	defer dsp.End()
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			dsp.Fail(CodeBodyTooLarge)
			errorJSON(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds the %d-byte admission bound", tooBig.Limit)
			return false
		}
		dsp.Fail(CodeBadRequest)
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "bad request: %v", err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			dsp.Fail(CodeBodyTooLarge)
			errorJSON(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds the %d-byte admission bound", tooBig.Limit)
			return false
		}
		dsp.Fail(CodeBadRequest)
		errorJSON(w, http.StatusBadRequest, CodeBadRequest,
			"bad request: trailing data after JSON body")
		return false
	}
	return true
}
