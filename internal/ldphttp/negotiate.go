package ldphttp

// Content-Type negotiation for the ingest surface. Every ingest endpoint
// (the v1 report and batch actions, and /federation/push) speaks two
// codecs: the JSON envelope (the default, and what an absent Content-Type
// means) and the compact binary frame of package wire / package federate
// under application/x-ldp-binary. A declared-but-unknown Content-Type is a
// 415 with the stable unsupported_media_type code — never silently parsed
// as JSON — and every accepted request increments
// ldp_codec_requests_total{endpoint, codec}. Responses are always JSON; the
// Accept header is advisory.

import (
	"errors"
	"io"
	"mime"
	"net/http"

	"repro/internal/wire"
)

// Codec labels carried by ldp_codec_requests_total.
const (
	codecJSON   = "json"
	codecBinary = "binary"
)

// negotiateCodec classifies the request's Content-Type for an ingest
// endpoint, answering 415 (and returning ok=false) for media types the
// endpoint does not speak. endpoint is the stable route template, the
// metrics label.
func (s *Server) negotiateCodec(w http.ResponseWriter, r *http.Request, endpoint string) (codec string, ok bool) {
	codec = codecJSON
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil {
			errorJSON(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
				"unparseable Content-Type %q (speak application/json or %s)", ct, wire.ContentType)
			return "", false
		}
		switch mt {
		case "application/json":
		case wire.ContentType:
			codec = codecBinary
		default:
			errorJSON(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
				"unsupported Content-Type %q (speak application/json or %s)", mt, wire.ContentType)
			return "", false
		}
	}
	if m := s.metrics; m != nil {
		m.codecSel.With(endpoint, codec).Inc()
	}
	if sw, isSW := w.(*statusWriter); isSW {
		sw.codec = codec
	}
	return codec, true
}

// readBinaryReports reads and decodes a binary (LDPR) request body into
// wire reports, writing the uniform envelope on failure — 413 when the
// admission body cap truncated the read, 400 for any malformed frame.
func readBinaryReports(w http.ResponseWriter, r *http.Request) ([]WireReport, bool) {
	dsp := spanOf(w).Child("decode").Attr("codec", codecBinary)
	defer dsp.End()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			dsp.Fail(CodeBodyTooLarge)
			errorJSON(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds the %d-byte admission bound", tooBig.Limit)
			return nil, false
		}
		dsp.Fail(CodeBadRequest)
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "bad request: %v", err)
		return nil, false
	}
	raw, err := wire.DecodeReports(body)
	if err != nil {
		dsp.Fail(CodeBadRequest)
		errorJSON(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return nil, false
	}
	reports := make([]WireReport, len(raw))
	for i, rep := range raw {
		reports[i] = WireReport(rep)
	}
	return reports, true
}
