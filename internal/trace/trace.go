// Package trace is the zero-dependency request-tracing core of the
// collection server: lightweight spans (stage name, stream, monotonic
// start/duration, key/value attributes, parent/child links) recorded into a
// fixed-capacity ring-buffer flight recorder, with W3C traceparent-style
// context that crosses process boundaries as an HTTP header — so one trace
// ID stamped by a reporting client is recoverable at the edge that ingested
// the batch and at the root that absorbed the edge's federation push.
//
// The design target is the same as package telemetry's: the untraced hot
// path must pay almost nothing. Sampling is decided once per request (one
// atomic add), an unsampled request produces a nil *Span, and every Span
// method is nil-safe, so instrumented code calls Child/Attr/End
// unconditionally with no branches of its own. Only sampled spans allocate.
//
// Recording is lock-free: the recorder is a ring of span pointers, and
// finishing a span takes the next sequence number with one atomic increment
// and publishes the span itself into that sequence's slot with one atomic
// store. A finished span never changes again, so readers (the
// /v1/debug/traces handler) copy records out of the ring without blocking
// any writer.
package trace

import (
	"encoding/hex"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"
)

// SpanContext is the propagated identity of a trace: who the current span
// is, which trace it belongs to, and whether the trace is being recorded.
// It travels between processes as a W3C traceparent header value.
type SpanContext struct {
	// TraceID is 32 lowercase hex characters shared by every span of the
	// trace; SpanID is the 16-hex identity of the current span.
	TraceID string
	SpanID  string
	// Sampled is the recording decision, made once at the trace root and
	// carried with the context: unsampled traces produce no spans anywhere.
	Sampled bool
}

// zeroTraceID / zeroSpanID are the all-zero identifiers the W3C spec
// declares invalid.
const (
	zeroTraceID = "00000000000000000000000000000000"
	zeroSpanID  = "0000000000000000"
)

// Valid reports whether the context identifies a trace.
func (sc SpanContext) Valid() bool {
	return len(sc.TraceID) == 32 && len(sc.SpanID) == 16 &&
		isHex(sc.TraceID) && sc.TraceID != zeroTraceID &&
		isHex(sc.SpanID) && sc.SpanID != zeroSpanID
}

// Header renders the context as a W3C traceparent value:
// "00-{trace-id}-{parent-id}-{flags}" with flag 01 = sampled.
func (sc SpanContext) Header() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. Unknown versions
// are accepted when they keep the version-00 field layout (per the spec's
// forward-compatibility rule); anything malformed is (zero, false).
func ParseTraceparent(h string) (SpanContext, bool) {
	// The empty header is by far the common case (every header-less
	// request); it must not allocate.
	if h == "" {
		return SpanContext{}, false
	}
	parts := strings.SplitN(strings.TrimSpace(h), "-", 4)
	if len(parts) < 4 || len(parts[0]) != 2 || !isHex(parts[0]) || parts[0] == "ff" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: strings.ToLower(parts[1]), SpanID: strings.ToLower(parts[2])}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	flags := parts[3]
	if len(flags) < 2 || !isHex(flags[:2]) {
		return SpanContext{}, false
	}
	b, _ := hex.DecodeString(flags[:2])
	sc.Sampled = b[0]&1 == 1
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return len(s) > 0
}

// ids generates random trace/span identifiers. math/rand/v2's top-level
// generator is fine here: identifiers need to be unique with high
// probability, not unpredictable, and it is allocation-free and fast.
func newTraceID() string {
	var b [16]byte
	fill(b[:])
	return hex.EncodeToString(b[:])
}

func newSpanID() string {
	var b [8]byte
	fill(b[:])
	return hex.EncodeToString(b[:])
}

func fill(b []byte) {
	for len(b) >= 8 {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		b = b[8:]
	}
	if len(b) > 0 {
		v := rand.Uint64()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// NewContext mints a fresh sampled root context — what a reporting client
// stamps on a batch before any span exists for it.
func NewContext() SpanContext {
	return SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
}

// Attr is one key/value attribute on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Record is one finished span as the flight recorder stores and serves it.
type Record struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Stage names the pipeline stage ("http /v1/streams/{name}/report",
	// "decode", "bucketize", "ingest", "em/refresh", "federation/push", ...).
	Stage string `json:"stage"`
	// Stream is the attribute stream the span worked on ("" when the stage
	// is not stream-scoped).
	Stream string `json:"stream,omitempty"`
	// Start is the wall-clock start; Duration is measured on the monotonic
	// clock between Start and End (Start carries the monotonic reading).
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	// Err carries the failure code of a span that ended in error.
	Err string `json:"error,omitempty"`
}

// Span is one in-flight operation. A nil *Span is the unsampled case and
// every method on it is a no-op, so instrumentation sites never branch.
// Once ended, a span is the flight recorder's record and never changes:
// SetStream, Attr and Fail become no-ops.
type Span struct {
	tracer *Tracer
	rec    Record
	seq    uint64 // 1-based recorder sequence, assigned by End
	ended  atomic.Bool
}

// Context returns the span's propagation context (zero for nil spans).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.rec.TraceID, SpanID: sp.rec.SpanID, Sampled: true}
}

// TraceID returns the span's trace identifier ("" for nil spans).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.rec.TraceID
}

// Child starts a sub-span of sp in the same trace.
func (sp *Span) Child(stage string) *Span {
	if sp == nil {
		return nil
	}
	child := sp.tracer.newSpan(stage)
	child.rec.TraceID = sp.rec.TraceID
	child.rec.ParentID = sp.rec.SpanID
	child.rec.Stream = sp.rec.Stream
	return child
}

// live reports whether the span can still be changed: sampled and not
// ended.
func (sp *Span) live() bool { return sp != nil && !sp.ended.Load() }

// SetStream scopes the span (and the children created after this call) to a
// stream.
func (sp *Span) SetStream(name string) {
	if sp.live() {
		sp.rec.Stream = name
	}
}

// Attr appends one key/value attribute; chainable.
func (sp *Span) Attr(key, value string) *Span {
	if sp.live() {
		sp.rec.Attrs = append(sp.rec.Attrs, Attr{Key: key, Value: value})
	}
	return sp
}

// Fail marks the span as ended-in-error with a machine-readable code.
func (sp *Span) Fail(code string) *Span {
	if sp.live() {
		sp.rec.Err = code
	}
	return sp
}

// End finishes the span and records it in the flight recorder. End is
// idempotent: the first call wins, later ones are no-ops.
func (sp *Span) End() {
	if sp == nil || !sp.ended.CompareAndSwap(false, true) {
		return
	}
	sp.rec.Duration = time.Since(sp.rec.Start)
	sp.tracer.record(sp)
}

// Config parameterizes a Tracer. The zero value is usable: a 4096-span
// recorder sampling 1 in 128 header-less report requests.
type Config struct {
	// Capacity is the flight recorder's span count (default 4096, minimum
	// 64): the recorder keeps the most recent Capacity finished spans.
	Capacity int
	// SampleEvery is the probabilistic knob for the per-report hot path:
	// a header-less ingest request is traced once every SampleEvery
	// requests (1 = every request, default 128). Requests arriving with a
	// sampled traceparent, and every engine/federation span, are always
	// recorded. Negative disables header-less sampling entirely.
	SampleEvery int
}

func (c Config) filled() Config {
	if c.Capacity == 0 {
		c.Capacity = 4096
	}
	if c.Capacity < 64 {
		c.Capacity = 64
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 128
	}
	return c
}

// Tracer samples traces and records finished spans. A nil *Tracer is the
// disabled subsystem: every method is a no-op returning nil spans.
type Tracer struct {
	cfg Config
	// ring holds the most recent finished spans: the span of sequence
	// number seq is published into ring[(seq−1) mod Capacity].
	ring []atomic.Pointer[Span]
	head atomic.Uint64 // last sequence number assigned (0 = none)
	tick atomic.Uint64 // sampling counter
}

// New builds a tracer with its flight recorder.
func New(cfg Config) *Tracer {
	cfg = cfg.filled()
	return &Tracer{cfg: cfg, ring: make([]atomic.Pointer[Span], cfg.Capacity)}
}

// Capacity reports the flight recorder's span capacity (0 for nil tracers).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.cfg.Capacity
}

// Recorded reports how many spans have ever been recorded (0 for nil
// tracers); min(Recorded, Capacity) of them are still in the recorder.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.head.Load()
}

// SampleReport is the probabilistic hot-path decision for a header-less
// ingest request: true once every SampleEvery calls. One atomic add.
func (t *Tracer) SampleReport() bool {
	if t == nil || t.cfg.SampleEvery < 0 {
		return false
	}
	if t.cfg.SampleEvery <= 1 {
		return true
	}
	return t.tick.Add(1)%uint64(t.cfg.SampleEvery) == 1
}

func (t *Tracer) newSpan(stage string) *Span {
	return &Span{tracer: t, rec: Record{SpanID: newSpanID(), Stage: stage, Start: time.Now()}}
}

// NewTrace starts a recorded root span in a fresh trace — the always-on
// entry point for engine and federation spans.
func (t *Tracer) NewTrace(stage string) *Span {
	if t == nil {
		return nil
	}
	sp := t.newSpan(stage)
	sp.rec.TraceID = newTraceID()
	return sp
}

// StartSpan continues a propagated context: the new span joins parent's
// trace as a child of parent.SpanID. Returns nil (trace nothing) when the
// parent is invalid or unsampled.
func (t *Tracer) StartSpan(parent SpanContext, stage string) *Span {
	if t == nil || !parent.Sampled || !parent.Valid() {
		return nil
	}
	sp := t.newSpan(stage)
	sp.rec.TraceID = parent.TraceID
	sp.rec.ParentID = parent.SpanID
	return sp
}

// Link records a zero-duration marker span in someone else's trace — how a
// root collector makes an edge-reported trace ID findable in its own flight
// recorder when the linked work (the original ingest) happened in another
// process. The marker's attributes tie it to the local operation.
func (t *Tracer) Link(traceID, stage string) *Span {
	if t == nil || len(traceID) != 32 || !isHex(traceID) {
		return nil
	}
	sp := t.newSpan(stage)
	sp.rec.TraceID = strings.ToLower(traceID)
	return sp
}

// record publishes one finished span: take the next sequence number with
// one atomic add, store the span into its slot with one atomic store.
func (t *Tracer) record(sp *Span) {
	sp.seq = t.head.Add(1)
	t.ring[(sp.seq-1)%uint64(len(t.ring))].Store(sp)
}

// Snapshot copies the recorder's current contents, oldest first: it walks
// the sequence numbers the ring holds, from the oldest up to the last one
// assigned, in order. A slot whose span carries another sequence number is
// skipped — its span was not published yet, or a newer lap overwrote it
// during the walk — so the copy is consistent per span but not a frozen
// global moment, which is exactly what a diagnostics endpoint needs.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	n := uint64(len(t.ring))
	head := t.head.Load()
	out := make([]Record, 0, min(head, n))
	for seq := head - min(head, n) + 1; seq <= head; seq++ {
		if sp := t.ring[(seq-1)%n].Load(); sp != nil && sp.seq == seq {
			out = append(out, sp.rec)
		}
	}
	return out
}
