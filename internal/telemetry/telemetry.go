// Package telemetry is the zero-dependency operational-metrics core of the
// collection server: atomic counters, gauges and histograms organized into
// labeled families, rendered in the Prometheus text exposition format
// (version 0.0.4) by WriteText and parsed back by ParseText.
//
// It exists because the server needs /metrics without pulling a client
// library into a reproduction repo, and because the repo's general-purpose
// name — metrics — is already taken by the Wasserstein/KS distance package.
// The design goal is a hot path of exactly one atomic add: callers resolve a
// labeled series once (With), keep the returned handle, and touch only that
// handle while serving.
//
// Exposition is deterministic: families render sorted by name, series sorted
// by label values, values in Go's shortest-round-trip float syntax, and no
// sample ever carries a timestamp — so golden tests can compare scrapes
// byte-for-byte.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type as exposed on the TYPE line.
type Kind string

// The exposition family types.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefBuckets are the default histogram upper bounds, in seconds — spanning
// 100µs (an instrumented atomic ingest) to 10s (an EM refresh over a huge
// domain).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them. The zero value is not
// usable; create with New or NewWithOptions.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()

	// Cardinality guard (0 = unbounded): families at the cap fold any
	// further label-set into the Overflow series and bump dropped.
	maxSeries int
	dropped   atomic.Uint64
	droppedC  *Counter // pre-resolved: seriesFor increments it lock-free
}

// Options configures a Registry.
type Options struct {
	// MaxSeriesPerFamily caps the number of labeled series one family may
	// hold; 0 = unbounded. A resolution that would create a series past
	// the cap folds into a single series whose every label value is
	// Overflow, and increments ldp_telemetry_dropped_series_total — so a
	// label-value storm (runaway stream declarations, hostile edge ids)
	// bounds /metrics memory and scrape latency instead of growing them
	// without limit. When the cap is set, the registry self-registers
	// ldp_telemetry_series (total live series, refreshed at scrape) and
	// the dropped-series counter.
	MaxSeriesPerFamily int
}

// Overflow is the label value over-cap series fold into.
const Overflow = "~overflow"

// family is one named metric with a fixed label schema and any number of
// label-value series.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only
	reg    *Registry

	mu     sync.Mutex
	series map[string]*series
}

// series is one (label values → value) sample set.
type series struct {
	labelValues []string

	count atomic.Uint64 // counter value, or histogram observation count
	bits  atomic.Uint64 // gauge value, or histogram sum (float64 bits)

	buckets []atomic.Uint64 // histogram only: cumulative-by-render counts

	// exemplar is the most recent trace-annotated observation (histogram
	// series only; nil until one is attached). Exemplars never render in
	// the text exposition — format 0.0.4 has no syntax for them, and the
	// byte-for-byte golden scrapes must stay stable — they are served
	// through the Exemplar accessors (the trace debug surface).
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar is one observation annotated with the trace that produced it —
// the bridge from a latency histogram to the flight recorder: see the tail
// in ldp_request_duration_seconds, pull its exemplar, look the trace up.
type Exemplar struct {
	// Value is the observed value (same unit as the histogram).
	Value float64 `json:"value"`
	// TraceID is the 32-hex trace identifier of the request that produced
	// the observation.
	TraceID string `json:"trace_id"`
	// Time is when the observation was recorded.
	Time time.Time `json:"time"`
}

// New returns an empty, unbounded registry.
func New() *Registry {
	return NewWithOptions(Options{})
}

// NewWithOptions returns an empty registry with the given options.
func NewWithOptions(o Options) *Registry {
	r := &Registry{families: make(map[string]*family), maxSeries: o.MaxSeriesPerFamily}
	if r.maxSeries > 0 {
		seriesG := r.Gauge("ldp_telemetry_series",
			"Labeled series currently held across every metric family.")
		dropped := r.Counter("ldp_telemetry_dropped_series_total",
			"Label-sets folded into the ~overflow series by the per-family cardinality cap.")
		r.droppedC = dropped.With()
		r.droppedC.Add(0) // render 0, not absent: dashboards alert on increase()
		r.OnScrape(func() { seriesG.With().Set(float64(r.SeriesCount())) })
	}
	return r
}

// SeriesCount reports the number of labeled series held across every family.
func (r *Registry) SeriesCount() int {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	n := 0
	for _, f := range fams {
		f.mu.Lock()
		n += len(f.series)
		f.mu.Unlock()
	}
	return n
}

// DeleteSeries removes, from every family with a label called label, each
// series whose value for it is value, and returns how many it removed — how
// a retired label value (a dropped stream) leaves the exposition. A handle
// to a removed series still accepts updates but no longer renders, and the
// next With of the same label values starts a new series at zero.
func (r *Registry) DeleteSeries(label, value string) int {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	n := 0
	for _, f := range fams {
		at := slices.Index(f.labels, label)
		if at < 0 {
			continue
		}
		f.mu.Lock()
		for key, s := range f.series {
			if s.labelValues[at] == value {
				delete(f.series, key)
				n++
			}
		}
		f.mu.Unlock()
	}
	return n
}

// DroppedSeries reports how many label-set resolutions were folded into
// overflow series by the cardinality cap.
func (r *Registry) DroppedSeries() uint64 { return r.dropped.Load() }

// OnScrape registers a hook run at the start of every WriteText, before any
// family renders — the place to refresh gauges whose value is derived
// (staleness, lag, queue depths) rather than event-driven.
func (r *Registry) OnScrape(hook func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, hook)
}

func (r *Registry) register(name, help string, kind Kind, bounds []float64, labels []string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		reg:    r,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns the existing) counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, nil, labels)}
}

// Gauge registers (or returns the existing) gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, nil, labels)}
}

// Histogram registers (or returns the existing) histogram family with the
// given upper bounds (nil = DefBuckets). Bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not increasing", name))
		}
	}
	return &HistogramVec{r.register(name, help, KindHistogram, bounds, labels)}
}

// seriesFor resolves (creating if needed) the series with the given label
// values.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		// Cardinality guard: a family at the cap folds every further
		// label-set into one all-Overflow series. Label-less families
		// (single series) are never affected; the overflow series itself
		// is allowed to push the family one past the cap.
		if limit := f.reg.maxSeries; limit > 0 && len(f.labels) > 0 && len(f.series) >= limit {
			f.reg.dropped.Add(1)
			if f.reg.droppedC != nil {
				f.reg.droppedC.Inc()
			}
			values = make([]string, len(f.labels))
			for i := range values {
				values[i] = Overflow
			}
			key = strings.Join(values, "\xff")
			if s, ok = f.series[key]; ok {
				return s
			}
		}
		s = &series{labelValues: append([]string(nil), values...)}
		if f.kind == KindHistogram {
			s.buckets = make([]atomic.Uint64, len(f.bounds))
		}
		f.series[key] = s
	}
	return s
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves the series for the given label values. Resolve once and keep
// the handle: With takes the family lock, the handle is one atomic.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{v.f.seriesFor(labelValues)}
}

// Counter is one monotonically-increasing series.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.s.count.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.s.count.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.s.count.Load() }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With resolves the series for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{v.f.seriesFor(labelValues)}
}

// Gauge is one set-to-current-value series.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves the series for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.seriesFor(labelValues), bounds: v.f.bounds}
}

// Histogram is one series of observations bucketed by fixed upper bounds.
type Histogram struct {
	s      *series
	bounds []float64
}

// Observe records one value: the matching bucket, the count and the sum.
// Wait-free except for the float sum, which is a CAS loop.
func (h *Histogram) Observe(v float64) {
	// Non-cumulative per-bucket counts at write time; WriteText accumulates
	// at render time, so the hot path is a single bucket's atomic add.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.s.buckets[i].Add(1)
	}
	h.s.count.Add(1)
	for {
		old := h.s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value like Observe and, when traceID is
// non-empty, attaches it as the series' exemplar.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID != "" {
		h.s.exemplar.Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// Exemplar returns the series' most recent exemplar, if one was attached.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	if e := h.s.exemplar.Load(); e != nil {
		return *e, true
	}
	return Exemplar{}, false
}

// Exemplars returns the most recent exemplar of every series that has one,
// keyed by the series' label values joined with ",".
func (v *HistogramVec) Exemplars() map[string]Exemplar {
	v.f.mu.Lock()
	list := make([]*series, 0, len(v.f.series))
	for _, s := range v.f.series {
		list = append(list, s)
	}
	v.f.mu.Unlock()
	out := make(map[string]Exemplar)
	for _, s := range list {
		if e := s.exemplar.Load(); e != nil {
			out[strings.Join(s.labelValues, ",")] = *e
		}
	}
	return out
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// Sum reads the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.bits.Load()) }

// WriteText renders every family in the Prometheus text exposition format:
// scrape hooks first, then families sorted by name, series sorted by label
// values, no timestamps.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, hook := range hooks {
		hook()
	}
	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	list := make([]*series, 0, len(keys))
	for _, k := range keys {
		list = append(list, f.series[k])
	}
	f.mu.Unlock()
	// A family with no series yet still announces itself: dashboards and
	// alert rules can reference every metric the server will ever emit from
	// the first scrape on.
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range list {
		switch f.kind {
		case KindCounter:
			b.WriteString(f.name)
			writeLabels(b, f.labels, s.labelValues, "", 0)
			fmt.Fprintf(b, " %d\n", s.count.Load())
		case KindGauge:
			b.WriteString(f.name)
			writeLabels(b, f.labels, s.labelValues, "", 0)
			fmt.Fprintf(b, " %s\n", formatFloat(math.Float64frombits(s.bits.Load())))
		case KindHistogram:
			var cum uint64
			for i, bound := range f.bounds {
				cum += s.buckets[i].Load()
				b.WriteString(f.name + "_bucket")
				writeLabels(b, f.labels, s.labelValues, formatFloat(bound), 1)
				fmt.Fprintf(b, " %d\n", cum)
			}
			b.WriteString(f.name + "_bucket")
			writeLabels(b, f.labels, s.labelValues, "+Inf", 1)
			fmt.Fprintf(b, " %d\n", s.count.Load())
			b.WriteString(f.name + "_sum")
			writeLabels(b, f.labels, s.labelValues, "", 0)
			fmt.Fprintf(b, " %s\n", formatFloat(math.Float64frombits(s.bits.Load())))
			b.WriteString(f.name + "_count")
			writeLabels(b, f.labels, s.labelValues, "", 0)
			fmt.Fprintf(b, " %d\n", s.count.Load())
		}
	}
}

// writeLabels renders {k="v",...}; le ("histogram upper bound") is appended
// when leMode is 1. No braces render for an empty label set.
func writeLabels(b *strings.Builder, names, values []string, le string, leMode int) {
	if len(names) == 0 && leMode == 0 {
		return
	}
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leMode == 1 {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
