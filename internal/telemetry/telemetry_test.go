package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := New()
	reports := r.Counter("ldp_reports_total", "Reports ingested.", "stream", "mechanism")
	reports.With("age", "sw").Add(41)
	reports.With("age", "sw").Inc()
	reports.With("os", "oue").Add(7)
	r.Gauge("ldp_streams", "Declared streams.").With().Set(2)
	r.Gauge("ldp_em_staleness_reports", "Pending increments.", "stream").With("age").Set(3.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ldp_em_staleness_reports Pending increments.
# TYPE ldp_em_staleness_reports gauge
ldp_em_staleness_reports{stream="age"} 3.5
# HELP ldp_reports_total Reports ingested.
# TYPE ldp_reports_total counter
ldp_reports_total{stream="age",mechanism="sw"} 42
ldp_reports_total{stream="os",mechanism="oue"} 7
# HELP ldp_streams Declared streams.
# TYPE ldp_streams gauge
ldp_streams 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got: %q\nwant: %q", got, want)
	}
	if v := reports.With("age", "sw").Value(); v != 42 {
		t.Errorf("counter value = %d, want 42", v)
	}
}

// TestDeleteSeries retires one label value from every family that carries
// the label, whatever its position and the family's kind, and leaves the
// other families and values alone.
func TestDeleteSeries(t *testing.T) {
	r := New()
	reports := r.Counter("ldp_reports_total", "Reports ingested.", "stream", "mechanism")
	drift := r.Gauge("ldp_drift_score", "Drift.", "metric", "stream")
	refresh := r.Histogram("ldp_em_refresh_seconds", "Refresh latency.", []float64{1}, "stream")
	edges := r.Counter("ldp_federation_absorbed_total", "Absorbed.", "edge")
	gone := reports.With("gone", "sw")
	gone.Add(5)
	reports.With("kept", "sw").Add(3)
	drift.With("w1", "gone").Set(0.5)
	drift.With("w1", "kept").Set(0.25)
	refresh.With("gone").Observe(0.5)
	edges.With("gone").Inc() // an edge called "gone" is not a stream

	if n := r.DeleteSeries("stream", "gone"); n != 3 {
		t.Fatalf("DeleteSeries removed %d series, want 3", n)
	}
	gone.Inc() // a stale handle still works, but renders nowhere
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range sc.Families {
		for _, smp := range fam.Samples {
			if smp.Label("stream") == "gone" {
				t.Errorf("%s{stream=\"gone\"} still renders", smp.Name)
			}
		}
	}
	if v := sc.Counter("ldp_reports_total", "stream=kept"); v != 3 {
		t.Errorf("kept stream's counter = %v, want 3", v)
	}
	if v, ok := sc.Value("ldp_drift_score", "stream=kept"); !ok || v != 0.25 {
		t.Errorf("kept stream's gauge = %v (present %v), want 0.25", v, ok)
	}
	if v := sc.Counter("ldp_federation_absorbed_total", "edge=gone"); v != 1 {
		t.Errorf("edge series = %v, want 1", v)
	}
	if v := reports.With("gone", "sw").Value(); v != 0 {
		t.Errorf("a re-resolved series starts at %d, want 0", v)
	}
	if n := r.DeleteSeries("stream", "never"); n != 0 {
		t.Errorf("deleting an unknown value removed %d series", n)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := New()
	h := r.Histogram("ldp_request_duration_seconds", "Request latency.", []float64{0.1, 1}, "endpoint")
	dur := h.With("/report")
	dur.Observe(0.05)
	dur.Observe(0.05)
	dur.Observe(0.5)
	dur.Observe(5) // above the last bound: +Inf only

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ldp_request_duration_seconds Request latency.
# TYPE ldp_request_duration_seconds histogram
ldp_request_duration_seconds_bucket{endpoint="/report",le="0.1"} 2
ldp_request_duration_seconds_bucket{endpoint="/report",le="1"} 3
ldp_request_duration_seconds_bucket{endpoint="/report",le="+Inf"} 4
ldp_request_duration_seconds_sum{endpoint="/report"} 5.6
ldp_request_duration_seconds_count{endpoint="/report"} 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got: %q\nwant: %q", got, want)
	}
	if dur.Count() != 4 || math.Abs(dur.Sum()-5.6) > 1e-12 {
		t.Errorf("count/sum = %d/%v", dur.Count(), dur.Sum())
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []float64{1, 2}).With()
	h.Observe(1) // le="1" is inclusive
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `h_bucket{le="1"} 1`) {
		t.Errorf("boundary observation missed its bucket:\n%s", b.String())
	}
}

func TestOnScrapeRefreshesGauges(t *testing.T) {
	r := New()
	g := r.Gauge("derived", "").With()
	n := 0
	r.OnScrape(func() { n++; g.Set(float64(n) * 10) })
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "derived 10\n") {
		t.Errorf("first scrape: %s", b.String())
	}
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "derived 20\n") {
		t.Errorf("second scrape: %s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("c", "he\\lp\nline", "path").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `c{path="a\"b\\c\n"} 1`) {
		t.Errorf("label not escaped: %s", out)
	}
	if !strings.Contains(out, `# HELP c he\\lp\nline`) {
		t.Errorf("help not escaped: %s", out)
	}
	// And the parser reverses it exactly.
	sc, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Families["c"].Samples[0].Label("path"); got != `a"b\c`+"\n" {
		t.Errorf("parsed label = %q", got)
	}
}

func TestEmptyFamiliesAnnounceThemselves(t *testing.T) {
	// A family with no series still emits its HELP/TYPE header (and nothing
	// else), so dashboards can reference every metric from the first scrape.
	r := New()
	r.Counter("unused_total", "never touched", "stream")
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP unused_total never touched\n# TYPE unused_total counter\n"
	if b.String() != want {
		t.Errorf("empty family rendered %q, want %q", b.String(), want)
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("empty-family exposition does not lint: %v", err)
	}
	if fam := sc.Families["unused_total"]; fam == nil || len(fam.Samples) != 0 {
		t.Errorf("parsed empty family wrong: %+v", fam)
	}
}

func TestRegisterIdempotentAndSchemaChecked(t *testing.T) {
	r := New()
	a := r.Counter("dup_total", "", "x")
	b := r.Counter("dup_total", "", "x")
	a.With("1").Inc()
	if b.With("1").Value() != 1 {
		t.Error("re-registration did not return the same family")
	}
	mustPanic(t, func() { r.Gauge("dup_total", "") })
	mustPanic(t, func() { r.Counter("dup_total", "", "y") })
	mustPanic(t, func() { r.Counter("bad name", "") })
	mustPanic(t, func() { r.Counter("ok", "", "le") })
	mustPanic(t, func() { r.Counter("ok", "", "0bad") })
	mustPanic(t, func() { a.With("1", "2") })
	mustPanic(t, func() { r.Histogram("h", "", []float64{2, 1}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "", "who")
	h := r.Histogram("h_seconds", "", nil, "who")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			who := string(rune('a' + g%2))
			cc := c.With(who)
			hh := h.With(who)
			for i := 0; i < 1000; i++ {
				cc.Inc()
				hh.Observe(0.001)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Error(err)
			}
			if _, err := ParseText(strings.NewReader(b.String())); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.With("a").Value() + c.With("b").Value(); got != 8000 {
		t.Errorf("total = %d, want 8000", got)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := New()
	r.Counter("ldp_shed_total", "Requests shed.", "endpoint", "scope").With("/report", "global").Add(3)
	r.Gauge("up", "").With().Set(1)
	r.Histogram("lat", "", []float64{0.5}, "ep").With("/q").Observe(0.2)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("ldp_shed_total", "endpoint=/report", "scope=global"); !ok || v != 3 {
		t.Errorf("shed = %v %v", v, ok)
	}
	if v, ok := sc.Value("up"); !ok || v != 1 {
		t.Errorf("up = %v %v", v, ok)
	}
	if v, ok := sc.Value("lat_bucket", "ep=/q", "le=0.5"); !ok || v != 1 {
		t.Errorf("lat bucket = %v %v", v, ok)
	}
	if v, ok := sc.Value("lat_count", "ep=/q"); !ok || v != 1 {
		t.Errorf("lat count = %v %v", v, ok)
	}
	if got := sc.Counter("ldp_shed_total"); got != 3 {
		t.Errorf("Counter sum = %v", got)
	}
	if got := sc.Counter("ldp_shed_total", "scope=edge"); got != 0 {
		t.Errorf("Counter filtered = %v", got)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"timestamp":          "# TYPE a counter\na 1 1700000000\n",
		"no type":            "a 1\n",
		"dup series":         "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n",
		"dup type":           "# TYPE a counter\n# TYPE a gauge\na 1\n",
		"bad value":          "# TYPE a counter\na nope\n",
		"bad label":          "# TYPE a counter\na{0x=\"1\"} 1\n",
		"unquoted label":     "# TYPE a counter\na{x=1} 1\n",
		"unterminated value": "# TYPE a counter\na{x=\"1} 1\n",
		"bad escape":         "# TYPE a counter\na{x=\"\\t\"} 1\n",
		"dup label":          "# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n",
		"suffix on counter":  "# TYPE a counter\na_sum 1\n",
		"unknown type":       "# TYPE a summary\na 1\n",
		"type after samples": "# TYPE a counter\na 1\n# TYPE b counter\nb 2\n# TYPE b gauge\n",
		"help without type":  "# HELP a text\na 1\n",
		"malformed line":     "# TYPE a counter\njustaname\n",
	}
	for name, in := range cases {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
}

func TestParseTextAcceptsComments(t *testing.T) {
	in := "# just a comment\n\n# TYPE a counter\n# HELP a with help\na 1\n"
	sc, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Families["a"].Help != "with help" {
		t.Errorf("help = %q", sc.Families["a"].Help)
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	r := New()
	g := r.Gauge("g", "").With()
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "g +Inf\n"},
		{math.Inf(-1), "g -Inf\n"},
	} {
		g.Set(tc.v)
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), tc.want) {
			t.Errorf("Set(%v): %q does not contain %q", tc.v, b.String(), tc.want)
		}
	}
}
