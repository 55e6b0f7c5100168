package trace

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewContext()
	if !sc.Valid() {
		t.Fatalf("NewContext produced invalid context: %+v", sc)
	}
	h := sc.Header()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("header = %q, want 00-...-01", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own header", h)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
}

func TestTraceparentUnsampledFlag(t *testing.T) {
	sc := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	got, ok := ParseTraceparent(sc.Header())
	if !ok || got.Sampled {
		t.Fatalf("flags 00 should parse as unsampled, got ok=%v sampled=%v", ok, got.Sampled)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-short-span-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("ab", 8) + "-01",  // all-zero trace id
		"00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		"00-" + strings.Repeat("zz", 16) + "-" + strings.Repeat("ab", 8) + "-01", // non-hex
		"ff-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("ab", 8) + "-01", // forbidden version
		"0g-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("ab", 8) + "-01", // non-hex version
		"00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("ab", 8) + "-x",  // bad flags
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed header", h)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Per the W3C forward-compat rule, an unknown version with the v00
	// field layout still parses.
	h := "42-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01-extrafield"
	sc, ok := ParseTraceparent(h)
	if !ok || !sc.Sampled {
		t.Fatalf("future-version header rejected: ok=%v sc=%+v", ok, sc)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.SampleReport() {
		t.Fatal("nil tracer sampled")
	}
	if got := tr.NewTrace("x"); got != nil {
		t.Fatal("nil tracer returned span")
	}
	if got := tr.StartSpan(NewContext(), "x"); got != nil {
		t.Fatal("nil tracer returned span")
	}
	if got := tr.Link(strings.Repeat("ab", 16), "x"); got != nil {
		t.Fatal("nil tracer returned link span")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatal("nil tracer returned records")
	}
	if tr.Capacity() != 0 || tr.Recorded() != 0 {
		t.Fatal("nil tracer reported capacity/recorded")
	}

	var sp *Span
	sp.SetStream("s")
	sp.Attr("k", "v").Fail("oops").End()
	if sp.Child("c") != nil {
		t.Fatal("nil span produced child")
	}
	if sp.Context().Valid() || sp.TraceID() != "" {
		t.Fatal("nil span has identity")
	}
}

func TestSpanRecordingAndLineage(t *testing.T) {
	tr := New(Config{Capacity: 64})
	root := tr.NewTrace("http /report")
	root.SetStream("default")
	child := root.Child("decode")
	child.Attr("codec", "json")
	grand := child.Child("bucketize")
	grand.End()
	child.End()
	child.End() // idempotent
	root.Fail("shed").End()

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	// Oldest first: grand, child, root.
	g, c, r := recs[0], recs[1], recs[2]
	if g.Stage != "bucketize" || c.Stage != "decode" || r.Stage != "http /report" {
		t.Fatalf("order wrong: %q %q %q", g.Stage, c.Stage, r.Stage)
	}
	if r.TraceID != c.TraceID || c.TraceID != g.TraceID {
		t.Fatal("trace IDs differ across one trace")
	}
	if c.ParentID != r.SpanID || g.ParentID != c.SpanID {
		t.Fatal("parent links wrong")
	}
	if c.Stream != "default" || g.Stream != "default" {
		t.Fatal("stream did not inherit to children")
	}
	if r.Err != "shed" {
		t.Fatalf("root error = %q, want shed", r.Err)
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != (Attr{"codec", "json"}) {
		t.Fatalf("child attrs = %+v", c.Attrs)
	}
	if tr.Recorded() != 3 {
		t.Fatalf("Recorded = %d, want 3", tr.Recorded())
	}
}

func TestStartSpanContinuesContext(t *testing.T) {
	tr := New(Config{Capacity: 64})
	parent := NewContext()
	sp := tr.StartSpan(parent, "ingest")
	if sp == nil {
		t.Fatal("sampled parent produced nil span")
	}
	if sp.TraceID() != parent.TraceID {
		t.Fatal("span did not join parent trace")
	}
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].ParentID != parent.SpanID {
		t.Fatalf("recs = %+v", recs)
	}

	unsampled := parent
	unsampled.Sampled = false
	if tr.StartSpan(unsampled, "ingest") != nil {
		t.Fatal("unsampled parent produced a span")
	}
	if tr.StartSpan(SpanContext{Sampled: true}, "ingest") != nil {
		t.Fatal("invalid parent produced a span")
	}
}

func TestLink(t *testing.T) {
	tr := New(Config{Capacity: 64})
	id := strings.Repeat("AB", 16)
	sp := tr.Link(id, "federation/absorb-link")
	if sp == nil {
		t.Fatal("valid link id produced nil span")
	}
	sp.Attr("edge", "edge-1").End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].TraceID != strings.ToLower(id) {
		t.Fatalf("link record = %+v", recs)
	}
	if tr.Link("nothex", "x") != nil {
		t.Fatal("invalid link id produced span")
	}
}

func TestSampleReport(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.SampleReport() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("SampleEvery=4 over 400 calls hit %d times, want 100", hits)
	}

	always := New(Config{SampleEvery: 1})
	for i := 0; i < 5; i++ {
		if !always.SampleReport() {
			t.Fatal("SampleEvery=1 skipped a request")
		}
	}

	never := New(Config{SampleEvery: -1})
	for i := 0; i < 5; i++ {
		if never.SampleReport() {
			t.Fatal("SampleEvery<0 sampled a request")
		}
	}
}

// TestRingWraps fills a 64-span ring past capacity, with the newest span
// at the end of the ring and at its midpoint: the snapshot is the last 64
// spans, oldest first.
func TestRingWraps(t *testing.T) {
	for _, total := range []int{200, 64 + 32} {
		t.Run(fmt.Sprint(total), func(t *testing.T) {
			tr := New(Config{Capacity: 64})
			for i := 0; i < total; i++ {
				tr.NewTrace(fmt.Sprintf("stage-%d", i)).End()
			}
			recs := tr.Snapshot()
			if len(recs) != 64 {
				t.Fatalf("snapshot len = %d, want capacity 64", len(recs))
			}
			for k, rec := range recs {
				if want := fmt.Sprintf("stage-%d", total-64+k); rec.Stage != want {
					t.Fatalf("record %d is %q, want %q", k, rec.Stage, want)
				}
			}
		})
	}
}

// TestEndedSpanIsFrozen: once a span is recorded, the recorder's copy is
// the record; later SetStream, Attr and Fail calls change nothing.
func TestEndedSpanIsFrozen(t *testing.T) {
	tr := New(Config{Capacity: 64})
	sp := tr.NewTrace("frozen")
	sp.SetStream("a")
	sp.Attr("k", "v")
	sp.End()
	sp.SetStream("b")
	sp.Attr("late", "x").Fail("late")
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].Stream != "a" || len(recs[0].Attrs) != 1 || recs[0].Err != "" {
		t.Fatalf("ended span changed: %+v", recs)
	}
}

// TestRecorderFootprint bounds what the recorder costs: an empty default
// recorder allocates its 4096 span pointers and little else, and a
// recorded span costs its own struct plus one pointer.
func TestRecorderFootprint(t *testing.T) {
	const builds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if New(Config{}).Capacity() != 4096 {
			t.Fatal("default capacity changed")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > 64<<10 {
		t.Errorf("New(Config{}) allocates %d bytes, want ≤ 64 KiB", per)
	}
	if per := unsafe.Sizeof(Span{}) + unsafe.Sizeof(atomic.Pointer[Span]{}); per > 168+16 {
		t.Errorf("a recorded span retains %d bytes, want ≤ 184", per)
	}
}

func TestDefaultsAndFloors(t *testing.T) {
	tr := New(Config{})
	if tr.Capacity() != 4096 {
		t.Fatalf("default capacity = %d, want 4096", tr.Capacity())
	}
	small := New(Config{Capacity: 1})
	if small.Capacity() != 64 {
		t.Fatalf("capacity floor = %d, want 64", small.Capacity())
	}
}

func TestDurationIsMonotonic(t *testing.T) {
	tr := New(Config{Capacity: 64})
	sp := tr.NewTrace("sleepy")
	time.Sleep(5 * time.Millisecond)
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].Duration < 5*time.Millisecond {
		t.Fatalf("duration = %v, want ≥ 5ms", recs[0].Duration)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tr := New(Config{Capacity: 128, SampleEvery: 1})
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				sp := tr.NewTrace("worker")
				sp.Attr("w", fmt.Sprint(w))
				sp.Child("inner").End()
				sp.End()
				tr.SampleReport()
			}
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, r := range tr.Snapshot() {
					if r.TraceID == "" || r.SpanID == "" {
						t.Error("snapshot returned torn record")
						return
					}
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if tr.Recorded() != 8*500*2 {
		t.Fatalf("Recorded = %d, want %d", tr.Recorded(), 8*500*2)
	}
}

// TestSnapshotDuringWrap ends spans from several writers while a reader
// snapshots, lapping a small ring many times: every snapshot holds at most
// Capacity complete records, and each writer's spans appear in the order
// that writer ended them.
func TestSnapshotDuringWrap(t *testing.T) {
	const writers, spans = 4, 2000
	tr := New(Config{Capacity: 64})
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				tr.NewTrace(fmt.Sprintf("%d/%06d", w, i)).Attr("w", fmt.Sprint(w)).End()
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			if tr.Recorded() != writers*spans {
				t.Fatalf("Recorded = %d, want %d", tr.Recorded(), writers*spans)
			}
			if recs := tr.Snapshot(); len(recs) != 64 {
				t.Fatalf("final snapshot holds %d records, want 64", len(recs))
			}
			t.Logf("%d snapshots", snaps)
			return
		default:
		}
		recs := tr.Snapshot()
		if len(recs) > 64 {
			t.Fatalf("snapshot holds %d records, capacity 64", len(recs))
		}
		last := make(map[string]string)
		for _, r := range recs {
			if r.TraceID == "" || r.SpanID == "" || len(r.Attrs) != 1 {
				t.Fatalf("torn record %+v", r)
			}
			w := r.Attrs[0].Value
			if prev, ok := last[w]; ok && prev >= r.Stage {
				t.Fatalf("writer %s: %q after %q", w, r.Stage, prev)
			}
			last[w] = r.Stage
		}
	}
}

// BenchmarkTracerSnapshot copies a full default recorder, exactly full and
// after 1.5× its capacity was recorded (the ring has wrapped to its
// midpoint).
func BenchmarkTracerSnapshot(b *testing.B) {
	for _, fill := range []struct {
		name  string
		spans int
	}{{"full", 4096}, {"wrapped1.5x", 6144}} {
		b.Run(fill.name, func(b *testing.B) {
			tr := New(Config{})
			for i := 0; i < fill.spans; i++ {
				tr.NewTrace("bench").End()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(tr.Snapshot()) != 4096 {
					b.Fatal("snapshot is not the whole recorder")
				}
			}
		})
	}
}

// BenchmarkTracerNew measures building the default recorder — part of
// every collector's start-up.
func BenchmarkTracerNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(Config{})
	}
}
