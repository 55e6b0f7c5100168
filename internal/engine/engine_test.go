package engine

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mechanism"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/window"
)

// collectorOptions returns the Options the HTTP collector runs the engine
// with — every metric family registered, tracing on — and the metric
// registry.
func collectorOptions() (Options, *telemetry.Registry) {
	reg := telemetry.New()
	return Options{
		Metrics: &Metrics{
			Reports:     reg.Counter("reports", "", "stream", "mechanism"),
			Refresh:     reg.Histogram("refresh", "", telemetry.DefBuckets, "stream"),
			Freshness:   reg.Histogram("freshness", "", telemetry.DefBuckets, "stream"),
			Iterations:  reg.Histogram("iters", "", telemetry.DefBuckets, "stream"),
			Rotations:   reg.Counter("rotations", "", "stream"),
			Refreshes:   reg.Counter("refreshes", "", "stream", "reason"),
			DriftAlerts: reg.Counter("alerts", "", "stream"),
		},
		Tracer: trace.New(trace.Config{}),
	}, reg
}

// fill lands n reports in a stream, spread over its cells.
func fill(st *Stream, n, seed int) {
	for i := 0; i < n; i++ {
		st.Ring().Add((i*37 + seed) % st.Ring().Buckets())
	}
}

func TestResolve(t *testing.T) {
	ok := []struct {
		in   Config
		want Config
	}{
		{Config{Epsilon: 1}, Config{Mechanism: "sw", Epsilon: 1, Buckets: DefaultBuckets}},
		{Config{Epsilon: 1, Buckets: 8, Mechanism: "auto"}, Config{Mechanism: "grr", Epsilon: 1, Buckets: 8}},
		{Config{Epsilon: 1, Buckets: 64, Bandwidth: 0.2, Epoch: time.Minute},
			Config{Mechanism: "sw", Epsilon: 1, Buckets: 64, Bandwidth: 0.2, Epoch: time.Minute}},
		{Config{Epsilon: 1, Buckets: 2, Shards: MaxShards, Epoch: time.Nanosecond, Retain: window.MaxRetain},
			Config{Mechanism: "sw", Epsilon: 1, Buckets: 2, Shards: MaxShards, Epoch: time.Nanosecond, Retain: window.MaxRetain}},
	}
	for _, c := range ok {
		got, err := c.in.Resolve()
		if err != nil || got != c.want {
			t.Errorf("Resolve(%+v) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	bad := map[string]Config{
		"epsilon must be positive and finite":     {Epsilon: math.NaN()},
		"got +Inf":                                {Epsilon: math.Inf(1)},
		"got -1":                                  {Epsilon: -1},
		"at least 2 buckets":                      {Epsilon: 1, Buckets: 1},
		"at most":                                 {Epsilon: 1, Buckets: mechanism.MaxBuckets + 1},
		"unknown mechanism":                       {Epsilon: 1, Mechanism: "rappor"},
		"bandwidth NaN out of range":              {Epsilon: 1, Bandwidth: math.NaN()},
		"bandwidth +Inf out of range":             {Epsilon: 1, Bandwidth: math.Inf(1)},
		"only applies to the sw family":           {Epsilon: 1, Mechanism: "oue", Bandwidth: 0.2},
		"must not be negative":                    {Epsilon: 1, Epoch: -time.Second},
		"needs an epoch":                          {Epsilon: 1, Retain: 3},
		"retain":                                  {Epsilon: 1, Epoch: time.Minute, Retain: -2},
		"retain must be in [1, 65536], got 65537": {Epsilon: 1, Buckets: 2, Epoch: time.Minute, Retain: window.MaxRetain + 1},
		"shards 257 out of range [0, 256]":        {Epsilon: 1, Buckets: 2, Shards: MaxShards + 1},
		"shards -1 out of range":                  {Epsilon: 1, Buckets: 2, Shards: -1},
	}
	for want, c := range bad {
		if _, err := c.Resolve(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Resolve(%+v) = %v, want an error mentioning %q", c, err, want)
		}
	}
}

func TestDeclareRedeclareDrop(t *testing.T) {
	r := NewRegistry(Options{})
	st, created, err := r.Declare("a", Config{Epsilon: 1, Buckets: 16, Epoch: time.Minute, Retain: 3})
	if err != nil || !created {
		t.Fatalf("declare: %v, created %v", err, created)
	}
	if cfg := st.Config(); cfg.Retain != 3 || !cfg.Windowed() || st.Name() != "a" {
		t.Errorf("declared %+v", cfg)
	}
	again, created, err := r.Declare("a", Config{Epsilon: 1, Buckets: 16, Shards: 2, Seed: 9})
	if err != nil || created || again != st {
		t.Errorf("compatible redeclare: %v, created %v, same %v", err, created, again == st)
	}
	for _, cfg := range []Config{
		{Epsilon: 2, Buckets: 16},
		{Epsilon: 1, Buckets: 16, Epoch: time.Hour},
		{Epsilon: 1, Buckets: 16, Epoch: time.Minute, Retain: 4},
	} {
		if _, _, err := r.Declare("a", cfg); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("redeclare %+v: %v, want ErrConfigMismatch", cfg, err)
		}
	}
	if _, _, err := r.Declare("p", Config{Epsilon: 1, Buckets: 16}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Declare("p", Config{Epsilon: 1, Buckets: 16, Epoch: time.Minute}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("windowing a plain stream: %v", err)
	}
	if _, _, err := r.Declare("bad\x00name", Config{Epsilon: 1}); err == nil {
		t.Error("invalid name declared")
	}
	if _, _, err := r.Declare("n", Config{Epsilon: math.NaN()}); err == nil {
		t.Error("NaN epsilon declared")
	}
	if got := names(r.List()); !slices.Equal(got, []string{"a", "p"}) {
		t.Errorf("List = %v", got)
	}
	if err := r.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("a"); err == nil {
		t.Error("double drop succeeded")
	}
	if r.Lookup("a") != nil || r.Lookup("p") == nil {
		t.Error("lookup after drop")
	}
}

func names(list []*Stream) []string {
	out := make([]string, len(list))
	for i, st := range list {
		out[i] = st.Name()
	}
	return out
}

// TestRegisterAllOrNothing pins the candidate path: a name taken meanwhile
// resolves to the stream already there by the redeclare rule (never
// overwritten), and one incompatible or invalid candidate registers none.
func TestRegisterAllOrNothing(t *testing.T) {
	born := time.Unix(1_000_000, 0) // every stream starts epoch 0 here
	r := NewRegistry(Options{Clock: func() time.Time { return born }})
	existing, _, err := r.Declare("x", Config{Epsilon: 1, Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	fill(existing, 10, 0)
	cand := func(name string, eps float64) *Stream {
		st, err := r.NewStream(name, Config{Epsilon: eps, Buckets: 16})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if _, err := r.Register([]*Stream{cand("y", 1), cand("x", 2)}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("incompatible candidate: %v", err)
	}
	if _, err := r.Register([]*Stream{cand("z", 1), cand("", 1)}); err == nil {
		t.Fatal("nameless candidate registered")
	}
	if got := names(r.List()); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("failed registrations left %v", got)
	}
	y, x, y2 := cand("y", 1), cand("x", 1), cand("y", 1)
	got, err := r.Register([]*Stream{y, x, y2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != y || got[1] != existing || got[2] != y || existing.Users() != 10 {
		t.Error("a taken name was overwritten")
	}
	if got := names(r.List()); !slices.Equal(got, []string{"x", "y"}) {
		t.Errorf("registered %v", got)
	}
	if _, err := r.NewStream("w", Config{Epsilon: math.Inf(1)}); err == nil {
		t.Error("non-finite candidate built")
	}

	// A candidate's windowing is built, not inherited: a plain candidate
	// does not resolve to a windowed stream, nor one anchored on another
	// epoch origin.
	windowed := Config{Epsilon: 1, Buckets: 16, Epoch: time.Minute, Retain: 3}
	w, _, err := r.Declare("w", windowed)
	if err != nil {
		t.Fatal(err)
	}
	shifted, _ := r.NewStream("w", windowed)
	state := shifted.Ring().State()
	state.Start = state.Start.Add(30 * time.Second)
	if err := shifted.Ring().Adopt(state); err != nil {
		t.Fatal(err)
	}
	same, _ := r.NewStream("w", windowed)
	for _, c := range []*Stream{cand("w", 1), shifted} {
		if _, err := r.Register([]*Stream{cand("v", 1), c}); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("candidate %+v resolved to the windowed stream: %v", c.Config(), err)
		}
	}
	if got, err := r.Register([]*Stream{same}); err != nil || got[0] != w || !w.EpochOrigin().Equal(same.EpochOrigin()) {
		t.Errorf("an identical candidate did not resolve to the stream: %v", err)
	}
	if r.Lookup("v") != nil {
		t.Error("a failed registration registered its other candidate")
	}
}

func TestUsersAndIngest(t *testing.T) {
	r := NewRegistry(Options{})
	oue, _, err := r.Declare("os", Config{Epsilon: 1, Buckets: 8, Mechanism: "oue"})
	if err != nil {
		t.Fatal(err)
	}
	if oue.Users() != 0 || oue.Shards() < 1 || oue.Mechanism().Name() != "oue" {
		t.Fatal("fresh oue stream")
	}
	var cells []int
	for _, rep := range []mechanism.Report{{1, 3}, {}, {7}} {
		if cells, err = oue.Bucketize(cells[:0], rep); err != nil {
			t.Fatal(err)
		}
		oue.Add(cells, 1)
	}
	if oue.Users() != 3 {
		t.Errorf("oue users = %d, want 3 (ring holds %d increments)", oue.Users(), oue.Ring().N())
	}
	if _, err := oue.Bucketize(nil, mechanism.Report{9}); err == nil {
		t.Error("out-of-domain report bucketized")
	}
	sw, _, _ := r.Declare("sw", Config{Epsilon: 1, Buckets: 8, Shards: 2})
	sw.Add([]int{sw.Bucket(0.5)}, 1)
	if sw.Users() != 1 || sw.Shards() != 2 {
		t.Errorf("sw users %d shards %d", sw.Users(), sw.Shards())
	}
}

// TestReconstructCold checks the library's cold path against a direct
// textbook run, for the whole ring and one window.
func TestReconstructCold(t *testing.T) {
	r := NewRegistry(Options{})
	st, _, _ := r.Declare("w", Config{Epsilon: 1, Buckets: 16, Epoch: time.Hour})
	if dist, n, err := st.Reconstruct(nil); dist != nil || n != 0 || err != nil {
		t.Fatalf("empty stream reconstructed: %v %d %v", dist, n, err)
	}
	fill(st, 500, 0)
	st.Rotate()
	fill(st, 300, 5)
	full, n, err := st.Reconstruct(nil)
	if err != nil || n != 800 {
		t.Fatalf("full: n %d, %v", n, err)
	}
	counts, _ := st.Ring().MergeAll(nil)
	if want := st.agg.EstimateInto(nil, counts, nil).Estimate; !slices.Equal(full, want) {
		t.Error("cold full-range reconstruction differs from the textbook run")
	}
	g, err := st.Resolve("epochs:0..0")
	if err != nil {
		t.Fatal(err)
	}
	if _, n, err := st.Reconstruct(&g); err != nil || n != 500 {
		t.Errorf("window: n %d, %v", n, err)
	}
	if _, err := st.Resolve("last:zero"); err == nil {
		t.Error("bad selector resolved")
	}
	if _, _, err := st.Reconstruct(&window.Range{Lo: 5, Hi: 6}); err == nil {
		t.Error("future range reconstructed")
	}
}

// TestRefreshPublishes runs the refresh engine over a plain and a windowed
// stream: estimates publish, go stale and refresh warm; requested windows
// reconstruct; a rotation scores the sealed epoch for drift and records
// into the metric families and the tracer.
func TestRefreshPublishes(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	opts, reg := collectorOptions()
	opts.Clock = func() time.Time { return now }
	tracer := opts.Tracer
	r := NewRegistry(opts)
	st, _, _ := r.Declare("lat", Config{Epsilon: 1, Buckets: 16, Epoch: time.Minute})
	cells, _ := st.Bucketize(nil, mechanism.Report{0.5})
	st.Add(cells, 1)
	fill(st, 999, 0)

	r.refresh(st)
	est := st.Published()
	if est == nil || est.N != 1000 || est.Raw != 1000 || est.WarmStart || st.Pending() != 0 {
		t.Fatalf("first refresh published %+v", est)
	}
	if st.LastRefresh().IsZero() || st.Diagnostics().Snapshot(1000).Refreshes != 1 {
		t.Error("refresh not recorded")
	}
	g := window.Range{Lo: 0, Hi: 0}
	if st.WindowEstimate(g) != nil {
		t.Fatal("window estimate before any refresh")
	}
	fill(st, 200, 3)
	if st.Pending() != 200 {
		t.Errorf("pending = %d", st.Pending())
	}
	r.refresh(st)
	if est := st.Published(); !est.WarmStart || est.N != 1200 {
		t.Errorf("warm refresh published %+v", est)
	}
	if w := st.WindowEstimate(g); w == nil || w.N != 1200 || !w.WarmStart {
		t.Errorf("window estimate %+v", w)
	}

	now = now.Add(time.Minute)
	fill(st, 100, 7)
	r.refresh(st)
	if cur, _ := st.Ring().Current(); cur != 1 {
		t.Fatalf("no rotation: epoch %d", cur)
	}
	if est := st.Published(); est.N != 1300 {
		t.Errorf("post-rotation estimate covers %d", est.N)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`rotations{stream="lat"} 1`, `refreshes{stream="lat",reason="rotation"} 1`,
		`reports{stream="lat",mechanism="sw"} 1`, `freshness_count{stream="lat"} 1`} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics lack %s:\n%s", want, text.String())
		}
	}
	if spans := tracer.Snapshot(); len(spans) < 4 {
		t.Errorf("%d engine spans recorded", len(spans))
	}

	// Aging out: a retention-1 stream drops its window cache on rotation.
	short, _, _ := r.Declare("short", Config{Epsilon: 1, Buckets: 16, Epoch: time.Minute, Retain: 1})
	fill(short, 50, 0)
	short.WindowEstimate(window.Range{Lo: 0, Hi: 0})
	short.Advance(now.Add(3 * time.Minute))
	if caches := short.windowCaches(); len(caches) != 0 {
		t.Errorf("%d aged-out window caches kept", len(caches))
	}
}

// TestCaptureRestore round-trips a registry through Capture and Restore:
// histograms, rotation clocks, published and window estimates come back
// bit-identical; a failed restore changes nothing.
func TestCaptureRestore(t *testing.T) {
	src := NewRegistry(Options{})
	plain, _, _ := src.Declare("plain", Config{Epsilon: 1, Buckets: 16})
	win, _, _ := src.Declare("win", Config{Epsilon: 2, Buckets: 8, Mechanism: "grr", Epoch: time.Hour, Retain: 3})
	fill(plain, 400, 0)
	fill(win, 300, 1)
	win.Rotate()
	fill(win, 100, 2)
	src.refresh(plain)
	src.refresh(win)
	win.WindowEstimate(window.Range{Lo: 0, Hi: 0})
	src.refresh(win)
	records := src.Capture()
	if len(records) != 2 || records[1].Window == nil || len(records[1].Window.Estimates) != 1 {
		t.Fatalf("captured %+v", records)
	}

	dst := NewRegistry(Options{})
	if err := dst.Restore(records); err != nil {
		t.Fatal(err)
	}
	again := dst.Capture()
	for i := range records {
		if !slices.Equal(again[i].Counts, records[i].Counts) || !slices.Equal(again[i].Estimate, records[i].Estimate) ||
			again[i].EstimateN != records[i].EstimateN {
			t.Errorf("%s differs after the round trip", records[i].Name)
		}
	}
	if w := dst.Lookup("win").WindowEstimate(window.Range{Lo: 0, Hi: 0}); w == nil || !w.Restored {
		t.Errorf("window estimate not restored: %+v", w)
	}
	if est := dst.Lookup("plain").Published(); est == nil || !est.Restored || est.N != 400 {
		t.Errorf("estimate not restored: %+v", est)
	}

	// Merging into a stream that already has reports keeps its estimate.
	if err := dst.Restore(records[:1]); err != nil {
		t.Fatal(err)
	}
	if n := dst.Lookup("plain").Users(); n != 800 {
		t.Errorf("merged plain stream holds %d", n)
	}

	// Failures change nothing: a mismatched declaration, a histogram of the
	// wrong size, a windowed record into a rotated stream, an invalid name,
	// and a new stream ahead of a failing record (built, never registered).
	before := dst.Capture()
	mismatch := records[0]
	mismatch.Epsilon = 3
	short := records[0]
	short.Counts = short.Counts[:4]
	badName := records[0]
	badName.Name = "bad\x00"
	fresh := records[1]
	fresh.Name = "fresh"
	// A sealed epoch whose size disagrees with its histogram: the ring's
	// count would never match the estimate it publishes.
	lying := fresh
	lying.Name = "lying"
	lyingWin := *fresh.Window
	lyingWin.Sealed = slices.Clone(lyingWin.Sealed)
	lyingWin.Sealed[0].N++
	lying.Window = &lyingWin
	for _, recs := range [][]snapshot.Stream{{mismatch}, {short}, {badName}, {records[1]}, {fresh, mismatch}, {lying}} {
		if err := dst.Restore(recs); err == nil {
			t.Errorf("restore of %q accepted", recs[0].Name)
		}
	}
	after := dst.Capture()
	if len(after) != len(before) {
		t.Errorf("failed restores left %d streams, want %d", len(after), len(before))
	}
	for i := range before {
		if !slices.Equal(before[i].Counts, after[i].Counts) {
			t.Errorf("failed restore changed %s", before[i].Name)
		}
	}
}
