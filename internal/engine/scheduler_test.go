package engine

// The refresh scheduler: reads and ingest arm one stream at a time, its
// refreshes spaced by their own cost and at most maxRefreshGap apart, and
// streams nobody reads wait for the backstop sweep.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/window"
)

// ingest lands n scalar reports through Add, as the collector does.
func ingest(st *Stream, n int) {
	for i := 0; i < n; i++ {
		st.Add([]int{st.Bucket(float64(i%97) / 97)}, 1)
	}
}

// holdBusy runs f with the stream's busy flag held, as a refresh worker
// holds it, so f may read and write the worker-owned scratch.
func holdBusy(st *Stream, f func()) {
	for !st.busy.CompareAndSwap(false, true) {
		time.Sleep(50 * time.Microsecond)
	}
	defer st.busy.Store(false)
	f()
}

// TestReadRefreshesOnlyItsStream: a stale read of one stream refreshes that
// stream alone, and makes only its own ingest arm refreshes.
func TestReadRefreshesOnlyItsStream(t *testing.T) {
	r := NewRegistry(Options{})
	a, _, _ := r.Declare("a", Config{Epsilon: 1, Buckets: 32})
	b, _, _ := r.Declare("b", Config{Epsilon: 1, Buckets: 32})
	r.Start(2, time.Hour)
	t.Cleanup(r.Close)
	ingest(a, 500)
	ingest(b, 500)
	a.Served(true)
	waitFor(t, 10*time.Second, "the read stream to publish", func() bool { return a.Published() != nil })
	ingest(b, 500)
	time.Sleep(10 * maxRefreshGap)
	if est := b.Published(); est != nil || !b.LastRefresh().IsZero() {
		t.Fatalf("reading stream a refreshed stream b: %+v", est)
	}
}

// TestIdleRegistryDoesNothing: once every estimate is current, backstop
// sweeps publish nothing and merge nothing — neither the full range nor a
// requested window.
func TestIdleRegistryDoesNothing(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	r := NewRegistry(Options{Clock: func() time.Time { return now }})
	plain, _, _ := r.Declare("plain", Config{Epsilon: 1, Buckets: 32})
	win, _, _ := r.Declare("win", Config{Epsilon: 1, Buckets: 32, Epoch: time.Minute})
	g := window.Range{Lo: 0, Hi: 0}
	win.WindowEstimate(g)
	ingest(plain, 500)
	ingest(win, 500)
	const sweep = 2 * time.Millisecond
	r.Start(1, sweep)
	t.Cleanup(r.Close)
	waitFor(t, 10*time.Second, "the sweep to publish both streams", func() bool {
		return plain.Published() != nil && win.Published() != nil && win.WindowEstimate(g) != nil
	})
	type idle struct{ est, winEst *Estimate }
	state := func(st *Stream) idle {
		s := idle{est: st.Published()}
		if st == win {
			s.winEst = win.WindowEstimate(g)
		}
		return s
	}
	before := map[*Stream]idle{}
	for _, st := range []*Stream{plain, win} {
		holdBusy(st, func() {
			st.scratch, st.winScratch = nil, nil
			before[st] = state(st)
		})
	}
	tick := r.LastTick()
	waitFor(t, 10*time.Second, "five more sweeps", func() bool { return r.LastTick().Sub(tick) >= 5*sweep })
	for _, st := range []*Stream{plain, win} {
		holdBusy(st, func() {
			if st.scratch != nil || st.winScratch != nil {
				t.Errorf("%s: an idle sweep merged the histogram", st.Name())
			}
			if got := state(st); got != before[st] {
				t.Errorf("%s: an idle sweep published: %+v, was %+v", st.Name(), got, before[st])
			}
		})
	}
}

// TestUnreadStreamRefreshesOnSweep: ingest into a stream nobody reads arms
// nothing; its reports publish on the next backstop sweep (Wake runs one;
// the ticker is an hour away).
func TestUnreadStreamRefreshesOnSweep(t *testing.T) {
	r := NewRegistry(Options{})
	st, _, _ := r.Declare("edge", Config{Epsilon: 1, Buckets: 32})
	r.Start(1, time.Hour)
	t.Cleanup(r.Close)
	for i := 0; i < 10; i++ { // ten duty cycles of steady ingest
		ingest(st, 50)
		time.Sleep(maxRefreshGap)
	}
	if est := st.Published(); est != nil {
		t.Fatalf("an unread stream published between sweeps: %+v", est)
	}
	r.Wake()
	waitFor(t, 10*time.Second, "the sweep to publish", func() bool {
		est := st.Published()
		return est != nil && est.Raw == 500
	})
}

// TestReadStreamPublishesWithinBudget: a stream read once stays watched, so
// steady ingest publishes within a few duty cycles with no further read, no
// Wake and an hour-long sweep — and each publish observes its freshness.
func TestReadStreamPublishesWithinBudget(t *testing.T) {
	opts, reg := collectorOptions()
	r := NewRegistry(opts)
	st, _, _ := r.Declare("read", Config{Epsilon: 1, Buckets: 32})
	r.Start(1, time.Hour)
	t.Cleanup(r.Close)
	ingest(st, 200)
	st.Served(true)
	for round := 0; round < 5; round++ {
		deadline := time.Now().Add(200 * maxRefreshGap)
		for est := st.Published(); est == nil || est.Raw != st.Ring().N(); est = st.Published() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d reports unpublished after %v", round, st.Pending(), 200*maxRefreshGap)
			}
			time.Sleep(100 * time.Microsecond)
		}
		ingest(st, 100)
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := sc.Value("freshness_count", "stream=read"); n < 5 {
		t.Errorf("%v freshness observations over 5 publishes", n)
	}
}

// TestRefreshSpacing: the next refresh of an armed stream may start ten times
// the last one's wall time after that one started, never more than 10 ms.
func TestRefreshSpacing(t *testing.T) {
	for _, tc := range []struct{ cost, gap time.Duration }{
		{0, 0},
		{50 * time.Microsecond, 500 * time.Microsecond},
		{time.Millisecond, 10 * time.Millisecond},
		{30 * time.Millisecond, 10 * time.Millisecond},
	} {
		if got := refreshGap(tc.cost); got != tc.gap {
			t.Errorf("a %v refresh spaces the next by %v, want %v", tc.cost, got, tc.gap)
		}
	}
}

// TestRefreshGap: a watched stream under ingest that never pauses refreshes
// as often as its duty cycle allows — more often than once per
// maxRefreshGap, since a B = 16 refresh costs far less than a tenth of that,
// even under the race detector — while its reconstructions take under 15%
// of the elapsed time (a tenth at most, plus the cold first one).
func TestRefreshGap(t *testing.T) {
	opts, reg := collectorOptions()
	r := NewRegistry(opts)
	st, _, _ := r.Declare("busy", Config{Epsilon: 1, Buckets: 16})
	r.Start(2, time.Hour)
	t.Cleanup(r.Close)
	ingest(st, 100)
	st.Served(true)
	const span = 30 * maxRefreshGap
	start := time.Now()
	for time.Since(start) < span {
		ingest(st, 10)
	}
	elapsed := time.Since(start)
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	runs, _ := sc.Value("refreshes", "stream=busy", "reason=growth")
	if once := float64(elapsed / maxRefreshGap); runs <= once {
		t.Errorf("%v refreshes in %v, want more than %v (one per %v)", runs, elapsed, once, maxRefreshGap)
	}
	if busy, _ := sc.Value("refresh_sum", "stream=busy"); busy > 0.15*elapsed.Seconds() {
		t.Errorf("%v refreshes reconstructed for %.1f ms of %v, want under 15%%", runs, busy*1e3, elapsed)
	}
}

// TestDroppedStreamArmsNothing: once a stream is dropped, its reads and
// ingest arm no refresh, though the stream stays usable.
func TestDroppedStreamArmsNothing(t *testing.T) {
	r := NewRegistry(Options{})
	st, _, _ := r.Declare("gone", Config{Epsilon: 1, Buckets: 32})
	r.Start(1, time.Hour)
	t.Cleanup(r.Close)
	ingest(st, 100)
	st.Served(true)
	waitFor(t, 10*time.Second, "the first publish", func() bool { return st.Published() != nil })
	if err := r.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	st.Served(true)
	ingest(st, 100)
	time.Sleep(5 * maxRefreshGap)
	if est := st.Published(); est.Raw != 100 || st.Ring().N() != 200 {
		t.Fatalf("a dropped stream refreshed: it publishes %d of %d reports, want 100", est.Raw, st.Ring().N())
	}
}
