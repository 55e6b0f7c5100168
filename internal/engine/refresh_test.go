package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diagnose"
	"repro/internal/window"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestRefreshRequestDuringRefreshRuns pins that a refresh request landing
// while the stream's refresh is running is not dropped: the worker holding
// the stream runs it again, so reports acknowledged after the running
// refresh merged its histogram get published without waiting for the next
// tick (an hour here).
func TestRefreshRequestDuringRefreshRuns(t *testing.T) {
	r := NewRegistry(Options{})
	st, _, err := r.Declare("s", Config{Epsilon: 1, Buckets: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r.Start(2, time.Hour)
	t.Cleanup(r.Close)
	fill(st, 5000, 0)
	r.Wake()
	waitFor(t, 10*time.Second, "the first refresh to start", st.busy.Load)
	// Past the refresh's histogram merge (a cold B=4096 run takes far
	// longer), so the next reports land after it.
	time.Sleep(20 * time.Millisecond)
	fill(st, 3000, 1)
	r.Wake() // lands while the first refresh is still running
	waitFor(t, 30*time.Second, "the requested refresh", func() bool {
		est := st.Published()
		return est != nil && est.Raw == 8000
	})
}

// TestWholeWindowReusesFullRange: a window that holds every report the ring
// holds (last:3 on a stream with two epochs) publishes the full-range
// estimate the same refresh just published and reconstructs nothing of its
// own; once an epoch falls outside it, it reconstructs its own range again.
func TestWholeWindowReusesFullRange(t *testing.T) {
	r := NewRegistry(Options{})
	st, _, _ := r.Declare("w", Config{Epsilon: 1, Buckets: 32, Epoch: time.Hour})
	ingest(st, 400)
	st.Rotate()
	ingest(st, 300)
	g, err := st.Resolve("last:3")
	if err != nil || g != (window.Range{Lo: 0, Hi: 1}) {
		t.Fatalf("last:3 resolves to %v, %v", g, err)
	}
	st.WindowEstimate(g)
	for _, more := range []int{0, 200} {
		ingest(st, more)
		r.refresh(st)
		full, win := st.Published(), st.WindowEstimate(g)
		if win == nil || win.Raw != full.Raw || win.Raw != st.Ring().N() ||
			!slices.Equal(win.Distribution, full.Distribution) {
			t.Fatalf("window %v publishes %+v, want the full range's %+v", g, win, full)
		}
		if st.winScratch != nil {
			t.Fatal("the window reconstructed the full range's counts again")
		}
	}
	st.Rotate()
	st.Rotate()
	ingest(st, 100)
	if g, _ = st.Resolve("last:3"); g != (window.Range{Lo: 1, Hi: 3}) {
		t.Fatalf("last:3 resolves to %v", g)
	}
	st.WindowEstimate(g)
	r.refresh(st)
	if win, n := st.WindowEstimate(g), st.Ring().N(); win == nil || win.Raw != 600 || st.Published().Raw != n {
		t.Fatalf("window %v publishes %+v of the ring's %d reports, want its own 600", g, win, n)
	}
}

// TestSealedWindowWaitsForARead: a rotation parks the window it sealed — the
// next refresh leaves it as it was, though reports landed in it — until a
// read resolves to it. That read is one refresh stale and arms a refresh, so
// the read after it is fresh (pending_reports 0).
func TestSealedWindowWaitsForARead(t *testing.T) {
	r := NewRegistry(Options{})
	st, _, _ := r.Declare("w", Config{Epsilon: 1, Buckets: 32, Epoch: time.Hour})
	for range 2 {
		ingest(st, 400)
		st.Rotate()
	}
	ingest(st, 300)
	g, _ := st.Resolve("last:2")
	if g != (window.Range{Lo: 1, Hi: 2}) {
		t.Fatalf("last:2 resolves to %v", g)
	}
	st.WindowEstimate(g)
	r.refresh(st)
	before := st.WindowEstimate(g)
	if before == nil || before.Raw != 700 {
		t.Fatalf("window %v publishes %+v, want 700 reports", g, before)
	}
	ingest(st, 200)
	st.Rotate() // seals epoch 2 with 500 reports; last:2 is now epochs 2..3
	st.winScratch = nil
	r.refresh(st)
	if est := st.wins[g].est.Load(); est != before || st.winScratch != nil {
		t.Fatalf("a refresh reconstructed the sealed window %v before any read: %+v", g, est)
	}
	if st.Pending() != 0 {
		t.Fatalf("the full range left %d reports unpublished", st.Pending())
	}

	r.Start(1, time.Hour)
	t.Cleanup(r.Close)
	read := func() int { // what loadEstimate does
		est := st.WindowEstimate(g)
		n, _ := st.Ring().RangeN(g)
		st.Served(est.Raw != n)
		return n - est.Raw
	}
	if pending := read(); pending != 200 {
		t.Fatalf("the first read after the rotation is %d reports stale, want 200", pending)
	}
	waitFor(t, 10*time.Second, "the read's refresh", func() bool { return st.wins[g].est.Load() != before })
	if pending := read(); pending != 0 {
		t.Fatalf("the read after the refresh is %d reports stale", pending)
	}
}

// TestStressRegistry runs everything at once under the refresh pool:
// ingest into long-lived streams, declare/drop churn, rotation on a mock
// clock, window requests, and capture + restore into a second registry.
// Run with -race. Every report acknowledged into a long-lived stream must
// be visible at the end, exactly once, and the pool must drain.
func TestStressRegistry(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Unix(1_000_000, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	r := NewRegistry(Options{Clock: now})
	const streams, writers, perWriter = 4, 4, 3000
	for i := 0; i < streams; i++ {
		cfg := Config{Epsilon: 1, Buckets: 32}
		if i%2 == 1 {
			cfg.Epoch, cfg.Retain = time.Second, 64
		}
		if _, _, err := r.Declare(fmt.Sprintf("s%d", i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	r.Start(3, time.Millisecond)
	t.Cleanup(r.Close)

	var writing, churning sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			var cells []int
			for i := 0; i < perWriter; i++ {
				st := r.Lookup(fmt.Sprintf("s%d", i%streams))
				cells, _ = st.Bucketize(cells[:0], []float64{float64(i%97) / 97})
				st.Add(cells, 1)
				if i%500 == 0 {
					r.Wake()
				}
			}
		}()
	}
	background := func(f func(i int)) {
		churning.Add(1)
		go func() {
			defer churning.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	background(func(i int) { // churn
		name := fmt.Sprintf("tmp%d", i%3)
		if _, _, err := r.Declare(name, Config{Epsilon: 1, Buckets: 16}); err == nil && i%2 == 0 {
			r.Drop(name)
		}
	})
	background(func(int) { clock.Add(int64(250 * time.Millisecond)) }) // rotation
	background(func(int) {                                             // window requests
		st := r.Lookup("s1")
		if g, err := st.Resolve("last:3"); err == nil {
			st.WindowEstimate(g)
		}
	})
	mirror := NewRegistry(Options{Clock: now})
	background(func(int) { // capture, then restore into a fresh mirror
		records := r.Capture()
		NewRegistry(Options{Clock: now}).Restore(records)
		mirror.Restore(records[:1])
	})
	writing.Wait()
	close(stop)
	churning.Wait()

	total := 0
	for i := 0; i < streams; i++ {
		st := r.Lookup(fmt.Sprintf("s%d", i))
		if i%2 == 0 {
			total += st.Users()
		}
	}
	// Plain streams never age out: they hold every report sent to them.
	if want := writers * perWriter / 2; total != want {
		t.Errorf("plain streams hold %d reports, want %d", total, want)
	}
	r.Wake()
	waitFor(t, 30*time.Second, "the pool to publish every plain stream", func() bool {
		for i := 0; i < streams; i += 2 {
			st := r.Lookup(fmt.Sprintf("s%d", i))
			if est := st.Published(); est == nil || est.Raw != st.Ring().N() {
				return false
			}
		}
		return true
	})
	// Queue entries are deduped per stream: at most one per stream that
	// ever existed (four long-lived, three churned).
	if d := r.QueueDepth(); d > streams+3 {
		t.Errorf("queue holds %d entries", d)
	}
	if time.Since(r.LastTick()) > 10*time.Second {
		t.Error("scheduler not ticking")
	}
}

// BenchmarkEngineSweep measures one full refresh sweep of the engine, run
// as the collector runs it (metrics and tracing on), over a fleet of dirty
// streams: every stream gets one new report, the scheduler is woken, and
// the sweep is complete when every stream has republished. This is the
// end-to-end cost a collector pays per refresh interval, and the knob
// under test is the refresh worker pool size (on a single-core runner the
// pool sizes tie; on a multi-core one the sweep parallelizes across
// streams).
func BenchmarkEngineSweep(b *testing.B) {
	const streams = 8
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("streams=%d/refresh-workers=%d", streams, workers), func(b *testing.B) {
			opts, _ := collectorOptions()
			r := NewRegistry(opts)
			var list []*Stream
			for i := 0; i < streams; i++ {
				st, _, err := r.Declare(fmt.Sprintf("s%d", i), Config{Epsilon: 1, Buckets: 256})
				if err != nil {
					b.Fatal(err)
				}
				fill(st, 2000, 0)
				list = append(list, st)
			}
			r.Start(workers, time.Hour) // sweeps run only when woken
			defer r.Close()
			waitSweep := func() {
				for _, st := range list {
					for est := st.Published(); est == nil || est.Raw != st.Ring().N(); est = st.Published() {
						time.Sleep(20 * time.Microsecond)
					}
				}
			}
			r.Wake()
			waitSweep() // first (cold) reconstruction outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, st := range list {
					st.Ring().Add(i % 256)
				}
				r.Wake()
				waitSweep()
			}
		})
	}
}

// BenchmarkRefreshWithDiagnostics is the full forced-refresh path of one
// 2000-report stream, run as the collector runs it — EM reconstruction,
// publication, and the diagnostics bookkeeping (ObserveRefresh + quality
// gauge writes). The bookkeeping itself is measured in isolation by
// BenchmarkDiagnosticsBookkeeping; the ratio of the two is the
// refresh-path overhead.
func BenchmarkRefreshWithDiagnostics(b *testing.B) {
	opts, _ := collectorOptions()
	r := NewRegistry(opts)
	st, _, err := r.Declare("s", Config{Epsilon: 1, Buckets: 256})
	if err != nil {
		b.Fatal(err)
	}
	fill(st, 2000, 0)
	st.mustRefresh.Store(true)
	r.refresh(st) // cold reconstruction outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.mustRefresh.Store(true)
		r.refresh(st)
	}
}

// BenchmarkNoopRefresh is a refresh with nothing to do — what a backstop
// sweep costs per idle stream: a published stream whose histogram has not
// moved since, at the stream's default stripe count.
func BenchmarkNoopRefresh(b *testing.B) {
	for _, buckets := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", buckets), func(b *testing.B) {
			r := NewRegistry(Options{})
			st, _, err := r.Declare("s", Config{Epsilon: 1, Buckets: buckets})
			if err != nil {
				b.Fatal(err)
			}
			fill(st, 2000, 0)
			r.refresh(st) // the publish, outside the timer
			if st.Pending() != 0 {
				b.Fatal("the first refresh left reports unpublished")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.refresh(st)
			}
		})
	}
}

// BenchmarkDiagnosticsBookkeeping is the per-refresh diagnostics cost alone:
// one ObserveRefresh plus the Snapshot a diagnostics poll would take.
func BenchmarkDiagnosticsBookkeeping(b *testing.B) {
	tr := diagnose.NewTracker(diagnose.TrackerConfig{
		Mechanism: "sw", Epsilon: 1, Buckets: 256, EMBased: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ObserveRefresh(diagnose.Refresh{
			Iterations: 12, LogLikelihood: -15000, LastDelta: 0.004,
			Converged: true, Warm: true, Users: 2000,
		})
		_ = tr.Snapshot(0)
	}
}

// BenchmarkAdd is one report's Add from every CPU at once, on a library
// stream (no refresh engine) and on a collector stream nobody reads (the
// engine runs, a sweep an hour away): the ingest cost the refresh scheduler
// adds to streams it never arms.
func BenchmarkAdd(b *testing.B) {
	for _, started := range []bool{false, true} {
		name := "library"
		if started {
			name = "unread"
		}
		b.Run(name, func(b *testing.B) {
			r := NewRegistry(Options{})
			st, _, err := r.Declare("s", Config{Epsilon: 1, Buckets: 256})
			if err != nil {
				b.Fatal(err)
			}
			if started {
				r.Start(1, time.Hour)
				b.Cleanup(r.Close)
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				cells := []int{0}
				for i := 0; pb.Next(); i++ {
					cells[0] = i % 256
					st.Add(cells, 1)
				}
			})
		})
	}
}
