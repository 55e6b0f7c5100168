package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ldphttp"
	"repro/internal/wire"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 down to 1
	}
	if v, ok := percentile(append([]float64(nil), xs...), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(append([]float64(nil), xs[:999]...), 0.99); ok {
		t.Fatal("999 samples supported a p99")
	}
	if v, ok := percentile(append([]float64(nil), xs[980:]...), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(append([]float64(nil), xs[981:]...), 0.5); ok {
		t.Fatal("19 samples supported a p50")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("no samples supported a p50")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestFreshnessSumsEdgesAndWaitsForCoverage(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	f := newFreshness()
	f.ack("s", 10, at(0)) // edge 0
	f.ack("s", 5, at(1))  // edge 1: the root's stream now needs 15
	f.ack("other", 3, at(2))
	f.observe("s", 10, at(5)) // covers edge 0's batch only
	f.observe("s", 14, at(6)) // still short of 15
	if got := f.pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	f.observe("s", 15, at(9))
	f.ack("s", 1, at(20))
	f.observe("s", 100, at(19)) // an estimate seen before the ack does not cover it
	f.observe("s", 16, at(21))
	f.observe("other", 3, at(4))
	want := []float64{5, 8, 1, 2}
	got := f.values()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("freshness samples = %v, want %v", got, want)
	}
	if f.pending() != 0 {
		t.Fatalf("pending = %d after full coverage", f.pending())
	}
}

func TestOpenLoopSendsLateNeverSkips(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * time.Millisecond) }
	var sent []int
	var lags []time.Duration
	stalled := false
	err := openLoop(40, due, 2*time.Millisecond, func(i int) error {
		if now := time.Now(); now.Before(due(i)) {
			return fmt.Errorf("item %d sent %v before it was due", i, due(i).Sub(now))
		}
		sent = append(sent, i)
		if i == 10 && !stalled {
			stalled = true
			time.Sleep(30 * time.Millisecond) // backpressure
		}
		return nil
	}, func(d time.Duration) { lags = append(lags, d) })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sent {
		if v != i {
			t.Fatalf("sent %v, want 0..39 in order", sent)
		}
	}
	if len(sent) != 40 {
		t.Fatalf("sent %d items, want 40", len(sent))
	}
	worst := time.Duration(0)
	for _, d := range lags {
		worst = max(worst, d)
	}
	if worst < 25*time.Millisecond {
		t.Fatalf("worst lateness %v; the 30ms stall should show", worst)
	}
	boom := errors.New("boom")
	if err := openLoop(5, due, time.Millisecond, func(int) error { return boom }, func(time.Duration) {}); !errors.Is(err, boom) {
		t.Fatalf("openLoop returned %v, want the send error", err)
	}
}

func TestClassifyRead(t *testing.T) {
	for _, c := range []struct {
		status int
		code   string
		err    error
		want   readOutcome
	}{
		{http.StatusOK, "", nil, readAnswered},
		{http.StatusServiceUnavailable, ldphttp.CodeEstimatePending, nil, readPending},
		{http.StatusConflict, ldphttp.CodeNoReports, nil, readPending},
		{http.StatusServiceUnavailable, ldphttp.CodeEngineStalled, nil, readFailed},
		{http.StatusNotFound, ldphttp.CodeUnknownStream, nil, readFailed},
		{http.StatusTooManyRequests, ldphttp.CodeRateLimited, nil, readFailed},
		{0, "", errors.New("connection refused"), readFailed},
	} {
		if got := classifyRead(c.status, c.code, c.err); got != c.want {
			t.Errorf("classifyRead(%d, %q, %v) = %v, want %v", c.status, c.code, c.err, got, c.want)
		}
	}
}

func TestCountReports(t *testing.T) {
	if n, err := countReports(wire.EncodeReports([][]float64{{0.5}, {1, 2, 3}, {}}), true); err != nil || n != 3 {
		t.Fatalf("binary count = %d, %v; want 3", n, err)
	}
	for body, want := range map[string]int{
		`{"reports":[[0.5],[1,2,3],[]]}`:      3,
		`{"stream":"a","reports":[0.1, 0.2]}`: 2,
		`{"reports":[]}`:                      0,
		`{"reports": [ [7] ] }`:               1,
	} {
		if n, err := countReports([]byte(body), false); err != nil || n != want {
			t.Errorf("countReports(%s) = %d, %v; want %d", body, n, err, want)
		}
	}
	for _, body := range []string{`{"reports":[[0.5]`, `{"report":0.5}`, `{"reports":7}`} {
		if _, err := countReports([]byte(body), false); err == nil {
			t.Errorf("countReports(%s) accepted a malformed body", body)
		}
	}
	if _, err := countReports([]byte(`{"reports":[]}`), true); err == nil {
		t.Error("a JSON body passed as a binary frame")
	}
}

func TestCheckDistribution(t *testing.T) {
	if err := checkDistribution([]float64{0.25, 0.75}, 2); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]float64{{0.25, 0.75, 0}, {-0.1, 1.1}, {math.NaN(), 1}, {0.5, 0.4}} {
		if err := checkDistribution(p, 2); err == nil {
			t.Errorf("checkDistribution(%v) passed", p)
		}
	}
}

func TestCheckFinal(t *testing.T) {
	est := &ldphttp.EstimateResponse{N: 10, Distribution: []float64{0.25, 0.75}}
	if err := checkFinal(est, 10, 2); err != nil {
		t.Fatal(err)
	}
	if err := checkFinal(est, 11, 2); err == nil || !strings.Contains(err.Error(), "covers 10 reports, want 11") {
		t.Fatalf("an estimate short of one acknowledged report passed: %v", err)
	}
	est.Distribution = []float64{-0.25, 1.25}
	if err := checkFinal(est, 10, 2); err == nil {
		t.Fatal("an estimate with negative mass passed")
	}
}

// smokeRun builds a smoke configuration's topology and runs its timed phase,
// returning the timed phase's error. tamper, when set, runs in between.
func smokeRun(t *testing.T, w *workload, seconds float64, tamper func(*system)) (*system, *inputs, *phase, error) {
	t.Helper()
	cfg := runConfig{seed: 7, seconds: seconds, out: t.TempDir(), dir: t.TempDir()}
	in, err := makeInputs(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, setup, err := buildTimed(w, in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	if len(setup) != setupRepeats {
		t.Fatalf("%d setup timings, want %d", len(setup), setupRepeats)
	}
	if tamper != nil {
		tamper(sys)
	}
	ph, err := sys.measure(cfg.seconds)
	return sys, in, ph, err
}

// postReport sends one sw report no Reporter made straight to a node.
func postReport(t *testing.T, n *node, s streamSpec) {
	t.Helper()
	if s.mechanism != "sw" {
		t.Fatalf("stream %s is %s; the tamper posts an sw report", s.name, s.mechanism)
	}
	resp, err := http.Post(n.url+"/v1/streams/"+s.name+"/report", "application/json", strings.NewReader(`{"report":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tamper report to %s: status %d", n.name, resp.StatusCode)
	}
}

// TestSmokeWorkloads runs every workload's smoke configuration through
// setup, the timed phase and every output check, then shows the checks trip
// on an estimate that misses its ceiling, on a report posted to the root past
// the edges, and on a report no Reporter sent.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts collectors and drives load for seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sw := w.smoke()
			sys, in, ph, err := smokeRun(t, sw, 1.5, nil)
			if err != nil {
				t.Fatal(err)
			}
			w1, ks, err := sys.check(in, ph)
			if err != nil {
				t.Fatal(err)
			}
			if ph.acked == 0 || len(ph.batchMS) == 0 || len(ph.freshMS) == 0 || len(ph.readMS) == 0 || w1 <= 0 || ks <= 0 {
				t.Fatalf("empty measurement: acked %d, %d batches, %d fresh, %d reads, w1 %v, ks %v",
					ph.acked, len(ph.batchMS), len(ph.freshMS), len(ph.readMS), w1, ks)
			}
			if attempted, failed := sys.ops.totals(); failed != 0 || attempted == 0 {
				t.Fatalf("%d of %d operations failed", failed, attempted)
			}

			strict := *sys.w
			strict.w1Max = w1 / 2
			sys.w = &strict
			if _, _, err := sys.check(in, ph); err == nil || !strings.Contains(err.Error(), "ceiling") {
				t.Fatalf("check with a W1 ceiling below the run's W1 = %v", err)
			}
			sys.w = sw

			if sys.root != nil {
				// One report posted to the root, past the edges: the root
				// no longer equals the sum over edges after the drain.
				postReport(t, sys.root, sw.streams[0])
				if _, _, err := sys.check(in, ph); err == nil || !strings.Contains(err.Error(), "root counts") {
					t.Fatalf("check after a report posted to the root = %v", err)
				}
			}

			// One report no Reporter sent: the stream no longer counts what
			// was acknowledged.
			postReport(t, sys.edges[0], sw.streams[0])
			if _, _, err := sys.check(in, ph); err == nil || !strings.Contains(err.Error(), "acknowledged") {
				t.Fatalf("check after an unacknowledged report = %v", err)
			}
		})
	}
}

// stallFirstPost holds the first POST it sees for d and passes every request
// through to base.
type stallFirstPost struct {
	base    http.RoundTripper
	d       time.Duration
	stalled atomic.Bool
}

func (s *stallFirstPost) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && s.stalled.CompareAndSwap(false, true) {
		time.Sleep(s.d)
	}
	return s.base.RoundTrip(req)
}

// TestOpenLoopFallingBehindFailsCheck stalls one batch of the federation
// smoke run far past the end of its schedule (1.5 s plus the Reporters'
// start offsets, about 2.1 s). Every report still arrives, but the open loop
// no longer kept its offered rate, so the check must fail.
func TestOpenLoopFallingBehindFailsCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("starts collectors and drives load for seconds")
	}
	sys, in, ph, err := smokeRun(t, federationWorkload().smoke(), 1.5, func(sys *system) {
		sys.client.Transport = &stallFirstPost{base: sys.client.Transport, d: 4 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.check(in, ph); err == nil || !strings.Contains(err.Error(), "fell behind") {
		t.Fatalf("check after a 4 s stall = %v", err)
	}
}

// TestAgedOutEpochFailsRun keeps one sealed epoch of the windowed smoke
// run's 1 s epochs over 3.5 s. Epochs age out, so estimate_n stops counting
// every acknowledged report; the run must fail at once instead of waiting
// out the settle deadline.
func TestAgedOutEpochFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts collectors and drives load for seconds")
	}
	w := windowedWorkload().smoke()
	w.retain = 1
	start := time.Now()
	if _, _, _, err := smokeRun(t, w, 3.5, nil); err == nil || !strings.Contains(err.Error(), "aged out") {
		t.Fatalf("run with retain 1 = %v", err)
	}
	if d := time.Since(start); d > settleTimeout/2 {
		t.Fatalf("the run took %v to fail", d)
	}
}

// TestRunTracedSmoke runs the traced attribution on the ingest and
// federation smoke configurations: every value is finite, the attribution
// metrics are present, and the layers each workload exists for were
// replayed.
func TestRunTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts collectors and drives load for seconds")
	}
	for _, c := range []struct {
		w        *workload
		positive []string
	}{
		{ingestWorkload(), []string{"share.ldphttp_json", "ldphttp.json_decode_ns_per_report", "em.iter_us.b256"}},
		{federationWorkload(), []string{"share.mechanism", "wire.decode_ns_per_report", "federate.decode_us",
			"federate.push_bytes_per_report", "snapshot.bytes"}},
	} {
		t.Run(c.w.name, func(t *testing.T) {
			cfg := runConfig{seed: 3, seconds: 3, out: t.TempDir(), dir: t.TempDir()}
			res, err := runTraced(c.w.smoke(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.write(io.Discard); err != nil {
				t.Fatal(err)
			}
			got := map[string]float64{}
			for _, m := range res.metrics {
				got[m.name] = m.value
			}
			for _, name := range []string{"bench.unattributed_frac", "bench.trace_overhead"} {
				if _, ok := got[name]; !ok {
					t.Errorf("traced result lacks %s", name)
				}
			}
			for _, name := range c.positive {
				if got[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, got[name])
				}
			}
		})
	}
}
