package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/ldphttp"
	"repro/internal/metrics"
)

// runConfig carries one run's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	out     string // where span dumps are kept
	dir     string // the run's scratch directory (edge snapshots), removed at exit
}

const (
	// setupRepeats is how many times a run builds its topology: setup_s is
	// the median, and the last build carries the timed phase.
	setupRepeats = 15
	// settleTimeout bounds the wait, once the generator stops, for every
	// acknowledged report to reach a published estimate.
	settleTimeout = 60 * time.Second
	// rateTolerance is how far an open loop's acknowledged rate may fall
	// below the offered rate before the run is invalid.
	rateTolerance = 0.1
	// closedBase caps the distinct values of the closed loop's dataset.
	closedBase = 1 << 20
)

// feed is the fixed, seeded input of one Reporter.
type feed struct {
	edge   int
	stream streamSpec
	values []float64
	seed   uint64
	rate   float64 // open-loop reports per second; 0 on the closed loop
	passes int     // closed loop: how many times the Reporter sends values
}

// inputs are a run's generated reports and the truth the final estimates are
// checked against. The program sees only the reports the Reporters make of
// these values.
type inputs struct {
	feeds []feed
	sent  map[string]int64     // reports per stream, summed over edges
	truth map[string][]float64 // distribution of every value sent, per stream
}

// derive gives each dataset and Reporter its own seed, derived from the
// workload seed and a label.
func derive(seed uint64, label ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed, label)
	return h.Sum64() | 1 // 0 would select repro's fixed default seed
}

func makeInputs(w *workload, cfg runConfig) (*inputs, error) {
	in := &inputs{sent: map[string]int64{}, truth: map[string][]float64{}}
	add := func(edge int, s streamSpec, n, passes, reporters int, rate float64) error {
		ds, err := dataset.ByName(s.dataset, max(n, 1), derive(cfg.seed, "data", edge, s.name))
		if err != nil {
			return err
		}
		counts := in.truth[s.name]
		if counts == nil {
			counts = make([]float64, s.buckets)
			in.truth[s.name] = counts
		}
		for _, v := range ds.Values {
			counts[histogram.BucketOf(v, s.buckets)]++
		}
		in.sent[s.name] += int64(len(ds.Values) * passes)
		per := (len(ds.Values) + reporters - 1) / reporters
		for r := 0; r < reporters; r++ {
			lo, hi := min(r*per, len(ds.Values)), min((r+1)*per, len(ds.Values))
			in.feeds = append(in.feeds, feed{edge: edge, stream: s, values: ds.Values[lo:hi],
				seed: derive(cfg.seed, "reporter", edge, s.name, r), rate: rate, passes: passes})
		}
		return nil
	}
	if w.rate == 0 {
		// The closed loop sends a base dataset of at most closedBase values
		// several times over, which keeps memory small and the truth exact.
		n := max(int(w.closedRate*cfg.seconds), 1)
		passes := (n + closedBase - 1) / closedBase
		if err := add(0, w.streams[0], (n+passes-1)/passes, passes, w.closedReporters, 0); err != nil {
			return nil, err
		}
	} else {
		for e := 0; e < w.edges; e++ {
			for _, s := range w.streams {
				if err := add(e, s, int(w.rate*cfg.seconds), 1, 1, w.rate); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, counts := range in.truth {
		total := sum(counts)
		for i := range counts {
			counts[i] /= total
		}
	}
	return in, nil
}

// node is one in-process collector behind a loopback listener.
type node struct {
	name     string
	srv      *ldphttp.Server
	hs       *http.Server
	url      string
	served   chan struct{}
	snapshot string // an edge's write-ahead snapshot path ("" when not pushing)
}

func startNode(name string, cfg ldphttp.Config, tr *tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", name, err)
	}
	srv := ldphttp.NewServer(cfg)
	n := &node{name: name, srv: srv, url: "http://" + ln.Addr().String(), served: make(chan struct{}),
		hs: &http.Server{Handler: tr.handler(name, srv.Handler())}}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns once stop closes the server
	}()
	return n, nil
}

// stop closes the listener and connections, waits for Serve to return, then
// stops the node's refresh engine and push loop.
func (n *node) stop() {
	n.hs.Close()
	<-n.served
	n.srv.Close()
}

// reporter is one repro.Reporter and its feed.
type reporter struct {
	feed
	rep    *repro.Reporter
	start  time.Time     // open-loop schedule origin
	offset time.Duration // how far start lies behind the timed phase's start
}

// due is when the open-loop schedule sends report i.
func (r *reporter) due(i int) time.Time {
	return r.start.Add(time.Duration(float64(i) / r.rate * float64(time.Second)))
}

// target is one batch endpoint: a stream on one edge.
type target struct {
	node   *node
	stream streamSpec
	acked  atomic.Int64 // reports acknowledged
	// sched is the target's only Reporter on an open loop, whose schedule
	// times each batch from when its newest report was due; nil on the
	// closed loop, where a batch is timed from when it was posted.
	sched *reporter
}

// counters tally the operations a run attempted and those that failed.
type counters struct {
	batches, batchFailed atomic.Int64
	reads, readPending   atomic.Int64
	readFailed           atomic.Int64
	queryReads           atomic.Int64
	pushes, pushFailed   atomic.Int64
}

func (c *counters) totals() (attempted, failed int64) {
	return c.batches.Load() + c.reads.Load() + c.pushes.Load(),
		c.batchFailed.Load() + c.readFailed.Load() + c.pushFailed.Load()
}

// system is one built topology with its generator.
type system struct {
	w         *workload
	dir       string  // the run's scratch directory
	tr        *tracer // nil on untraced runs
	edges     []*node
	root      *node // federation root, nil elsewhere
	reporters []*reporter
	targets   map[string]*target // by host and escaped path of the batch endpoint
	client    *http.Client       // the generator's one shared client
	gen       *http.Transport    // its connection pool: nproc connections per server
	push      *http.Transport    // the edges' push connection pool
	ops       counters
	fresh     *freshness
	batchMS   samples
	readMS    samples
	lagMS     samples
	finals    map[string]*ldphttp.EstimateResponse // final served estimate by stream
}

// readNode is where estimates are read and checked: the root, else the only
// edge.
func (sys *system) readNode() *node {
	if sys.root != nil {
		return sys.root
	}
	return sys.edges[0]
}

// nodes lists every collector of the topology.
func (sys *system) nodes() []*node {
	if sys.root == nil {
		return sys.edges
	}
	return append([]*node{sys.root}, sys.edges...)
}

// build starts the collectors, declares the streams, wires federation push
// and creates the Reporters: everything before the first timed report.
func build(w *workload, in *inputs, cfg runConfig, tr *tracer) (sys *system, err error) {
	procs := runtime.NumCPU()
	sys = &system{w: w, dir: cfg.dir, tr: tr, targets: map[string]*target{}, fresh: newFreshness(),
		finals: map[string]*ldphttp.EstimateResponse{},
		gen:    &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}}
	sys.client = &http.Client{Transport: genTransport{sys}}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if w.edges > 1 {
		sys.push = &http.Transport{}
		if sys.root, err = startNode("root", ldphttp.Config{Epsilon: 1, Buckets: 256,
			Federation: ldphttp.FederationConfig{Accept: true, AutoDeclare: true}}, tr); err != nil {
			return nil, err
		}
	}
	retain := w.retain
	if w.epoch > 0 && retain == 0 {
		// Retention covers the whole run: no acknowledged report ages out.
		retain = int(math.Ceil(cfg.seconds/w.epoch.Seconds())) + 4
	}
	declare := func(n *node) error {
		for _, s := range w.streams {
			if s.name == ldphttp.DefaultStream {
				continue // every server is born with it: sw, ε=1, B=256
			}
			sc := ldphttp.StreamConfig{Epsilon: 1, Buckets: s.buckets, Mechanism: s.mechanism}
			if w.epoch > 0 {
				sc.Epoch, sc.Retain = ldphttp.Duration(w.epoch), retain
			}
			if err := n.srv.CreateStream(s.name, sc); err != nil {
				return err
			}
		}
		return nil
	}
	if sys.root != nil {
		// The root declares the fleet's streams too, so its readers get 409
		// no_reports, not 404, before the first push lands.
		if err := declare(sys.root); err != nil {
			return nil, err
		}
	}
	for e := 0; e < w.edges; e++ {
		n, err := startNode(fmt.Sprintf("edge-%d", e), ldphttp.Config{Epsilon: 1, Buckets: 256}, tr)
		if err != nil {
			return nil, err
		}
		sys.edges = append(sys.edges, n)
		if err := declare(n); err != nil {
			return nil, err
		}
		if sys.root != nil {
			n.snapshot = filepath.Join(cfg.dir, n.name+".snap")
			save := func() error { return n.srv.SaveSnapshot(n.snapshot) }
			if err := n.srv.EnablePush(ldphttp.PushOptions{
				URL: sys.root.url, Edge: n.name, Interval: w.pushEvery,
				HTTPClient: &http.Client{Transport: pushTransport{sys}},
				Persist:    tr.persist(save), Binary: true,
			}); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range in.feeds {
		n := sys.edges[f.edge]
		rep, err := repro.NewReporter(repro.ReporterOptions{
			URL:        n.url,
			Stream:     f.stream.name,
			Options:    repro.Options{Epsilon: 1, Buckets: f.stream.buckets, Mechanism: f.stream.mechanism, Seed: f.seed},
			Binary:     w.binary,
			HTTPClient: sys.client,
		})
		if err != nil {
			return nil, fmt.Errorf("reporter for %s/%s: %w", n.name, f.stream.name, err)
		}
		r := &reporter{feed: f, rep: rep}
		sys.reporters = append(sys.reporters, r)
		key := strings.TrimPrefix(n.url, "http://") + "/v1/streams/" + url.PathEscape(f.stream.name) + "/batch"
		tg := sys.targets[key]
		if tg == nil {
			tg = &target{node: n, stream: f.stream}
			sys.targets[key] = tg
		}
		if f.rate > 0 {
			tg.sched = r
		}
	}
	return sys, nil
}

// buildTimed builds the topology setupRepeats times, tearing down all but
// the last, and returns the last with every build's duration in seconds.
// Each build starts from a collected heap, so it does not pay for the
// garbage of the inputs or of the build before it.
func buildTimed(w *workload, in *inputs, cfg runConfig, tr *tracer) (*system, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		sys, err := build(w, in, cfg, tr)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == setupRepeats-1 {
			return sys, secs, nil
		}
		sys.close()
	}
}

// close stops the Reporters, then the edges, then the root, and drops the
// idle connections.
func (sys *system) close() {
	for _, r := range sys.reporters {
		r.rep.Close() // the timed phase already shipped everything
	}
	for _, n := range sys.edges {
		n.stop()
	}
	if sys.root != nil {
		sys.root.stop()
	}
	sys.gen.CloseIdleConnections()
	if sys.push != nil {
		sys.push.CloseIdleConnections()
	}
}

// genTransport is the generator client's RoundTripper. It counts every batch
// attempt, and for each acknowledged batch records its latency and feeds the
// freshness tracker. Reads pass through.
type genTransport struct{ sys *system }

func (t genTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sys := t.sys
	tg := sys.targets[req.URL.Host+req.URL.EscapedPath()]
	if tg == nil || req.Method != http.MethodPost {
		return sys.tr.roundTrip(sys.gen, req)
	}
	body, err := replayableBody(req)
	if err != nil {
		return nil, err
	}
	n, err := countReports(body, sys.w.binary)
	if err != nil {
		return nil, err
	}
	posted := time.Now()
	resp, err := sys.tr.roundTrip(sys.gen, req)
	acked := time.Now()
	sys.ops.batches.Add(1)
	if err != nil || resp.StatusCode != http.StatusOK {
		sys.ops.batchFailed.Add(1) // the Batcher requeues the batch
		return resp, err
	}
	first := int(tg.acked.Add(int64(n))) - n
	from := posted
	if tg.sched != nil {
		from = tg.sched.due(first + n - 1)
	}
	sys.batchMS.add(acked, msBetween(from, acked))
	sys.fresh.ack(tg.stream.name, n, acked)
	sys.tr.recordBody(tg.stream.name, body)
	return resp, nil
}

// pushTransport is the RoundTripper of the edges' PushOptions.HTTPClient: it
// counts push attempts and failures and, when tracing, records push spans
// and bodies.
type pushTransport struct{ sys *system }

func (t pushTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sys := t.sys
	var body []byte
	if sys.tr != nil {
		var err error
		if body, err = replayableBody(req); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	resp, err := sys.push.RoundTrip(req)
	sys.ops.pushes.Add(1)
	if err != nil || resp.StatusCode != http.StatusOK {
		sys.ops.pushFailed.Add(1)
	}
	sys.tr.pushSpan(start, time.Since(start), body)
	return resp, err
}

// replayableBody returns a request's body without consuming it; the
// Reporter and the pusher build requests from byte slices, so GetBody is set.
func replayableBody(req *http.Request) ([]byte, error) {
	if req.GetBody == nil {
		return nil, errors.New("request body cannot be re-read")
	}
	rc, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// report sends one value through a Reporter, timing the call when tracing.
func (sys *system) report(r *reporter, v float64) error {
	if sys.tr == nil {
		return r.rep.Report(v)
	}
	start := time.Now()
	err := r.rep.Report(v)
	sys.tr.report(start, time.Since(start))
	return err
}

// generate sends a Reporter's whole feed, on the open-loop schedule or as
// fast as acknowledgements allow, then closes the Reporter, which ships its
// last partial batch.
func (sys *system) generate(r *reporter) error {
	var err error
	if r.rate > 0 {
		err = openLoop(len(r.values), r.due, sys.w.tick,
			func(i int) error { return sys.report(r, r.values[i]) },
			func(d time.Duration) { sys.lagMS.add(time.Now(), float64(d)/float64(time.Millisecond)) })
	} else {
	passes:
		for p := 0; p < r.passes; p++ {
			for _, v := range r.values {
				if err = sys.report(r, v); err != nil {
					break passes
				}
			}
		}
	}
	if cerr := r.rep.Close(); err == nil {
		err = cerr
	}
	return err
}

// read runs one open-loop reader until its schedule ends or the generator
// stops: read k is due at start + k/rate and is timed from then, so a stall
// that delays later reads shows in their latency.
func (sys *system) read(spec readerSpec, start, end time.Time, stop <-chan struct{}) {
	base := sys.readNode().url
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / spec.rate * float64(time.Second)))
		if !due.Before(end) {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		path := spec.paths[k%len(spec.paths)]
		status, code, err := get(sys.client, base+path)
		now := time.Now()
		sys.readMS.add(now, msBetween(due, now))
		sys.ops.reads.Add(1)
		if strings.Contains(path, "/query") {
			sys.ops.queryReads.Add(1)
		}
		switch classifyRead(status, code, err) {
		case readPending:
			sys.ops.readPending.Add(1)
		case readFailed:
			sys.ops.readFailed.Add(1)
		}
	}
}

// get performs one read and returns its status and, for an error envelope,
// its code.
func get(c *http.Client, u string) (status int, code string, err error) {
	resp, err := c.Get(u)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode == http.StatusOK {
		return resp.StatusCode, "", err
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil {
		return resp.StatusCode, "", nil // not an envelope: classified by status alone
	}
	return resp.StatusCode, env.Error.Code, nil
}

// probe polls the read node's stream listing, which never wakes the refresh
// engine, and feeds each stream's estimate_n to the freshness tracker.
func (sys *system) probe(stop <-chan struct{}) {
	read := sys.readNode()
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		infos := read.srv.Streams()
		now := time.Now()
		for _, info := range infos {
			sys.fresh.observe(info.Name, int64(info.EstimateN), now)
		}
		t.Reset(sys.w.probeEvery)
	}
}

// phase is what one timed run measured. Rates and CPU are whole-phase
// figures. For the percentiles the phase is cut into phaseSlices equal
// slices of wall time and each percentile is the median of its per-slice
// values, so one stall moves one slice's tail, not the metric.
type phase struct {
	start     time.Time
	wall, cpu time.Duration
	acked     int64
	batchMS   []float64
	readMS    []float64
	freshMS   []float64
	lagMS     []float64
}

// phaseSlices is how many slices a timed phase is cut into.
const phaseSlices = 10

// rate is the acknowledged reports per second of timed wall time.
func (ph *phase) rate() float64 { return float64(ph.acked) / ph.wall.Seconds() }

// cpuPerMReport is the process CPU seconds of the timed phase per million
// acknowledged reports.
func (ph *phase) cpuPerMReport() float64 { return ph.cpu.Seconds() / (float64(ph.acked) / 1e6) }

// slicedPercentile is the median per-slice q-quantile of the samples, over
// the slices whose sample supports it. It uses up to phaseSlices slices, and
// fewer when the sample is too small for every slice to hold ten samples
// beyond the quantile with a fifth to spare (a p99 wants 1200 per slice).
func (ph *phase) slicedPercentile(s *samples, q float64) (float64, bool) {
	perSlice := 1.2 * minTail / (1 - q)
	k := min(phaseSlices, max(1, int(float64(len(s.values()))/perSlice)))
	d := ph.wall / time.Duration(k)
	var vs []float64
	for i := 0; i < k; i++ {
		from := ph.start.Add(d * time.Duration(i))
		if v, ok := percentile(s.within(from, from.Add(d)), q); ok {
			vs = append(vs, v)
		}
	}
	return median(vs), len(vs) > 0
}

// measure runs the timed phase: readers, generator and freshness probe from
// one start time until every Reporter has shipped its feed, then settles.
func (sys *system) measure(seconds float64) (*phase, error) {
	stopProbe, probeDone := make(chan struct{}), make(chan struct{})
	generated := make(chan struct{})
	sys.tr.begin(sys)
	cpu0, start := cpuTime(), time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	go func() {
		defer close(probeDone)
		sys.probe(stopProbe)
	}()
	var readers sync.WaitGroup
	for _, spec := range sys.w.readers {
		readers.Add(1)
		go func() {
			defer readers.Done()
			sys.read(spec, start, end, generated)
		}()
	}
	errs := make([]error, len(sys.reporters))
	var gens sync.WaitGroup
	for i, r := range sys.reporters {
		if r.rate > 0 {
			// Spread the Reporters' batch boundaries over one batch period:
			// independent clients do not post in lockstep.
			period := float64(reporterMaxBatch) / r.rate * float64(time.Second)
			r.offset = time.Duration(period * float64(i) / float64(len(sys.reporters)))
		}
		r.start = start.Add(r.offset)
		gens.Add(1)
		go func() {
			defer gens.Done()
			errs[i] = sys.generate(r)
		}()
	}
	gens.Wait()
	ph := &phase{start: start, wall: time.Since(start), cpu: cpuTime() - cpu0}
	close(generated)
	err := errors.Join(errs...)
	if terr := sys.tr.end(sys); err == nil {
		err = terr
	}
	readers.Wait()
	if err == nil {
		err = sys.settle()
	}
	close(stopProbe)
	<-probeDone
	if err != nil {
		return nil, err
	}
	for _, tg := range sys.targets {
		ph.acked += tg.acked.Load()
	}
	ph.batchMS, ph.readMS = sys.batchMS.values(), sys.readMS.values()
	ph.freshMS, ph.lagMS = sys.fresh.values(), sys.lagMS.values()
	return ph, nil
}

// settle brings the topology up to date once the generator has stopped:
// each edge ships what it holds, and every acknowledged report must reach a
// published estimate at the node being read.
func (sys *system) settle() error {
	if sys.root != nil {
		for _, e := range sys.edges {
			for i := 0; ; i++ {
				shipped, err := e.srv.PushNow()
				if err != nil {
					return fmt.Errorf("final push from %s: %w", e.name, err)
				}
				if !shipped {
					break
				}
				if i == 100 {
					return fmt.Errorf("final push from %s never drained", e.name)
				}
			}
		}
	}
	deadline := time.Now().Add(settleTimeout)
	for {
		// An aged-out epoch takes its reports out of estimate_n, so the
		// wait below could never end: fail at once instead.
		if err := sys.agedOut(); err != nil {
			return err
		}
		if sys.fresh.pending() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d acknowledged batches never reached a published estimate within %v",
				sys.fresh.pending(), settleTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// agedOut fails when a windowed stream at the node being read has dropped
// an epoch, whose reports estimate_n then no longer counts.
func (sys *system) agedOut() error {
	for _, info := range sys.readNode().srv.Streams() {
		if info.Window != nil && info.Window.OldestEpoch > 0 {
			return fmt.Errorf("stream %s aged out epochs before %d during the run, so estimate_n no longer counts every acknowledged report",
				info.Name, info.Window.OldestEpoch)
		}
	}
	return nil
}

// check runs the output checks and returns the mean normalized W1 and KS of
// the final served estimates against the true histograms of the values sent.
func (sys *system) check(in *inputs, ph *phase) (w1, ks float64, err error) {
	acked := map[string]int64{}
	for _, tg := range sys.targets {
		a := tg.acked.Load()
		if got := tg.node.srv.StreamN(tg.stream.name); int64(got) != a {
			return 0, 0, fmt.Errorf("%s/%s counts %d reports, but %d were acknowledged",
				tg.node.name, tg.stream.name, got, a)
		}
		acked[tg.stream.name] += a
	}
	names := make([]string, 0, len(in.sent))
	for name, sent := range in.sent {
		if acked[name] != sent {
			return 0, 0, fmt.Errorf("stream %s: %d reports sent, %d acknowledged", name, sent, acked[name])
		}
		names = append(names, name)
	}
	sort.Strings(names)
	read := sys.readNode() // settle already refused a run that aged out an epoch
	for _, name := range names {
		if got := read.srv.StreamN(name); int64(got) != acked[name] {
			return 0, 0, fmt.Errorf("%s counts %d reports of %s, the edges acknowledged %d", read.name, got, name, acked[name])
		}
		est, err := fetchEstimate(&http.Client{Transport: sys.gen}, read.url, name)
		if err != nil {
			return 0, 0, err
		}
		truth := in.truth[name]
		if err := checkFinal(est, acked[name], len(truth)); err != nil {
			return 0, 0, fmt.Errorf("final estimate of %s: %w", name, err)
		}
		w1 += metrics.Wasserstein(truth, est.Distribution)
		ks += metrics.KS(truth, est.Distribution)
		sys.finals[name] = est
	}
	w1 /= float64(len(names))
	ks /= float64(len(names))
	if w1 > sys.w.w1Max || ks > sys.w.ksMax {
		return 0, 0, fmt.Errorf("mean W1 %.4g or KS %.4g is above its sanity ceiling (%g, %g)", w1, ks, sys.w.w1Max, sys.w.ksMax)
	}
	if sys.w.rate > 0 {
		// The schedule's span runs from the common start to the last report
		// due; the Reporters' start offsets are part of it.
		var span time.Duration
		for _, r := range sys.reporters {
			span = max(span, r.due(len(r.values)).Sub(r.start.Add(-r.offset)))
		}
		offered := float64(ph.acked) / span.Seconds()
		if got := float64(ph.acked) / ph.wall.Seconds(); got < offered*(1-rateTolerance) {
			return 0, 0, fmt.Errorf("open loop fell behind: %.0f reports/s acknowledged of %.0f offered", got, offered)
		}
	}
	return w1, ks, nil
}

// fetchEstimate GETs a stream's served whole-stream estimate.
func fetchEstimate(c *http.Client, base, stream string) (*ldphttp.EstimateResponse, error) {
	resp, err := c.Get(base + "/v1/streams/" + url.PathEscape(stream) + "/estimate")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // for the error message only
		return nil, fmt.Errorf("final estimate of %s: status %d: %s", stream, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var est ldphttp.EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		return nil, fmt.Errorf("final estimate of %s: %w", stream, err)
	}
	return &est, nil
}

// outcome is one checked, timed run of a workload.
type outcome struct {
	sys    *system // closed; its tallies stay readable
	in     *inputs
	setup  []float64
	ph     *phase
	w1, ks float64
}

// execute generates the inputs, builds the topology, runs the timed phase
// and the output checks. after, when set, runs once the checks pass and
// before the topology is torn down.
func execute(w *workload, cfg runConfig, tr *tracer, after func(*system) error) (*outcome, error) {
	in, err := makeInputs(w, cfg)
	if err != nil {
		return nil, err
	}
	sys, setup, err := buildTimed(w, in, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	ph, err := sys.measure(cfg.seconds)
	if err != nil {
		return nil, err
	}
	w1, ks, err := sys.check(in, ph)
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	if after != nil {
		if err := after(sys); err != nil {
			return nil, err
		}
	}
	return &outcome{sys: sys, in: in, setup: setup, ph: ph, w1: w1, ks: ks}, nil
}

// runPlain measures the end-to-end metrics, with no tracing added.
func runPlain(w *workload, cfg runConfig) (*result, error) {
	o, err := execute(w, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	ph := o.ph
	res := &result{}
	res.attempted, res.failed = o.sys.ops.totals()
	res.add("setup_s", median(o.setup), "s", len(o.setup))
	res.add("ingest_rps", ph.rate(), "reports/s", 0)
	res.percentiles(ph, "batch", &o.sys.batchMS)
	res.percentiles(ph, "fresh", &o.sys.fresh.ms)
	res.percentiles(ph, "read", &o.sys.readMS)
	res.add("w1", o.w1, "ratio", 0)
	res.add("ks", o.ks, "ratio", 0)
	res.add("cpu_s_per_mreport", ph.cpuPerMReport(), "CPU-s/Mreport", 0)
	res.add("peak_rss_mb", peakRSSMiB(), "MiB", 0)
	res.notes = append(res.notes, fmt.Sprintf("failed_frac %g: %d of %d operations failed (the attempted and failed fields)",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted))
	return res, nil
}

// percentiles adds prefix_p50_ms and prefix_p99_ms, each the median over
// the phase's slices, leaving out (with a note) a percentile no slice's
// sample can support.
func (r *result) percentiles(ph *phase, prefix string, s *samples) {
	n := len(s.values())
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}} {
		name := prefix + "_" + p.name + "_ms"
		v, ok := ph.slicedPercentile(s, p.q)
		if !ok {
			r.notes = append(r.notes, fmt.Sprintf("%s left out: no slice of its %d samples supports it", name, n))
			continue
		}
		r.add(name, v, "ms", n)
	}
}
