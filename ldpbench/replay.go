package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/federate"
	"repro/internal/ldphttp"
	"repro/internal/mechanism"
	"repro/internal/query"
	"repro/internal/randx"
	"repro/internal/window"
	"repro/internal/wire"
)

const (
	// replayFor is how long each replay loop runs; its costs are averages
	// over that time.
	replayFor = 200 * time.Millisecond
	// replayReports caps the recorded values each mechanism replay uses.
	replayReports = 4096
	// reporterMaxBatch is repro.Reporter's default MaxBatch.
	reporterMaxBatch = 128
	// emReplayIters is the fixed iteration count of the EM replay.
	emReplayIters = 20
)

// layerOrder lists the layers the attribution gives a CPU share.
// ldphttp_json is ldphttp's JSON decoding, split out of ldphttp.
var layerOrder = []string{"repro", "http", "ldphttp", "ldphttp_json", "wire", "mechanism",
	"aggregate", "window", "em", "query", "federate", "snapshot", "runtime"}

// Sinks keep the compiler from discarding replayed calls.
var (
	bytesSink []byte
	querySink query.Response
	pushSink  federate.Push
)

// runTraced runs the workload twice for half the time each: untraced, as
// the baseline of bench.trace_overhead, then traced. The traced run's spans,
// counters and replays give the per-layer metrics; its numbers never feed
// the end-to-end metrics.
func runTraced(w *workload, cfg runConfig) (*result, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	base, err := execute(w, half, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	tr := newTracer()
	o, err := execute(w, half, tr, tr.saveCounts)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := tr.dump(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	c, err := replay(o, tr)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return layerMetrics(base, o, tr, c), nil
}

// timeIt calls fn until replayFor has passed; fn returns the units of work
// it did. It returns wall and process-CPU nanoseconds per unit.
func timeIt(fn func() int) (wallNS, cpuNS float64) {
	runtime.GC()
	units := 0
	c0, t0 := cpuTime(), time.Now()
	for time.Since(t0) < replayFor {
		n := fn()
		if n == 0 {
			return 0, 0
		}
		units += n
	}
	return float64(time.Since(t0)) / float64(units), float64(cpuTime()-c0) / float64(units)
}

// costs are per-call costs of the layers the program calls only from
// inside, measured by replaying the traced run's recorded inputs through
// each layer's public functions once the topology is torn down. Times are
// wall time on the otherwise idle process, except where marked CPU.
type costs struct {
	jsonDecode             float64            // ns per report
	wireDecode, wireEncode float64            // ns per report
	perturb, bucketize     map[string]float64 // ns per report, by mechanism
	cells                  map[string]float64 // histogram cells per report, by mechanism
	aggAdd, winAdd         float64            // ns per cell
	aggSnapshot, winMerge  float64            // µs per call
	emIter, emIterCPU      map[int]float64    // µs per EMS iteration (wall, CPU), by buckets
	queryEval              float64            // µs per quantile read
	pushDecode             float64            // µs per push
	repro                  float64            // ns of Reporter CPU per report beyond perturb and encode
	http                   float64            // µs of loopback client and server CPU per request
}

func replay(o *outcome, tr *tracer) (*costs, error) {
	w := o.sys.w
	c := &costs{perturb: map[string]float64{}, bucketize: map[string]float64{}, cells: map[string]float64{},
		emIter: map[int]float64{}, emIterCPU: map[int]float64{}}
	values := map[string][]float64{}
	for _, f := range o.in.feeds {
		if values[f.stream.name] == nil {
			values[f.stream.name] = f.values
		}
	}
	// mechanism on the first stream of each mechanism; aggregate and window
	// on the cells of the workload's widest stream, so every workload
	// measures both layers' per-call cost even where its streams are plain.
	widest := w.streams[0]
	for _, s := range w.streams {
		if s.buckets > widest.buckets {
			widest = s
		}
		if _, done := c.perturb[s.mechanism]; done {
			continue
		}
		m, err := replayMechanism(s, values[s.name])
		if err != nil {
			return nil, err
		}
		c.perturb[s.mechanism], c.bucketize[s.mechanism], c.cells[s.mechanism] = m.perturbNS, m.bucketizeNS, m.cellsPerReport
	}
	m, err := replayMechanism(widest, values[widest.name])
	if err != nil {
		return nil, err
	}
	c.aggAdd, c.aggSnapshot = replayAggregate(m.outputBuckets, m.batches)
	c.winAdd, c.winMerge = replayWindow(m.outputBuckets, windowEpoch(w), m.batches)
	var batchBodies [][]byte
	for _, s := range w.streams {
		batchBodies = append(batchBodies, tr.bodies[s.name]...)
	}
	if len(batchBodies) == 0 {
		return nil, fmt.Errorf("no batch bodies were recorded")
	}
	contentType := "application/json"
	if w.binary {
		contentType = wire.ContentType
		if c.wireDecode, c.wireEncode, err = replayWire(batchBodies); err != nil {
			return nil, err
		}
	} else if c.jsonDecode, err = replayJSON(batchBodies); err != nil {
		return nil, err
	}
	// EM at both paper granularities: on a sw stream's final counts where
	// the workload has one at that granularity, else on the first stream's
	// values perturbed and bucketized by a sw client and aggregator of it.
	for _, b := range []int{256, 1024} {
		spec := streamSpec{name: fmt.Sprintf("sw-%d", b), mechanism: mechanism.SW, buckets: b}
		counts := []float64(nil)
		for _, s := range w.streams {
			if s.mechanism == mechanism.SW && s.buckets == b {
				counts = tr.counts[s.name]
				break
			}
		}
		if counts == nil {
			if counts, err = swCounts(b, values[w.streams[0].name]); err != nil {
				return nil, err
			}
		}
		c.emIter[b], c.emIterCPU[b] = replayEM(spec, counts)
	}
	if est := o.sys.finals[w.streams[0].name]; est != nil {
		if c.queryEval, err = replayQuery(est); err != nil {
			return nil, err
		}
	}
	if pushes := tr.bodies["push"]; len(pushes) > 0 {
		if c.pushDecode, err = replayPushDecode(pushes); err != nil {
			return nil, err
		}
	}
	f := o.in.feeds[0]
	reporterNS, err := replayReporter(f, w.binary)
	if err != nil {
		return nil, err
	}
	c.repro = max(0, reporterNS-c.perturb[f.stream.mechanism]-c.wireEncode)
	if c.http, err = replayHTTP(batchBodies[0], contentType); err != nil {
		return nil, err
	}
	return c, nil
}

// mechReplay is what replayMechanism measured.
type mechReplay struct {
	perturbNS, bucketizeNS, cellsPerReport float64
	outputBuckets                          int
	batches                                [][]int // cells of Reporter-sized batches
}

// replayMechanism perturbs recorded values with core.Client.Perturb and
// bucketizes the reports with core.Aggregator.Bucketize, as the Reporter and
// the collector do.
func replayMechanism(s streamSpec, values []float64) (*mechReplay, error) {
	cfg := core.Config{Epsilon: 1, Buckets: s.buckets, Mechanism: s.mechanism, Smoothing: true}
	client, agg := core.NewClient(cfg), core.NewAggregator(cfg)
	values = values[:min(len(values), replayReports)]
	if len(values) == 0 {
		return nil, fmt.Errorf("stream %s sent no values", s.name)
	}
	m := &mechReplay{outputBuckets: agg.OutputBuckets()}
	reps := make([]mechanism.Report, len(values))
	rng := randx.New(1)
	m.perturbNS, _ = timeIt(func() int {
		for i, v := range values {
			reps[i] = client.Perturb(v, rng)
		}
		return len(values)
	})
	total := 0
	for i := 0; i < len(reps); i += reporterMaxBatch {
		var cells []int
		for _, r := range reps[i:min(i+reporterMaxBatch, len(reps))] {
			var err error
			if cells, err = agg.Bucketize(cells, r); err != nil {
				return nil, fmt.Errorf("bucketize a %s report: %w", s.mechanism, err)
			}
		}
		m.batches = append(m.batches, cells)
		total += len(cells)
	}
	m.cellsPerReport = float64(total) / float64(len(reps))
	var scratch []int
	m.bucketizeNS, _ = timeIt(func() int {
		for _, r := range reps {
			scratch, _ = agg.Bucketize(scratch[:0], r) // every report bucketized above
		}
		return len(reps)
	})
	return m, nil
}

// replayAggregate replays Striped.AddBatch and Snapshot at the server's
// default shard count.
func replayAggregate(buckets int, batches [][]int) (addNS, snapshotUS float64) {
	s := aggregate.New(buckets, 0)
	addNS, _ = timeIt(func() int {
		n := 0
		for _, b := range batches {
			s.AddBatch(b)
			n += len(b)
		}
		return n
	})
	var dst []float64
	snap, _ := timeIt(func() int {
		dst, _ = s.Snapshot(dst)
		return 1
	})
	return addNS, snap / 1e3
}

// replayWindow replays Ring.AddBatch, and Ring.Merge over the read window
// (last:3: two sealed epochs and the live one).
func replayWindow(buckets int, epoch time.Duration, batches [][]int) (addNS, mergeUS float64) {
	r := window.New(buckets, 0, window.Config{Epoch: epoch}, time.Now())
	addNS, _ = timeIt(func() int {
		n := 0
		for _, b := range batches {
			r.AddBatch(b)
			n += len(b)
		}
		return n
	})
	for i := 0; i < 2; i++ {
		r.Rotate()
		for _, b := range batches {
			r.AddBatch(b)
		}
	}
	cur, _ := r.Current()
	g := window.Range{Lo: max(cur-2, r.Oldest()), Hi: cur}
	var dst []float64
	merge, _ := timeIt(func() int {
		dst, _, _ = r.Merge(g, dst) // g lies inside the retained epochs
		return 1
	})
	return addNS, merge / 1e3
}

// replayWire replays wire.DecodeReports and wire.EncodeReports over the
// recorded binary batch bodies.
func replayWire(bodies [][]byte) (decodeNS, encodeNS float64, err error) {
	var decoded [][][]float64
	for _, b := range bodies {
		reps, err := wire.DecodeReports(b)
		if err != nil {
			return 0, 0, err
		}
		decoded = append(decoded, reps)
	}
	decodeNS, _ = timeIt(func() int {
		n := 0
		for _, b := range bodies {
			reps, _ := wire.DecodeReports(b) // decoded above
			n += len(reps)
		}
		return n
	})
	encodeNS, _ = timeIt(func() int {
		n := 0
		for _, reps := range decoded {
			bytesSink = wire.EncodeReports(reps)
			n += len(reps)
		}
		return n
	})
	return decodeNS, encodeNS, nil
}

// replayJSON replays the collector's JSON batch decoding (a json.Decoder
// into []ldphttp.WireReport) over the recorded JSON batch bodies.
func replayJSON(bodies [][]byte) (float64, error) {
	type batch struct {
		Stream  string               `json:"stream"`
		Reports []ldphttp.WireReport `json:"reports"`
	}
	for _, b := range bodies {
		var v batch
		if err := json.Unmarshal(b, &v); err != nil {
			return 0, err
		}
	}
	ns, _ := timeIt(func() int {
		n := 0
		for _, b := range bodies {
			var v batch
			_ = json.NewDecoder(bytes.NewReader(b)).Decode(&v) // decoded above
			n += len(v.Reports)
		}
		return n
	})
	return ns, nil
}

// replayEM runs fixed-iteration EMS reconstructions (em.Workspace) on the
// stream's final counts, with the server's EM options.
func replayEM(s streamSpec, counts []float64) (wallUS, cpuUS float64) {
	agg := core.NewAggregator(core.Config{Epsilon: 1, Buckets: s.buckets, Mechanism: s.mechanism, Smoothing: true})
	ch := agg.Channel()
	if ch == nil || len(counts) != ch.Rows() {
		return 0, 0
	}
	opts := em.EMSOptions()
	opts.MinIters, opts.MaxIters, opts.Workers = emReplayIters, emReplayIters, -1
	var ws em.Workspace
	wall, cpu := timeIt(func() int {
		ws.Reconstruct(ch, counts, opts)
		return emReplayIters
	})
	return wall / 1e3, cpu / 1e3
}

// swCounts perturbs values with a sw client at granularity b and
// bucketizes the reports into a report histogram.
func swCounts(b int, values []float64) ([]float64, error) {
	cfg := core.Config{Epsilon: 1, Buckets: b, Mechanism: mechanism.SW, Smoothing: true}
	client, agg := core.NewClient(cfg), core.NewAggregator(cfg)
	counts := make([]float64, agg.OutputBuckets())
	rng := randx.New(1)
	var cells []int
	for _, v := range values {
		var err error
		if cells, err = agg.Bucketize(cells[:0], client.Perturb(v, rng)); err != nil {
			return nil, err
		}
		for _, j := range cells {
			counts[j]++
		}
	}
	return counts, nil
}

// windowEpoch is the epoch of the window replay: the workload's own, or a
// nominal one for plain workloads (the replay rotates by hand, so its
// length does not matter).
func windowEpoch(w *workload) time.Duration {
	if w.epoch > 0 {
		return w.epoch
	}
	return 3 * time.Second
}

// replayQuery replays query.Eval with the read mix's quantile request on the
// final served distribution.
func replayQuery(est *ldphttp.EstimateResponse) (float64, error) {
	req := query.Request{Type: query.Quantile, Qs: []float64{0.5, 0.9, 0.99}}
	if _, err := query.Eval(est.Distribution, est.N, req); err != nil {
		return 0, err
	}
	ns, _ := timeIt(func() int {
		querySink, _ = query.Eval(est.Distribution, est.N, req) // evaluated above
		return 1
	})
	return ns / 1e3, nil
}

// replayPushDecode replays federate.DecodePushAuto over the captured pushes.
func replayPushDecode(bodies [][]byte) (float64, error) {
	for _, b := range bodies {
		if _, err := federate.DecodePushAuto(b); err != nil {
			return 0, err
		}
	}
	ns, _ := timeIt(func() int {
		for _, b := range bodies {
			pushSink, _ = federate.DecodePushAuto(b) // decoded above
		}
		return len(bodies)
	})
	return ns / 1e3, nil
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// replayReporter feeds recorded values through a repro.Reporter whose
// transport answers every batch at once, without a network, and returns the
// Reporter's CPU per report: perturb, queueing, batching and encoding.
func replayReporter(f feed, binary bool) (float64, error) {
	stub := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		_, err := io.Copy(io.Discard, req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("{}")), Request: req}, nil
	})}
	values := f.values[:min(len(f.values), 4*replayReports)]
	var rerr error
	_, ns := timeIt(func() int {
		rep, err := repro.NewReporter(repro.ReporterOptions{
			URL: "http://127.0.0.1:9", Stream: f.stream.name, Binary: binary, HTTPClient: stub,
			Options: repro.Options{Epsilon: 1, Buckets: f.stream.buckets, Mechanism: f.stream.mechanism, Seed: f.seed},
		})
		if err != nil {
			rerr = err
			return 0
		}
		for _, v := range values {
			if err := rep.Report(v); err != nil {
				rerr = err
			}
		}
		if err := rep.Close(); err != nil {
			rerr = err
		}
		return len(values)
	})
	return ns, rerr
}

// replayHTTP posts a recorded batch body over loopback to a handler that
// only drains it, and returns the client and server CPU per request in µs:
// the http layer's cost of one batch without the collector behind it.
func replayHTTP(body []byte, contentType string) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"accepted":1}`))
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns once hs.Close runs
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	tp := &http.Transport{MaxConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	u := "http://" + ln.Addr().String() + "/v1/streams/replay/batch"
	var rerr error
	_, ns := timeIt(func() int {
		const n = 16
		for i := 0; i < n; i++ {
			resp, err := client.Post(u, contentType, bytes.NewReader(body))
			if err != nil {
				rerr = err
				return 0
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return n
	})
	return ns / 1e3, rerr
}

// attribute splits the traced phase's process CPU across the layers, in
// seconds: replayed per-call costs times the calls counted in the run,
// handler spans for ldphttp's own work, Persist spans for snapshot, and the
// runtime's GC counters. Whatever is left is unattributed — including the
// window-cache and drift reconstructions, which no outside counter sees.
func attribute(sys *system, tr *tracer, c *costs) map[string]float64 {
	cpu := map[string]float64{}
	inside := 0.0 // replayed work that runs inside ldphttp handlers
	var jsonReports, binReports, plainCells, winCells float64
	for _, tg := range sys.targets {
		n := float64(tg.acked.Load())
		m := tg.stream.mechanism
		cpu["mechanism"] += n * (c.perturb[m] + c.bucketize[m]) / 1e9
		inside += n * c.bucketize[m] / 1e9
		if sys.w.epoch > 0 {
			winCells += n * c.cells[m]
		} else {
			plainCells += n * c.cells[m]
		}
		if sys.w.binary {
			binReports += n
		} else {
			jsonReports += n
		}
	}
	cpu["ldphttp_json"] = jsonReports * c.jsonDecode / 1e9
	cpu["wire"] = binReports * (c.wireDecode + c.wireEncode) / 1e9
	var plainPasses, winPasses float64
	for _, n := range sys.nodes() {
		sc := tr.scrapes[n.name]
		for _, s := range sys.w.streams {
			refreshes := sc.Counter("ldp_em_refreshes_total", "stream="+s.name)
			if sys.w.epoch > 0 && n != sys.root {
				winPasses += refreshes
			} else {
				plainPasses += refreshes
			}
			if s.mechanism == mechanism.SW {
				iters, _ := sc.Value("ldp_em_iterations_sum", "stream="+s.name)
				cpu["em"] += iters * c.emIterCPU[s.buckets] / 1e6
			}
		}
	}
	cpu["aggregate"] = plainCells*c.aggAdd/1e9 + plainPasses*c.aggSnapshot/1e6
	cpu["window"] = winCells*c.winAdd/1e9 + winPasses*c.winMerge/1e6
	cpu["query"] = float64(sys.ops.queryReads.Load()) * c.queryEval / 1e6
	cpu["federate"] = float64(sys.ops.pushes.Load()-sys.ops.pushFailed.Load()) * c.pushDecode / 1e6
	inside += cpu["ldphttp_json"] + binReports*c.wireDecode/1e9 + plainCells*c.aggAdd/1e9 +
		winCells*c.winAdd/1e9 + cpu["query"] + cpu["federate"]
	var acked int64
	for _, tg := range sys.targets {
		acked += tg.acked.Load()
	}
	cpu["repro"] = float64(acked) * c.repro / 1e9
	requests := sys.ops.batches.Load() + sys.ops.reads.Load() + sys.ops.pushes.Load()
	cpu["http"] = float64(requests) * c.http / 1e6
	var handlers, saves float64
	for _, s := range tr.spans {
		switch s.Layer {
		case "ldphttp":
			handlers += float64(s.Dur) / 1e9
		case "snapshot":
			saves += float64(s.Dur) / 1e9
		}
	}
	cpu["ldphttp"] = math.Max(0, handlers-inside)
	cpu["snapshot"] = saves
	cpu["runtime"] = tr.rt1.gcCPU - tr.rt0.gcCPU
	return cpu
}

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(base, o *outcome, tr *tracer, c *costs) *result {
	sys, ph := o.sys, o.ph
	capacity := ph.wall.Seconds() * float64(runtime.GOMAXPROCS(0))
	res := &result{}
	a1, f1 := base.sys.ops.totals()
	a2, f2 := sys.ops.totals()
	res.attempted, res.failed = a1+a2, f1+f2

	handlerByID := map[uint64]int64{}
	for _, s := range tr.spans {
		if s.Layer == "ldphttp" && s.ID != 0 {
			handlerByID[s.ID] = s.Dur
		}
	}
	var batchUS, readUS, pushUS, overheadUS, connWaitUS, pushRTTMS, saveMS []float64
	var batchBusy, pushBytes float64
	for _, s := range tr.spans {
		switch {
		case s.Layer == "ldphttp" && s.Route == "batch":
			batchUS = append(batchUS, float64(s.Dur)/1e3)
			batchBusy += float64(s.Dur) / 1e9
		case s.Layer == "ldphttp" && (s.Route == "estimate" || s.Route == "query"):
			readUS = append(readUS, float64(s.Dur)/1e3)
		case s.Layer == "ldphttp" && s.Route == "push":
			pushUS = append(pushUS, float64(s.Dur)/1e3)
		case s.Layer == "http" && s.Route == "batch":
			connWaitUS = append(connWaitUS, float64(s.Wait)/1e3)
			if h, ok := handlerByID[s.ID]; ok {
				overheadUS = append(overheadUS, float64(s.Dur-h)/1e3)
			}
		case s.Layer == "federate":
			pushRTTMS = append(pushRTTMS, float64(s.Dur)/1e6)
			pushBytes += float64(s.Bytes)
		case s.Layer == "snapshot":
			saveMS = append(saveMS, float64(s.Dur)/1e6)
		}
	}
	pct := func(xs []float64, q float64) (float64, int) {
		v, ok := percentile(xs, q)
		if !ok {
			return 0, len(xs)
		}
		return v, len(xs)
	}
	addPct := func(name string, xs []float64, q float64, unit string) {
		v, n := pct(xs, q)
		if n > 0 && v == 0 {
			res.notes = append(res.notes, fmt.Sprintf("%s is 0: %d samples cannot support it", name, n))
		}
		res.add(name, v, unit, n)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var iters, iterCount, refreshes, rotations float64
	for _, n := range sys.nodes() {
		sc := tr.scrapes[n.name]
		rotations += sc.Counter("ldp_epoch_rotations_total")
		for _, s := range sys.w.streams {
			if s.mechanism != mechanism.SW {
				continue
			}
			refreshes += sc.Counter("ldp_em_refreshes_total", "stream="+s.name)
			v, _ := sc.Value("ldp_em_iterations_sum", "stream="+s.name)
			k, _ := sc.Value("ldp_em_iterations_count", "stream="+s.name)
			iters, iterCount = iters+v, iterCount+k
		}
	}
	cpu := attribute(sys, tr, c)
	okBatches := float64(sys.ops.batches.Load() - sys.ops.batchFailed.Load())
	acked := float64(ph.acked)

	res.add("repro.report_ns", ratio(float64(tr.reportD.Load()), float64(tr.reports.Load())), "ns", 0)
	res.add("repro.batch_fill", ratio(acked, okBatches)/reporterMaxBatch, "ratio", 0)
	res.add("repro.batch_retries", float64(sys.ops.batchFailed.Load()), "count", 0)
	addPct("http.overhead_p50_us", overheadUS, 0.5, "us")
	addPct("http.conn_wait_p99_us", connWaitUS, 0.99, "us")
	addPct("ldphttp.batch_p50_us", batchUS, 0.5, "us")
	addPct("ldphttp.batch_p99_us", batchUS, 0.99, "us")
	res.add("ldphttp.batch_busy_frac", batchBusy/capacity, "ratio", 0)
	res.add("ldphttp.json_decode_ns_per_report", c.jsonDecode, "ns", 0)
	addPct("ldphttp.read_p50_us", readUS, 0.5, "us")
	addPct("ldphttp.read_p99_us", readUS, 0.99, "us")
	res.add("ldphttp.read_pending_frac", ratio(float64(sys.ops.readPending.Load()), float64(sys.ops.reads.Load())), "ratio", 0)
	addPct("ldphttp.push_p50_us", pushUS, 0.5, "us")
	res.add("wire.decode_ns_per_report", c.wireDecode, "ns", 0)
	res.add("wire.encode_ns_per_report", c.wireEncode, "ns", 0)
	for _, m := range []string{mechanism.SW, mechanism.OUE, mechanism.GRR, mechanism.OLH} {
		res.add("mechanism.perturb_ns."+m, c.perturb[m], "ns", 0)
	}
	for _, m := range []string{mechanism.SW, mechanism.OUE, mechanism.GRR, mechanism.OLH} {
		res.add("mechanism.bucketize_ns."+m, c.bucketize[m], "ns", 0)
	}
	res.add("aggregate.add_ns_per_cell", c.aggAdd, "ns", 0)
	res.add("aggregate.snapshot_us", c.aggSnapshot, "us", 0)
	res.add("window.add_ns_per_cell", c.winAdd, "ns", 0)
	res.add("window.merge_us", c.winMerge, "us", 0)
	res.add("window.rotations", rotations, "count", 0)
	res.add("em.refreshes", refreshes, "count", 0)
	res.add("em.iters_per_refresh", ratio(iters, iterCount), "count", 0)
	res.add("em.iter_us.b256", c.emIter[256], "us", 0)
	res.add("em.iter_us.b1024", c.emIter[1024], "us", 0)
	res.add("em.busy_frac", cpu["em"]/capacity, "ratio", 0)
	depth := tr.queueDepth.values()
	res.add("em.queue_depth_mean", ratio(sum(depth), float64(len(depth))), "count", len(depth))
	res.add("query.eval_us", c.queryEval, "us", 0)
	addPct("federate.push_rtt_p50_ms", pushRTTMS, 0.5, "ms")
	res.add("federate.push_bytes_per_report", ratio(pushBytes, acked), "B/report", 0)
	res.add("federate.decode_us", c.pushDecode, "us", 0)
	failures := float64(sys.ops.pushFailed.Load())
	for _, e := range sys.edges {
		failures += float64(e.srv.PushStatus().Failures)
	}
	res.add("federate.push_failures", failures, "count", 0)
	addPct("snapshot.save_p50_ms", saveMS, 0.5, "ms")
	res.add("snapshot.bytes", float64(tr.snapshotBytes), "bytes", 0)
	procCPU := ph.cpu.Seconds()
	res.add("runtime.gc_cpu_frac", ratio(tr.rt1.gcCPU-tr.rt0.gcCPU, procCPU), "ratio", 0)
	res.add("runtime.alloc_bytes_per_report", ratio(float64(tr.rt1.allocs-tr.rt0.allocs), acked), "B/report", 0)
	res.add("runtime.heap_peak_mb", float64(tr.heapPeak)/(1<<20), "MiB", 0)
	lag, _ := pct(ph.lagMS, 0.99)
	res.add("bench.gen_lag_p99_ms", lag, "ms", len(ph.lagMS))
	res.add("bench.trace_overhead", ph.cpuPerMReport()/base.ph.cpuPerMReport()-1, "ratio", 0)
	attributed := 0.0
	for _, l := range layerOrder {
		attributed += cpu[l]
	}
	res.add("bench.unattributed_frac", 1-attributed/procCPU, "ratio", 0)
	for _, l := range layerOrder {
		res.add("share."+l, cpu[l]/procCPU, "ratio", 0)
	}
	return res
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
