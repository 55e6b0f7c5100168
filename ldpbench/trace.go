package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
	"repro/internal/telemetry"
)

// spanHeader carries a client span's ID to the handler span it causes, so
// the two can be matched without tracing inside the program.
const spanHeader = "X-Ldpbench-Span"

const (
	// maxBodies caps the request bodies kept per stream for the replays.
	maxBodies = 64
	// reportSampleEvery thins the Reporter.Report spans kept in memory;
	// every call still adds to the count and the total.
	reportSampleEvery = 64
)

// span is one timed call the benchmark made into the program.
type span struct {
	Layer string `json:"layer"` // repro, http, ldphttp, federate or snapshot
	Route string `json:"route"`
	Node  string `json:"node,omitempty"`
	ID    uint64 `json:"id,omitempty"` // shared by a client request and its handler span
	Start int64  `json:"start_ns"`     // since the tracer started
	Dur   int64  `json:"dur_ns"`
	Wait  int64  `json:"conn_wait_ns,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	gcCPU  float64 // seconds of GC and scavenger CPU so far
	allocs uint64  // heap bytes allocated so far
	heap   uint64  // live heap object bytes
}

var runtimeNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return runtimeSample{
		gcCPU:  s[0].Value.Float64() + s[1].Value.Float64(),
		allocs: s[2].Value.Uint64(),
		heap:   s[3].Value.Uint64(),
	}
}

// tracer records a traced run: spans around the calls the benchmark makes
// into the program's public surface, samples of the inputs the replays
// need, and the program's counters read from outside. Spans stay in memory
// until dump. A nil *tracer records nothing, so untraced runs call the same
// hooks.
type tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	reports atomic.Int64 // Reporter.Report calls
	reportD atomic.Int64 // their total duration in ns

	mu     sync.Mutex
	spans  []span
	bodies map[string][][]byte // batch bodies by stream; "push" for pushes

	// Counters over the timed phase.
	rt0, rt1    runtimeSample
	heapPeak    uint64
	queueDepth  samples
	scrapes     map[string]*telemetry.Scrape // by node, at the end of the timed phase
	stopSampler chan struct{}
	samplerDone chan struct{}
	scraper     *http.Client

	// From the settled system.
	counts        map[string][]float64 // final report histograms at the read node
	snapshotBytes int64                // size of an edge's write-ahead snapshot
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), bodies: map[string][][]byte{}, scrapes: map[string]*telemetry.Scrape{},
		scraper: &http.Client{Transport: &http.Transport{}}}
}

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

// routeOf names the endpoint a path addresses.
func routeOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/batch"):
		return "batch"
	case strings.HasSuffix(path, "/estimate"):
		return "estimate"
	case strings.HasSuffix(path, "/query"):
		return "query"
	case path == "/federation/push":
		return "push"
	}
	return "other"
}

// roundTrip sends req through base; when tracing it records an http span
// with the connection wait and tags the request with the span's ID.
func (tr *tracer) roundTrip(base http.RoundTripper, req *http.Request) (*http.Response, error) {
	if tr == nil {
		return base.RoundTrip(req)
	}
	id := tr.nextID.Add(1)
	var getConn, wait atomic.Int64
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GetConn: func(string) { getConn.Store(time.Now().UnixNano()) },
		GotConn: func(httptrace.GotConnInfo) { wait.Store(time.Now().UnixNano() - getConn.Load()) },
	})
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := base.RoundTrip(req)
	tr.add(span{Layer: "http", Route: routeOf(req.URL.Path), ID: id, Start: tr.since(start),
		Dur: int64(time.Since(start)), Wait: wait.Load()})
	return resp, err
}

// handler wraps a node's Server.Handler(), recording one ldphttp span per
// request, tagged with its route and the client span that caused it.
func (tr *tracer) handler(node string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		// Pushes carry no span header; their handler spans stay unmatched.
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		tr.add(span{Layer: "ldphttp", Route: routeOf(r.URL.Path), Node: node, ID: id,
			Start: tr.since(start), Dur: int64(time.Since(start))})
	})
}

// report records one Reporter.Report call.
func (tr *tracer) report(start time.Time, d time.Duration) {
	if tr == nil {
		return
	}
	tr.reportD.Add(int64(d))
	if tr.reports.Add(1)%reportSampleEvery == 0 {
		tr.add(span{Layer: "repro", Route: "report", Start: tr.since(start), Dur: int64(d)})
	}
}

// recordBody keeps the first maxBodies bodies of each key for the replays.
func (tr *tracer) recordBody(key string, body []byte) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if len(tr.bodies[key]) < maxBodies {
		tr.bodies[key] = append(tr.bodies[key], body)
	}
	tr.mu.Unlock()
}

// pushSpan records one push through the edges' PushOptions.HTTPClient.
func (tr *tracer) pushSpan(start time.Time, d time.Duration, body []byte) {
	if tr == nil {
		return
	}
	tr.add(span{Layer: "federate", Route: "push", Start: tr.since(start), Dur: int64(d), Bytes: len(body)})
	tr.recordBody("push", body)
}

// persist wraps the edges' PushOptions.Persist hook in a snapshot span.
func (tr *tracer) persist(save func() error) func() error {
	if tr == nil {
		return save
	}
	return func() error {
		start := time.Now()
		err := save()
		tr.add(span{Layer: "snapshot", Route: "save", Start: tr.since(start), Dur: int64(time.Since(start))})
		return err
	}
}

// begin starts sampling the heap and the read node's refresh queue depth.
func (tr *tracer) begin(sys *system) {
	if tr == nil {
		return
	}
	tr.rt0 = readRuntime()
	tr.stopSampler, tr.samplerDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tr.samplerDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-tr.stopSampler:
				return
			case <-tick.C:
			}
			tr.heapPeak = max(tr.heapPeak, readRuntime().heap)
			if k%2 == 1 {
				if sc, err := tr.scrape(sys.readNode()); err == nil {
					if v, ok := sc.Value("ldp_em_refresh_queue_depth"); ok {
						tr.queueDepth.add(time.Now(), v)
					}
				}
			}
		}
	}()
}

// end stops the sampler and reads every node's counters as the timed phase
// ends.
func (tr *tracer) end(sys *system) error {
	if tr == nil {
		return nil
	}
	close(tr.stopSampler)
	<-tr.samplerDone
	tr.rt1 = readRuntime()
	for _, n := range sys.nodes() {
		sc, err := tr.scrape(n)
		if err != nil {
			return err
		}
		tr.scrapes[n.name] = sc
	}
	return nil
}

// scrape reads one node's /metrics.
func (tr *tracer) scrape(n *node) (*telemetry.Scrape, error) {
	resp, err := tr.scraper.Get(n.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", n.name, resp.StatusCode)
	}
	return telemetry.ParseText(resp.Body)
}

// saveCounts reads the settled read node's final report histograms through
// Server.SaveSnapshot, for the EM replays, and the size of an edge's
// write-ahead snapshot.
func (tr *tracer) saveCounts(sys *system) error {
	path := filepath.Join(sys.dir, "final.snap")
	if err := sys.readNode().srv.SaveSnapshot(path); err != nil {
		return err
	}
	defer os.Remove(path)
	f, err := snapshot.LoadFile(path)
	if err != nil {
		return err
	}
	tr.counts = map[string][]float64{}
	for _, st := range f.Streams {
		c := make([]float64, len(st.Counts))
		for i, v := range st.Counts {
			c[i] = float64(v)
		}
		if st.Window != nil {
			for _, ep := range st.Window.Sealed {
				for i, v := range ep.Counts {
					c[i] += float64(v)
				}
			}
		}
		tr.counts[st.Name] = c
	}
	if p := sys.edges[0].snapshot; p != "" {
		info, err := os.Stat(p)
		if err != nil {
			return err
		}
		tr.snapshotBytes = info.Size()
	}
	return nil
}

// dump writes the spans as JSON lines.
func (tr *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
