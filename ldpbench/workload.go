package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ldphttp"
	"repro/internal/mechanism"
)

// streamSpec is one attribute stream, declared on every ingest collector.
type streamSpec struct {
	name      string
	mechanism string
	buckets   int
	dataset   string // the internal/dataset generator its private values come from
}

// readerSpec is one open-loop reader: it cycles through paths at rate reads
// per second against the node being read.
type readerSpec struct {
	paths []string
	rate  float64
}

// workload is one traffic mix against one topology. README.md gives the
// reason for each and the layer it isolates.
type workload struct {
	name    string
	edges   int // ingest collectors; with more than one they push to a root
	streams []streamSpec
	epoch   time.Duration // > 0 makes every declared stream windowed
	retain  int           // sealed epochs a windowed stream keeps; 0 covers the whole run
	binary  bool          // Reporters ship binary frames instead of JSON

	// rate is the open-loop report rate per stream per edge. Zero selects the
	// closed loop: closedReporters Reporters share the first stream and send
	// closedRate×seconds reports as fast as acknowledgements allow.
	rate            float64
	closedReporters int
	closedRate      float64
	tick            time.Duration // open-loop generator wake-up period

	readers    []readerSpec
	pushEvery  time.Duration // federation push interval
	probeEvery time.Duration // freshness probe period

	// w1Max and ksMax are sanity ceilings on the mean normalized W1 and KS
	// of the final estimates.
	w1Max, ksMax float64
}

var workloads = []*workload{ingestWorkload(), windowedWorkload(), federationWorkload()}

// ingestWorkload is the write path at capacity: nproc JSON Reporters in a
// closed loop against the default sw stream, with one slow fixed-rate
// estimate reader. Each stale read wakes the refresh engine, so the reader's
// rate sets EM load here; 20 reads/s keep EM a small share of the CPU and
// still give read_p50_ms the samples every slice needs.
func ingestWorkload() *workload {
	return &workload{
		name:            "ingest",
		edges:           1,
		streams:         []streamSpec{{ldphttp.DefaultStream, mechanism.SW, 256, "beta"}},
		closedReporters: runtime.NumCPU(),
		closedRate:      450000,
		readers:         []readerSpec{{paths: []string{"/v1/streams/default/estimate"}, rate: 20}},
		probeEvery:      time.Millisecond,
		w1Max:           0.05,
		ksMax:           0.3,
	}
}

// windowedWorkload is serving bound by reconstruction: a windowed sw stream
// at the paper's B=1024 (the taxi dataset), fed by an open-loop binary
// Reporter and read by fixed-rate window and quantile readers, each of which
// wakes the refresh engine. One stream, because refreshes of one stream are
// serialized: EM then takes one core continuously and leaves the other to
// ingest and reads, where a second B=1024 stream would take both and leave
// every latency to the scheduler.
func windowedWorkload() *workload {
	base := "/v1/streams/taxi"
	return &workload{
		name:       "windowed",
		edges:      1,
		streams:    []streamSpec{{"taxi", mechanism.SW, 1024, "taxi"}},
		epoch:      3 * time.Second,
		binary:     true,
		rate:       5000,
		tick:       2 * time.Millisecond,
		probeEvery: 2 * time.Millisecond,
		readers: []readerSpec{
			{paths: []string{base + "/estimate?window=last:3"}, rate: 100},
			{paths: []string{base + "/query?type=quantile&q=0.5,0.9,0.99"}, rate: 100},
		},
		w1Max: 0.05,
		ksMax: 0.3,
	}
}

// federationWorkload is two edges pushing to one root: a fleet of plain sw,
// oue, grr and olh streams, so the fan-out mechanisms, federate, snapshot and
// the root's delta absorb all run.
func federationWorkload() *workload {
	w := &workload{
		name:       "federation",
		edges:      2,
		streams:    []streamSpec{{ldphttp.DefaultStream, mechanism.SW, 256, "beta"}},
		binary:     true,
		rate:       2000,
		tick:       4 * time.Millisecond,
		pushEvery:  250 * time.Millisecond,
		probeEvery: 2 * time.Millisecond,
		w1Max:      0.2,
		ksMax:      0.5,
	}
	datasets := []string{"taxi", "income", "retirement", "beta"}
	for _, m := range []struct {
		name    string
		buckets int
	}{{mechanism.OUE, 128}, {mechanism.GRR, 32}, {mechanism.OLH, 256}} {
		for i := 0; i < 8; i++ {
			w.streams = append(w.streams, streamSpec{fmt.Sprintf("%s-%d", m.name, i), m.name, m.buckets, datasets[i%len(datasets)]})
		}
	}
	var paths []string
	for _, s := range w.streams {
		paths = append(paths, "/v1/streams/"+s.name+"/estimate")
	}
	w.readers = []readerSpec{{paths: paths, rate: 400}}
	return w
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// smoke is a seconds-long configuration of the workload for the tests: the
// same topology, loop type and output checks at a tenth of the report load.
// The W1/KS ceilings widen because far fewer reports are sent.
func (w workload) smoke() *workload {
	w.rate /= 10
	w.closedRate /= 10
	if w.epoch > 0 {
		w.epoch = time.Second
	}
	w.w1Max, w.ksMax = 0.3, 0.8
	return &w
}
