// Package repro estimates the distribution of a numerical attribute under
// local differential privacy (LDP), implementing the SIGMOD 2020 paper
// "Estimating Numerical Distributions under Local Differential Privacy"
// (Li, Wang, Lopuhaä-Zwakenberg, Skoric, Li).
//
// # The problem
//
// Each of n users holds a private numerical value v ∈ [0,1] (incomes, ages,
// session durations, ...). An untrusted aggregator wants the distribution of
// the values. Under ε-LDP every user randomizes their value on-device before
// sending it, so the aggregator never sees anything sensitive; the challenge
// is reconstructing an accurate distribution from the noisy reports.
//
// # The method
//
// The paper's (and this package's) headline method is the Square Wave
// mechanism with Expectation–Maximization and Smoothing (SW+EMS): the user
// reports a value near their true value with an e^ε-times-higher density
// than a far value ("square wave" density), and the aggregator inverts the
// aggregate report histogram by maximum likelihood with a smoothness prior.
//
// # Quick start
//
//	res, err := repro.EstimateDistribution(values, repro.DefaultOptions(1.0))
//	if err != nil { ... }
//	fmt.Println(res.Mean(), res.Quantile(0.5))
//
// For streaming collection, pair a Client (user side) with an Aggregator
// (collector side):
//
//	client, _ := repro.NewClient(opts)
//	agg, _ := repro.NewAggregator(opts)
//	for _, v := range values {
//		agg.Ingest(client.Report(v)) // Report runs on the user's device
//	}
//	res, _ := agg.Estimate()
//
// Baseline methods from the paper's evaluation (HH-ADMM, plain hierarchical
// histograms, HaarHRR, CFO-with-binning) are available through Estimate with
// an explicit Method, for comparisons and research use.
//
// # Mechanisms
//
// The streaming pipeline's reporting mechanism is pluggable
// (Options.Mechanism): alongside the default continuous Square Wave ("sw")
// the same Client/Aggregator pair runs the discrete Square Wave
// ("sw-discrete") and the categorical frequency oracles of the paper's
// comparison section — "grr", "oue", "sue", "olh" and "hrr". Scalar-report
// mechanisms keep the Report/Ingest surface; every mechanism works through
// the vector form:
//
//	opts := repro.Options{Epsilon: 1, Buckets: 64, Mechanism: "oue"}
//	client, _ := repro.NewClient(opts)
//	agg, _ := repro.NewAggregator(opts)
//	_ = agg.IngestReport(client.Perturb(v)) // Perturb runs on the user's device
//
// Mechanism "auto" picks the lower-variance oracle for the stream's (ε, d)
// at construction, using the paper's Section 4.1 rule: GRR while
// d−2 < 3e^ε, OLH beyond. Mechanism selection guidance (variance formulas,
// report sizes, reconstruction paths) is tabulated in README.md; the
// ε-LDP conformance of every mechanism is property-tested in
// internal/mechanism.
//
// # Streams and queries
//
// A Streams registry hosts any number of named attributes (ages, incomes,
// session lengths, ...), each with its own Options and concurrency-safe
// Aggregator, and answers the analytics the reconstruction exists to serve
// — range probability, CDF, arbitrary quantiles, mean/variance, top-k
// buckets with significance scores:
//
//	streams := repro.NewStreams()
//	agg, _ := streams.Declare("age", repro.DefaultOptions(1.0))
//	... ingest ...
//	med, _ := streams.Query("age", repro.QueryRequest{Type: repro.QueryQuantile, Qs: []float64{0.5, 0.9}})
//
// The same queries are available on any Result via Result.Query (plus the
// Quantiles and TopK shorthands). A Streams registry is the HTTP
// collector's own stream engine (internal/engine) without its background
// refresh, so the two share one declaration rule, one redeclare rule (the
// same mechanism, ε, buckets and effective bandwidth — a declared 0 equals
// the explicit optimum — and windowing, zero values inheriting; Shards and
// Seed are not compared) and one snapshot capture and restore:
// Streams.Save and Streams.Load write and read the collector's checksummed
// -snapshot files, in either direction. Streams.Drop retires a stream.
//
// # Windowed collection
//
// Every Aggregator keeps its reports in an epoch ring. A plain Aggregator's
// ring has one epoch that never seals, so it accumulates forever. An
// Aggregator built with Options.Epoch set is epoch-rotated: reports land
// in a live epoch whose histogram seals every Epoch (drive rotation with
// Advance(now) on your clock, or force it with Rotate), the last
// Options.Retain sealed epochs are kept, and EstimateWindow reconstructs
// any retained range with the collector's selector syntax (on a plain
// Aggregator the window methods return ErrNotWindowed):
//
//	agg, _ := repro.NewAggregator(repro.Options{Epsilon: 1, Epoch: time.Hour, Retain: 24})
//	... ingest, and periodically: agg.Advance(time.Now()) ...
//	lastDay, _ := agg.EstimateWindow("last:24") // sliding 24-hour window
//	hour3, _ := agg.EstimateWindow("epochs:3..3")
//
// Old epochs age out of every estimate and of persistence, so a long-running
// collection answers "what did the distribution look like recently" instead
// of averaging over its whole history. Windowed streams persist through
// Streams.Save with their rotation clock and sealed epochs (snapshot payload
// version 4, which also records each stream's mechanism and the federation
// cursors; version ≤ 3 files still load — pre-v3 streams default to "sw",
// v1 history lands in the live epoch, and pre-v4 files simply carry no
// federation state).
//
// # Collection at scale
//
// The Aggregator is built for heavy concurrent ingestion: the ring's live
// epoch is a striped histogram of atomic counters (one stripe per CPU,
// Options.Shards overrides), so Ingest and IngestBatch only share the
// ring's read lock and may be called from any number of goroutines;
// Estimate works from a non-blocking merge and never stalls writers. The
// Square Wave channel is stored in its structured form (a floor, one plateau
// run and a few ramp cells per column), so declaring an sw stream and every
// EM product cost time linear in the granularity; Options.Buckets is capped
// at 65536. Those products add in a different order than the dense
// transition matrix, and estimates agree with a dense reconstruction within
// a tested bound (1e-12), not bit for bit.
//
// The same engine backs the HTTP collector (internal/ldphttp, run with
// cmd/ldpserver), which serves named streams under /v1/streams (see
// Operations below), each running its declared mechanism. There a pool of
// refresh workers (-refresh-workers, default GOMAXPROCS) drains a
// staleness-ordered queue of warm-started refreshes — SQUAREM-accelerated
// EMS into per-stream zero-allocation workspaces, or the oracles' debiased
// estimates — and rotates windowed streams, so estimation never runs on a
// request goroutine (a pending estimate answers 503 with pending_reports;
// window=last:K and window=epochs:i..j ride the same contract). The
// -snapshot flag makes it durable across restarts. See README.md.
//
// # Federation
//
// One collector scales to one machine; a fleet of reporting users wants a
// tier of them. The federation layer (internal/federate) connects running
// collectors: edge servers near the clients accumulate reports in their own
// striped histograms and periodically POST the increments since their last
// acknowledged push — keyed by stream and epoch index, fingerprinted with
// the stream's mechanism/ε/granularity/bandwidth, CRC-checked and
// sequence-numbered — to a root's /federation/push endpoint, which merges
// each delta into the matching live or sealed epoch and answers queries
// over the union:
//
//	clients ──▶ edge A ─┐
//	clients ──▶ edge B ─┼── deltas ──▶ root ──▶ GET .../estimate, .../query
//	clients ──▶ edge C ─┘
//
// The protocol is exact: the root's histogram after every acknowledged push
// equals what a single collector ingesting every edge's reports would hold
// (the serving tests assert the reconstructions bit-identical). Replays —
// retries after a lost ack, or an edge restarted from its snapshot — are
// detected by per-edge sequence numbers and payload checksums and skipped,
// so crashes can neither lose nor double-count a delta. Run an edge with
// "ldpserver -push-to http://root:8080 -edge-id sfo-1", a root with
// "ldpserver -accept-federation" (add -federation-auto-declare to let edges
// declare their streams), and inspect the per-edge high-water marks on GET
// /federation/peers — or programmatically via FederationPeers.
//
// # Operations
//
// The HTTP collector serves one versioned resource tree — POST/GET
// /v1/streams, GET/DELETE /v1/streams/{name}, the per-stream subresources
// /report, /batch, /estimate, /query, /config and /diagnostics under
// /v1/streams/{name}, and the fleet view GET /v1/diagnostics — plus
// /federation/push, /federation/peers, /metrics, /healthz and /readyz. A
// method an endpoint does not serve answers 405 with an Allow header. Every
// non-2xx response, on every route, carries one envelope:
//
//	{"error": {"code": "rate_limited", "message": "...", "retry_after_ms": 250, "request_id": "9f3ac2d1-00004a"}}
//
// with a stable machine-readable code (unknown_stream, stream_conflict,
// no_reports, estimate_pending, rate_limited, not_ready, ...) and
// retry_after_ms plus a Retry-After header on anything worth retrying. The
// request_id (also echoed as X-Request-Id and as req_id in access logs)
// names the exact request when reporting a failure.
//
// The collector is observable and self-protecting. GET /metrics exposes
// Prometheus text-format telemetry from a zero-dependency registry:
// per-stream ingest and mechanism counters, EM refresh latency and
// staleness, epoch rotations, snapshot durations, federation absorb/replay/
// reject/drop counters and per-edge push lag, plus the edge pusher's cursor
// when running with -push-to. GET /healthz is liveness (the estimation
// engine is ticking) and GET /readyz is readiness (snapshot restore has
// completed — a -snapshot server stays unready until then). Admission
// control bounds request bodies (-max-body) and sheds traffic beyond a
// token-bucket rate (-rate-limit rps[:burst], plus a per-edge
// -edge-rate-limit tier on /federation/push) with 429s emitted before any
// engine work; the operational endpoints stay exempt so a drowning server
// still answers its probes. Structured access logs (-log-format kv|json,
// recording method, route, status, response bytes, negotiated codec,
// request ID and trace ID) complete the surface. Watch it all
// programmatically with FetchServerStats, CheckServerHealth and
// AwaitServerReady.
//
// # Tracing and diagnostics
//
// Every request through the collector can carry a trace. The server
// continues any W3C traceparent header it receives (and head-samples 1 in
// -trace-sample header-less report requests; engine and federation work is
// always traced), then threads one span tree through the whole pipeline —
// route dispatch, payload decode, bucketize, striped ingest, epoch
// rotation, EM refresh, snapshot save/load, federation push and absorb,
// and query evaluation. Finished spans land in a fixed-size in-memory ring
// (the flight recorder, -trace-buffer spans), inspectable at GET
// /v1/debug/traces with stream=, route=, trace=, min_duration= and limit=
// filters — served on the public port, or on a separate diagnostics
// listener with -debug-addr, which also mounts net/http/pprof (pprof is
// never served on the public port).
// Requests at least -slow-request slow emit a slow_request access-log
// line, and the duration histograms keep an exemplar trace ID per
// endpoint, so a latency spike links directly to a recorded trace.
//
// The tracing story crosses processes: Reporter stamps each shipped batch
// with a sampled traceparent (the last one is readable via
// Reporter.LastTraceID, or turn stamping off with DisableTracing), the
// edge records the batch's decode/bucketize/ingest spans under that trace
// ID, and when the edge's epochs are pushed to a federation root the push
// carries the trace IDs it aggregates in an X-LDP-Trace-Link header — the
// root records absorb-link marker spans under those same IDs, so a single
// client batch is recoverable from the root's flight recorder after the
// full ingest → seal → push → absorb journey. Fetch recordings
// programmatically with FetchTraces and a TraceQuery.
//
// # Estimate quality and drift
//
// Beyond liveness, the collector reports whether its published estimates
// are statistically sound. Each stream's refresh engine keeps a quality
// record — EM convergence (iterations, final log-likelihood, last delta,
// whether the stopping rule fired), analytic 95% confidence half-widths
// from the mechanisms' closed-form variances (the sw family reports the
// better categorical oracle's variance, flagged approximate), warm-start
// effectiveness, and, on windowed streams, distribution drift: every epoch
// rotation scores the just-sealed epoch against its predecessor with
// normalized Wasserstein-1 and Kolmogorov–Smirnov distances through a
// hysteresis alerter (fire at 0.08/0.2, clear after three consecutive
// quiet epochs at half that; the thresholds are fixed). The record is
// served per stream at GET /v1/streams/{name}/diagnostics and fleet-wide
// at GET /v1/diagnostics (filter with stream=, mechanism=, alerting=),
// fetchable with FetchDiagnostics and FetchFleetDiagnostics, and mirrored
// into the exposition at scrape time as ldp_estimate_loglik (EM streams),
// ldp_estimate_ci_halfwidth, ldp_em_converged and
// ldp_drift_score{metric="w1"|"ks"} (windowed streams), next to the
// ldp_drift_alerts_total event counter. The cmd/ldptop dashboard renders
// all of it live in a terminal. The telemetry registry caps per-family
// label cardinality (overflow folds into a "~overflow" series,
// self-reported by ldp_telemetry_series and
// ldp_telemetry_dropped_series_total), and /metrics serves gzip when the
// scraper accepts it.
//
// # Wire formats and the batching Reporter
//
// Both hot wire paths speak two codecs, negotiated per request by
// Content-Type: JSON (absent or "application/json" — the default, semantics
// unchanged) and a compact length-prefixed binary frame
// ("application/x-ldp-binary"); any other media type answers 415
// unsupported_media_type. Report batches use the LDPR frame (internal/wire),
// which varint-packs the small non-negative integers LDP mechanisms mostly
// emit and falls back to raw IEEE-754 bits for everything else, so the
// round-trip is bit-exact; federation edges always push the analogous LDPB
// frame with sparse gap/run-encoded epoch deltas, and roots also take the
// JSON envelope (hand-written pushes, older edges), decoding by declared
// Content-Type and merging identically. Both frames are
// magic-tagged, versioned and CRC32-trailed, and their decoders are fuzzed
// in CI. At 1024 buckets a binary push is ~6.5x smaller than dense JSON;
// BENCH_wire.json pins sizes and throughput.
//
// Client-side, Reporter pairs the binary codec with amortized batching: each
// Report(v) perturbs locally (the value never leaves the process) and
// enqueues the wire report, and a background batcher ships size- or
// age-triggered batches with blocking backpressure — reports are never
// dropped, and failed batches stay queued for retry:
//
//	rep, _ := repro.NewReporter(repro.ReporterOptions{
//		URL: "http://collector:8080", Stream: "age",
//		Options: repro.Options{Epsilon: 1, Buckets: 64},
//		Binary:  true,
//	})
//	for _, v := range values { rep.Report(v) }
//	rep.Close() // flushes the remainder
package repro
