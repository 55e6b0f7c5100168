// Command ldpserver runs the HTTP collection endpoint: clients POST
// randomized Square Wave reports to named attribute streams and anyone can
// GET the reconstructed distributions and the analytics computed from them.
// This is the collector half of a real LDP deployment; pair it with clients
// built on repro.NewClient (see examples/httpcollect for a self-contained
// demo of both halves).
//
// Ingestion is lock-free (striped atomic counters per stream, one stripe per
// CPU by default) and estimation runs on a shared pool of background refresh
// workers: a stream being read refreshes soon after new reports arrive (ten
// times its last refresh's wall time after that refresh started, never more
// than 10ms after), every stream at least once per -refresh sweep, always
// warm-started EMS, so GET .../estimate and GET .../query serve cached
// reconstructions instead of blocking on the EM loop. Streams declared with
// an epoch duration are windowed: the live histogram rotates into sealed
// epochs on that period and sliding windows are addressable with
// window=last:K / window=epochs:i..j on .../estimate and .../query. With
// -snapshot, every stream's histogram, cached estimates, and (for windowed
// streams) rotation clock plus sealed epochs are persisted atomically on an
// interval and at shutdown, and restored at boot — a restarted collector
// resumes warm, mid-epoch, with bit-identical window estimates.
// SIGINT/SIGTERM drain in-flight requests, stop the estimator, and save a
// final snapshot, so a clean shutdown never loses the last partial epoch.
//
// Usage:
//
//	ldpserver -addr :8080 -eps 1.0 -buckets 512 \
//	    -stream age:1.0:256 -stream income:0.5:512:0.25 \
//	    -stream os:1.0:64:mech=oue -stream city:1.0:1024:mech=auto \
//	    -stream latency:1.0:256:epoch=1m:retain=12 \
//	    -snapshot /var/lib/ldp/state.snap -snapshot-interval 30s
//
// Each stream runs one reporting mechanism (mech=sw, sw-discrete, grr, oue,
// sue, olh, hrr; mech=auto picks the lower-variance categorical oracle for
// the stream's ε and bucket count).
//
// Federation: -push-to turns the server into an edge collector that ships
// per-stream histogram deltas to a root on a jittered interval (-push-interval,
// identity -edge-id, defaulting to the hostname); -accept-federation turns it
// into a root that merges edge pushes on POST /federation/push and exposes
// per-edge high-water marks on GET /federation/peers;
// -federation-auto-declare additionally lets edges auto-declare their streams
// at the root. Snapshots (payload v4) persist the cursors on both sides, so
// a killed-and-restarted edge replays its in-flight push verbatim and the
// root provably skips it — no delta is ever lost or double-counted.
//
// Operations: GET /metrics exposes Prometheus-format telemetry (ingest
// rates, EM refresh latency and staleness, epoch rotations, snapshot and
// federation health); GET /healthz and GET /readyz are the liveness and
// readiness probes (-snapshot servers stay unready until the restore
// completes). -rate-limit and -edge-rate-limit install token-bucket
// admission control that sheds with 429 + Retry-After before the engine;
// -max-body bounds request bodies; -log-format kv|json writes structured
// access logs (with request IDs, the negotiated codec, and trace IDs) to
// stderr.
//
// Tracing: every request runs under an in-process span pipeline — route
// dispatch, decode, bucketize, ingest, epoch rotation, EM refresh,
// snapshot save/load, federation push/absorb, and query evaluation each
// record a stage span into a fixed-size flight recorder. Carried W3C
// traceparent headers (as stamped by repro.Reporter) are continued, so a
// client batch is traceable end to end across edge and root;
// -trace-sample tunes head sampling for header-less report traffic,
// -trace-buffer sizes the recorder, -slow-request logs an annotated line
// for slow requests, and -no-trace switches the whole subsystem off.
// -debug-addr binds a separate diagnostics listener serving
// net/http/pprof under /debug/pprof/ and the flight recorder on
// GET /v1/debug/traces (filters: stream, trace, route, min_duration,
// limit), keeping both surfaces off the public port.
//
// Endpoints: the versioned v1 tree (POST/GET /v1/streams,
// GET/DELETE /v1/streams/{name}, POST .../report, POST .../batch,
// GET .../estimate, GET|POST .../query, GET .../config, GET .../diagnostics,
// GET /v1/diagnostics), POST /federation/push, GET /federation/peers,
// GET /metrics, GET /healthz, GET /readyz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/ldphttp"
	"repro/internal/mechanism"
	"repro/internal/snapshot"
)

// streamFlag is one -stream declaration:
// name:eps:buckets[:bandwidth][:mech=NAME][:epoch=DUR][:retain=N].
type streamFlag struct {
	name string
	cfg  ldphttp.StreamConfig
}

func parseStreamFlag(raw string) (streamFlag, error) {
	parts := strings.Split(raw, ":")
	if len(parts) < 3 {
		return streamFlag{}, fmt.Errorf("want name:eps:buckets[:bandwidth][:mech=NAME][:epoch=DUR][:retain=N], got %q", raw)
	}
	eps, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return streamFlag{}, fmt.Errorf("bad epsilon in %q: %v", raw, err)
	}
	buckets, err := strconv.Atoi(parts[2])
	if err != nil {
		return streamFlag{}, fmt.Errorf("bad bucket count in %q: %v", raw, err)
	}
	if buckets < 2 {
		return streamFlag{}, fmt.Errorf("need at least 2 buckets in %q, got %d", raw, buckets)
	}
	sf := streamFlag{name: parts[0], cfg: ldphttp.StreamConfig{Epsilon: eps, Buckets: buckets}}
	for i, tok := range parts[3:] {
		key, value, isKV := strings.Cut(tok, "=")
		if !isKV {
			// Positional bandwidth, only valid directly after buckets.
			if i != 0 {
				return streamFlag{}, fmt.Errorf("unexpected token %q in %q (want key=value)", tok, raw)
			}
			if sf.cfg.Bandwidth, err = strconv.ParseFloat(tok, 64); err != nil {
				return streamFlag{}, fmt.Errorf("bad bandwidth in %q: %v", raw, err)
			}
			continue
		}
		switch key {
		case "bandwidth":
			if sf.cfg.Bandwidth, err = strconv.ParseFloat(value, 64); err != nil {
				return streamFlag{}, fmt.Errorf("bad bandwidth in %q: %v", raw, err)
			}
		case "mech", "mechanism":
			if value == "" { // would inherit the default; the declaration rule checks the rest
				return streamFlag{}, fmt.Errorf("unknown mechanism %q in %q (want one of %v, or auto)",
					value, raw, mechanism.Names())
			}
			sf.cfg.Mechanism = value
		case "epoch":
			d, err := time.ParseDuration(value)
			if err != nil {
				return streamFlag{}, fmt.Errorf("bad epoch in %q: %v", raw, err)
			}
			if d <= 0 {
				return streamFlag{}, fmt.Errorf("epoch must be positive in %q, got %v", raw, d)
			}
			sf.cfg.Epoch = ldphttp.Duration(d)
		case "retain":
			n, err := strconv.Atoi(value)
			if err != nil || n < 1 {
				return streamFlag{}, fmt.Errorf("bad retain in %q: want a positive integer, got %q", raw, value)
			}
			sf.cfg.Retain = n
		default:
			return streamFlag{}, fmt.Errorf("unknown option %q in %q (want bandwidth, mech, epoch, or retain)", key, raw)
		}
	}
	if sf.cfg.Retain != 0 && sf.cfg.Epoch == 0 {
		return streamFlag{}, fmt.Errorf("retain without epoch in %q", raw)
	}
	// The stream engine's declaration rule (a finite positive ε, a finite
	// bandwidth in [0, 2], ...); an omitted mechanism is checked as sw.
	if _, err := (engine.Config{Mechanism: sf.cfg.Mechanism, Epsilon: eps, Buckets: buckets,
		Bandwidth: sf.cfg.Bandwidth, Epoch: time.Duration(sf.cfg.Epoch), Retain: sf.cfg.Retain}).Resolve(); err != nil {
		return streamFlag{}, fmt.Errorf("stream %q: %v", raw, err)
	}
	return sf, nil
}

// serverConfig is everything main needs, parsed and validated from argv.
type serverConfig struct {
	addr         string
	cfg          ldphttp.Config
	streams      []streamFlag
	snapPath     string
	snapInterval time.Duration
	pushTo       string
	pushInterval time.Duration
	edgeID       string
	debugAddr    string
}

// parseRateFlag parses -rate-limit / -edge-rate-limit values: "rps" or
// "rps:burst". Zero rate disables the bucket (burst is then meaningless).
func parseRateFlag(flagName, raw string) (rate, burst float64, err error) {
	if raw == "" {
		return 0, 0, nil
	}
	rateStr, burstStr, hasBurst := strings.Cut(raw, ":")
	if rate, err = strconv.ParseFloat(rateStr, 64); err != nil || rate < 0 {
		return 0, 0, fmt.Errorf("%s %q: want rps[:burst] with rps >= 0", flagName, raw)
	}
	if hasBurst {
		if burst, err = strconv.ParseFloat(burstStr, 64); err != nil || burst <= 0 {
			return 0, 0, fmt.Errorf("%s %q: burst must be positive", flagName, raw)
		}
		if rate == 0 {
			return 0, 0, fmt.Errorf("%s %q: burst without a rate", flagName, raw)
		}
	}
	return rate, burst, nil
}

// parseArgs builds the server configuration from command-line arguments
// (without the program name). It is main's whole flag surface, extracted so
// tests can drive it directly; errors come back instead of exiting.
func parseArgs(args []string) (serverConfig, error) {
	fs := flag.NewFlagSet("ldpserver", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", "127.0.0.1:8080", "listen address")
		eps            = fs.Float64("eps", 1.0, "default stream LDP privacy budget ε")
		buckets        = fs.Int("buckets", 512, "default stream reconstruction granularity")
		mech           = fs.String("mechanism", "", "default stream reporting mechanism (sw, sw-discrete, grr, oue, sue, olh, hrr, or auto; \"\" = sw)")
		band           = fs.Float64("bandwidth", 0, "wave half-width override (0 = optimal)")
		shards         = fs.Int("shards", 0, "ingestion stripe count (0 = one per CPU)")
		refreshWorkers = fs.Int("refresh-workers", 0, "concurrent background refresh workers (0 = GOMAXPROCS, negative = 1)")
		refresh        = fs.Duration("refresh", 500*time.Millisecond, "backstop re-estimation sweep; a stream being read also refreshes within 10x its last refresh's time of new reports, at most 10ms")
		epoch          = fs.Duration("epoch", 0, "window the default stream: rotate its histogram every epoch (0 = no windowing)")
		retain         = fs.Int("retain", 0, "sealed epochs kept on the default stream (0 = 8; needs -epoch)")

		snapPath     = fs.String("snapshot", "", "snapshot file: restore at boot, persist on an interval and at shutdown")
		snapInterval = fs.Duration("snapshot-interval", 30*time.Second, "cadence of periodic snapshots (with -snapshot)")

		pushTo       = fs.String("push-to", "", "root collector base URL: run as a federation edge, shipping histogram deltas to this root")
		pushInterval = fs.Duration("push-interval", 10*time.Second, "cadence of federation pushes (with -push-to; jittered \u00b110%)")
		edgeID       = fs.String("edge-id", "", "stable identity of this edge at the root (with -push-to; default: hostname)")
		acceptFed    = fs.Bool("accept-federation", false, "run as a federation root: accept edge pushes on POST /federation/push")
		autoDeclare  = fs.Bool("federation-auto-declare", false, "auto-declare unknown streams from pushed edge fingerprints (implies -accept-federation)")

		maxBody   = fs.Int64("max-body", 1<<20, "request body cap in bytes for the JSON endpoints (0 = unlimited; federation pushes keep their own 64 MiB cap)")
		rateLimit = fs.String("rate-limit", "", "global admission rate as rps[:burst]: shed requests beyond it with 429 + Retry-After (\"\" = unlimited)")
		edgeRate  = fs.String("edge-rate-limit", "", "per-edge federation push rate as rps[:burst] (\"\" = unlimited)")
		logFormat = fs.String("log-format", "", "structured access log to stderr: kv or json (\"\" = off)")
		debugAddr = fs.String("debug-addr", "", "separate diagnostics listener serving net/http/pprof under /debug/pprof/ and the trace flight recorder on GET /v1/debug/traces (\"\" = off; never exposed on the public port)")

		noTrace     = fs.Bool("no-trace", false, "disable request tracing and the flight recorder entirely")
		traceSample = fs.Int("trace-sample", 0, "trace 1 in N header-less report requests (0 = 128, 1 = every request, negative = none; engine and federation spans are always traced)")
		traceBuffer = fs.Int("trace-buffer", 0, "flight recorder capacity in spans (0 = 4096)")
		slowReq     = fs.Duration("slow-request", 0, "log a slow_request line (with trace and request IDs) for requests at least this slow (0 = off; needs -log-format)")
	)
	var streamFlags []streamFlag
	fs.Func("stream", "declare a stream as name:eps:buckets[:bandwidth][:mech=NAME][:epoch=DUR][:retain=N] (repeatable)", func(raw string) error {
		sf, err := parseStreamFlag(raw)
		if err != nil {
			return err
		}
		for _, prev := range streamFlags {
			if prev.name == sf.name {
				return fmt.Errorf("stream %q declared twice", sf.name)
			}
		}
		streamFlags = append(streamFlags, sf)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return serverConfig{}, err
	}
	if *buckets < 2 {
		return serverConfig{}, fmt.Errorf("-buckets must be at least 2, got %d", *buckets)
	}
	// The default stream's flags pass the stream engine's declaration rule
	// here, so NewServer never meets a declaration it would refuse.
	if _, err := (engine.Config{Mechanism: *mech, Epsilon: *eps, Buckets: *buckets, Bandwidth: *band,
		Shards: *shards, Epoch: *epoch, Retain: *retain}).Resolve(); err != nil {
		return serverConfig{}, fmt.Errorf("default stream (-eps, -buckets, -mechanism, -bandwidth, -epoch, -retain): %v", err)
	}
	if *refresh <= 0 {
		return serverConfig{}, fmt.Errorf("-refresh must be positive, got %v", *refresh)
	}
	if *snapInterval <= 0 {
		return serverConfig{}, fmt.Errorf("-snapshot-interval must be positive, got %v", *snapInterval)
	}
	if *pushInterval <= 0 {
		return serverConfig{}, fmt.Errorf("-push-interval must be positive, got %v", *pushInterval)
	}
	edge := *edgeID
	if *pushTo != "" {
		u, err := url.Parse(*pushTo)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return serverConfig{}, fmt.Errorf("-push-to %q is not an http(s) URL", *pushTo)
		}
		if edge == "" {
			host, err := os.Hostname()
			if err != nil || !snapshot.ValidName(host) {
				return serverConfig{}, fmt.Errorf("-push-to needs -edge-id (hostname %q is not usable as one)", host)
			}
			edge = host
		}
		if !snapshot.ValidName(edge) {
			return serverConfig{}, fmt.Errorf("-edge-id %q invalid (want 1-64 chars of [A-Za-z0-9._-])", edge)
		}
	} else if edge != "" {
		return serverConfig{}, fmt.Errorf("-edge-id needs -push-to")
	}
	if *maxBody < 0 {
		return serverConfig{}, fmt.Errorf("-max-body must not be negative, got %d", *maxBody)
	}
	globalRate, globalBurst, err := parseRateFlag("-rate-limit", *rateLimit)
	if err != nil {
		return serverConfig{}, err
	}
	edgeRateV, edgeBurstV, err := parseRateFlag("-edge-rate-limit", *edgeRate)
	if err != nil {
		return serverConfig{}, err
	}
	if *traceBuffer < 0 {
		return serverConfig{}, fmt.Errorf("-trace-buffer must not be negative, got %d", *traceBuffer)
	}
	if *slowReq < 0 {
		return serverConfig{}, fmt.Errorf("-slow-request must not be negative, got %v", *slowReq)
	}
	if *slowReq > 0 && *logFormat == "" {
		return serverConfig{}, fmt.Errorf("-slow-request needs -log-format (slow lines go to the access log)")
	}
	if *noTrace && (*traceSample != 0 || *traceBuffer != 0) {
		return serverConfig{}, fmt.Errorf("-no-trace conflicts with -trace-sample/-trace-buffer")
	}
	ops := ldphttp.OpsConfig{
		MaxBodyBytes:  *maxBody,
		RateLimit:     globalRate,
		RateBurst:     globalBurst,
		EdgeRateLimit: edgeRateV,
		EdgeRateBurst: edgeBurstV,
		AwaitRestore:  *snapPath != "",
		Trace: ldphttp.TraceConfig{
			Disable:     *noTrace,
			Capacity:    *traceBuffer,
			SampleEvery: *traceSample,
			SlowRequest: *slowReq,
		},
	}
	switch *logFormat {
	case "":
	case "kv":
		ops.AccessLog = os.Stderr
	case "json":
		ops.AccessLog = os.Stderr
		ops.LogJSON = true
	default:
		return serverConfig{}, fmt.Errorf("-log-format %q unknown (want kv or json)", *logFormat)
	}
	return serverConfig{
		addr: *addr,
		cfg: ldphttp.Config{
			Epsilon:         *eps,
			Buckets:         *buckets,
			Mechanism:       *mech,
			Bandwidth:       *band,
			Shards:          *shards,
			RefreshWorkers:  *refreshWorkers,
			RefreshInterval: *refresh,
			Epoch:           *epoch,
			Retain:          *retain,
			Federation: ldphttp.FederationConfig{
				Accept:      *acceptFed || *autoDeclare,
				AutoDeclare: *autoDeclare,
			},
			Ops: ops,
		},
		streams:      streamFlags,
		snapPath:     *snapPath,
		snapInterval: *snapInterval,
		pushTo:       *pushTo,
		pushInterval: *pushInterval,
		edgeID:       edge,
		debugAddr:    *debugAddr,
	}, nil
}

// mountPprof registers the net/http/pprof handlers on mux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func main() {
	conf, err := parseArgs(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		log.Fatal(err)
	}

	srv := ldphttp.NewServer(conf.cfg)

	// Declare flags first so windowed -stream declarations exist before the
	// restore, then restore: a snapshot record merges into its matching
	// declaration (windowed state adopts onto the pristine ring) and any
	// mismatch fails loudly before serving.
	for _, sf := range conf.streams {
		if err := srv.CreateStream(sf.name, sf.cfg); err != nil {
			log.Fatalf("declare stream %s: %v", sf.name, err)
		}
	}
	if conf.snapPath != "" {
		// The server boots unready (Ops.AwaitRestore); a successful restore
		// flips /readyz itself, a cold start flips it here, and a failed
		// restore exits with the server still failing readiness.
		switch err := srv.LoadSnapshot(conf.snapPath); {
		case err == nil:
			fmt.Printf("restored %d reports across %d streams from %s\n",
				srv.N(), len(srv.Streams()), conf.snapPath)
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("no snapshot at %s yet; starting cold\n", conf.snapPath)
			srv.MarkReady()
		default:
			log.Fatalf("restore %s: %v", conf.snapPath, err)
		}
	}

	// Edge mode: ship deltas to the root after the snapshot restore, so a
	// restored push cursor resumes the sequence exactly. With snapshots
	// enabled, every new delta payload is persisted before it first travels
	// (write-ahead), which makes a crash between send and ack replay the
	// identical bytes.
	if conf.pushTo != "" {
		opts := ldphttp.PushOptions{
			URL:      conf.pushTo,
			Edge:     conf.edgeID,
			Interval: conf.pushInterval,
			Logf:     log.Printf,
		}
		if conf.snapPath != "" {
			opts.Persist = func() error { return srv.SaveSnapshot(conf.snapPath) }
		}
		if err := srv.EnablePush(opts); err != nil {
			log.Fatalf("enable federation push: %v", err)
		}
		fmt.Printf("federation edge %q pushing to %s every %v\n", conf.edgeID, conf.pushTo, conf.pushInterval)
	}
	if conf.cfg.Federation.Accept {
		fmt.Printf("federation root: accepting pushes on POST /federation/push (auto-declare: %v)\n",
			conf.cfg.Federation.AutoDeclare)
	}

	// Diagnostics surfaces. -debug-addr binds pprof and the trace flight
	// recorder on their own listener so they are never reachable through the
	// public port.
	var debugSrv *http.Server
	if conf.debugAddr != "" {
		dmux := http.NewServeMux()
		mountPprof(dmux)
		dmux.Handle("/v1/debug/traces", srv.DebugHandler())
		debugSrv = &http.Server{
			Addr:         conf.debugAddr,
			Handler:      dmux,
			ReadTimeout:  10 * time.Second,
			WriteTimeout: 0, // pprof profile/trace stream for their whole duration
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		fmt.Printf("debug listener on %s: /debug/pprof/ and GET /v1/debug/traces\n", conf.debugAddr)
	}

	httpSrv := &http.Server{
		Addr:         conf.addr,
		Handler:      srv.Handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second, // estimates and queries serve caches and never block on EM
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic durability: snapshots are atomic (temp file + rename), so a
	// crash mid-save can never clobber the previous good state.
	saverDone := make(chan struct{})
	if conf.snapPath != "" {
		go func() {
			defer close(saverDone)
			ticker := time.NewTicker(conf.snapInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := srv.SaveSnapshot(conf.snapPath); err != nil {
						log.Printf("snapshot: %v", err)
					}
				}
			}
		}()
	} else {
		close(saverDone)
	}

	// finalSnapshot persists the last state on any exit path — a clean
	// shutdown never loses the last partial epoch. An edge flushes its last
	// deltas to the root first (best effort; anything unacknowledged is in
	// the snapshot and replays exactly on the next boot).
	finalSnapshot := func() {
		if conf.pushTo != "" {
			if _, err := srv.PushNow(); err != nil {
				log.Printf("final federation push: %v", err)
			}
		}
		if conf.snapPath == "" {
			return
		}
		if err := srv.SaveSnapshot(conf.snapPath); err != nil {
			log.Printf("final snapshot: %v", err)
		} else {
			fmt.Printf("state saved to %s\n", conf.snapPath)
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("ldpserver listening on %s (default stream: epsilon=%g, buckets=%d; %d streams)\n",
		conf.addr, conf.cfg.Epsilon, conf.cfg.Buckets, len(srv.Streams()))
	fmt.Println("endpoints: POST|GET /v1/streams, GET|DELETE /v1/streams/{name}, POST /v1/streams/{name}/report, POST /v1/streams/{name}/batch, GET /v1/streams/{name}/estimate, GET|POST /v1/streams/{name}/query, GET /v1/streams/{name}/config, GET /v1/streams/{name}/diagnostics, GET /v1/diagnostics, POST /federation/push, GET /federation/peers, GET /metrics, GET /healthz, GET /readyz")

	select {
	case err := <-errc:
		stop()
		if debugSrv != nil {
			debugSrv.Close()
		}
		<-saverDone
		srv.Close()
		finalSnapshot() // whatever was collected before the server died
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills immediately
		fmt.Println("\nshutting down: draining requests, stopping estimator...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		if debugSrv != nil {
			debugSrv.Close()
		}
		<-saverDone
		srv.Close() // background estimator exits before the final save
		finalSnapshot()
		fmt.Printf("done; %d reports collected across %d streams\n", srv.N(), len(srv.Streams()))
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}
