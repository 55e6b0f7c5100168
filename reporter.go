package repro

// Reporter is the batching HTTP client: the bridge between the user-side
// randomizer (Client) and a running collector. Each Report call perturbs
// one private value locally and enqueues the wire report; a background
// Batcher ships size- or age-triggered batches to the collector's
// /v1/streams/{name}/batch endpoint, as JSON or as the compact binary
// frame. Batching amortizes the per-request HTTP and JSON overhead that
// dominates ingest cost at high report rates; the binary codec removes
// most of what remains.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mechanism"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ReporterOptions parameterizes a Reporter.
type ReporterOptions struct {
	// URL is the collector's base URL ("http://collector:8080"). Required.
	URL string
	// Stream is the target stream name ("" = the collector's default
	// stream). The stream must be declared with matching Options.
	Stream string
	// Options configures the local randomizer — it must match the
	// collector stream's mechanism parameters, exactly as for NewClient.
	Options Options
	// Binary ships batches as application/x-ldp-binary frames instead of
	// JSON.
	Binary bool
	// MaxBatch, MaxDelay and QueueCap tune the Batcher (defaults: 128
	// reports, 200ms, 4×MaxBatch). Add blocks when the queue is full.
	MaxBatch int
	MaxDelay time.Duration
	QueueCap int
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// DisableTracing stops the reporter from stamping each shipped batch
	// with a W3C traceparent header. Stamped batches are traced end to end:
	// the collector continues the trace through decode/bucketize/ingest,
	// and LastTraceID exposes the most recent ID for correlation.
	DisableTracing bool
}

// Reporter perturbs and ships reports. Create with NewReporter; Report,
// Flush and Close are safe for concurrent use.
type Reporter struct {
	mu      sync.Mutex // guards client (its rng is single-threaded)
	client  *Client
	batcher *core.Batcher

	traceMu     sync.Mutex
	lastTraceID string
}

// NewReporter builds the randomizer and starts the batching loop.
func NewReporter(opts ReporterOptions) (*Reporter, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("repro: reporter needs a collector URL")
	}
	u, err := url.Parse(opts.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("repro: reporter URL %q is not an http(s) URL", opts.URL)
	}
	client, err := NewClient(opts.Options)
	if err != nil {
		return nil, err
	}
	stream := opts.Stream
	if stream == "" {
		stream = "default"
	}
	endpoint := strings.TrimSuffix(opts.URL, "/") + "/v1/streams/" + url.PathEscape(stream) + "/batch"
	httpClient := opts.HTTPClient
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	r := &Reporter{client: client}
	r.batcher, err = core.NewBatcher(core.BatcherConfig{
		MaxBatch: opts.MaxBatch,
		MaxDelay: opts.MaxDelay,
		QueueCap: opts.QueueCap,
		Flush: func(reports []mechanism.Report) error {
			var sc trace.SpanContext
			if !opts.DisableTracing {
				sc = trace.NewContext()
				r.traceMu.Lock()
				r.lastTraceID = sc.TraceID
				r.traceMu.Unlock()
			}
			return postBatch(httpClient, endpoint, reports, opts.Binary, sc)
		},
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Report randomizes one private value v ∈ [0,1] (clamped) and enqueues the
// wire report, blocking while the queue is full.
func (r *Reporter) Report(v float64) error {
	r.mu.Lock()
	rep := r.client.Perturb(v)
	r.mu.Unlock()
	return r.batcher.Add(mechanism.Report(rep))
}

// Flush synchronously ships everything queued.
func (r *Reporter) Flush() error { return r.batcher.Flush() }

// LastTraceID returns the trace ID stamped on the most recently shipped
// batch ("" before the first ship, or with DisableTracing set). The same ID
// is queryable on the collector's debug listener (GET /v1/debug/traces) —
// and, after the edge federates, on the root's, as an absorb-link marker.
func (r *Reporter) LastTraceID() string {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return r.lastTraceID
}

// Close flushes what remains and stops the batching loop.
func (r *Reporter) Close() error { return r.batcher.Close() }

// postBatch ships one batch in the negotiated codec and verifies the
// collector accepted it.
func postBatch(client *http.Client, endpoint string, reports []mechanism.Report, binary bool, sc trace.SpanContext) error {
	var body []byte
	contentType := "application/json"
	if binary {
		raw := make([][]float64, len(reports))
		for i, rep := range reports {
			raw[i] = rep
		}
		body = wire.EncodeReports(raw)
		contentType = wire.ContentType
	} else {
		var err error
		if body, err = json.Marshal(map[string]any{"reports": jsonReports(reports)}); err != nil {
			return fmt.Errorf("repro: encode batch: %w", err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", "application/json")
	if sc.Valid() {
		req.Header.Set("traceparent", sc.Header())
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("repro: POST batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repro: POST batch: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return nil
}

// jsonReports sends a batch of one-component reports as a plain []float64:
// bare numbers, the shape the collector documents for scalar mechanisms, on
// encoding/json's native float path. Any other batch keeps its arrays.
func jsonReports(reports []mechanism.Report) any {
	scalars := make([]float64, len(reports))
	for i, rep := range reports {
		if len(rep) != 1 {
			return reports
		}
		scalars[i] = rep[0]
	}
	return scalars
}
