package repro

// Multi-stream and analytics surface of the public API: the same
// stream/query/snapshot capabilities the HTTP collector serves, for users
// embedding the library directly. A Streams registry hosts any number of
// named attributes, each backed by its own concurrency-safe Aggregator;
// Query evaluates range/CDF/quantile/mean/variance/top-k analytics against
// a reconstruction; Save/Load persist every stream's report histogram
// through the same checksummed atomic-rename snapshot format as the server.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/snapshot"
)

// QueryType selects an analytics query kind. The values match the HTTP
// collector's wire names.
type QueryType string

// Supported query types.
const (
	QueryQuantile  QueryType = QueryType(query.Quantile)
	QueryCDF       QueryType = QueryType(query.CDF)
	QueryRange     QueryType = QueryType(query.Range)
	QueryMean      QueryType = QueryType(query.Mean)
	QueryVariance  QueryType = QueryType(query.Variance)
	QueryTopK      QueryType = QueryType(query.TopK)
	QueryHistogram QueryType = QueryType(query.Histogram)
)

// QueryRequest is one analytics query against a reconstructed distribution.
type QueryRequest struct {
	// Type selects the query kind. Required.
	Type QueryType
	// Qs carries the probabilities (QueryQuantile) or evaluation points
	// (QueryCDF), each in [0,1].
	Qs []float64
	// Lo, Hi bound a QueryRange query, 0 ≤ Lo ≤ Hi ≤ 1.
	Lo, Hi float64
	// K is the bucket count for QueryTopK.
	K int
}

// QueryBin is one bucket of a top-k answer.
type QueryBin struct {
	// Index is the bucket position; Lo, Hi its bounds in [0,1]; P its
	// estimated mass.
	Index  int
	Lo, Hi float64
	P      float64
	// PValue, when the report count is known, scores how surprising the
	// bucket's mass would be under a uniform distribution (exact binomial
	// tail); 0 means "not computed".
	PValue float64
}

// QueryResult is the answer to one QueryRequest.
type QueryResult struct {
	// Type echoes the request.
	Type QueryType
	// Values holds per-point answers (QueryQuantile, QueryCDF, aligned
	// with the request's Qs) and the full distribution for QueryHistogram.
	Values []float64
	// Value holds the scalar answer (QueryRange, QueryMean, QueryVariance).
	Value float64
	// Bins holds the QueryTopK answer, most probable first.
	Bins []QueryBin
}

func toInternalQuery(q QueryRequest) query.Request {
	return query.Request{Type: query.Type(q.Type), Qs: q.Qs, Lo: q.Lo, Hi: q.Hi, K: q.K}
}

func fromInternalQuery(r query.Response) *QueryResult {
	out := &QueryResult{Type: QueryType(r.Type), Values: r.Values, Value: r.Value}
	if r.Bins != nil {
		out.Bins = make([]QueryBin, len(r.Bins))
		for i, b := range r.Bins {
			out.Bins[i] = QueryBin{Index: b.Index, Lo: b.Lo, Hi: b.Hi, P: b.P, PValue: b.PValue}
		}
	}
	return out
}

// Query evaluates one analytics query against the result's distribution.
// Signed estimates (HHist, HaarHRR) are post-processed per the paper first:
// additive normalization for range/CDF queries, simplex projection for
// point statistics.
func (r *Result) Query(req QueryRequest) (*QueryResult, error) {
	resp, err := query.Eval(r.Distribution, 0, toInternalQuery(req))
	if err != nil {
		return nil, err
	}
	return fromInternalQuery(resp), nil
}

// Quantiles evaluates several quantiles at once (each β ∈ [0,1]).
func (r *Result) Quantiles(betas ...float64) ([]float64, error) {
	res, err := r.Query(QueryRequest{Type: QueryQuantile, Qs: betas})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// TopK returns the k most probable buckets of the reconstruction.
func (r *Result) TopK(k int) ([]QueryBin, error) {
	res, err := r.Query(QueryRequest{Type: QueryTopK, K: k})
	if err != nil {
		return nil, err
	}
	return res.Bins, nil
}

// Streams is a registry of named attribute streams, each backed by its own
// Aggregator — the library-side equivalent of the HTTP collector's
// multi-stream surface. All methods are safe for concurrent use; ingestion
// into different streams never contends.
type Streams struct {
	mu sync.RWMutex
	m  map[string]*streamEntry
}

type streamEntry struct {
	agg  *Aggregator
	opts Options
}

// NewStreams returns an empty registry.
func NewStreams() *Streams {
	return &Streams{m: make(map[string]*streamEntry)}
}

// Declare registers a named stream with its own Options and returns its
// Aggregator. Redeclaring a stream with identical options returns the
// existing Aggregator; different options are an error. Names are 1–64
// bytes with no control characters.
func (s *Streams) Declare(name string, opts Options) (*Aggregator, error) {
	if !snapshot.ValidStreamName(name) {
		return nil, fmt.Errorf("repro: invalid stream name %q (want 1-64 bytes with no control characters)", name)
	}
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[name]; ok {
		if e.opts != opts {
			return nil, fmt.Errorf("repro: stream %q already declared with different options", name)
		}
		return e.agg, nil
	}
	agg, err := NewAggregator(opts)
	if err != nil {
		return nil, err
	}
	s.m[name] = &streamEntry{agg: agg, opts: opts}
	return agg, nil
}

// Get returns a declared stream's Aggregator.
func (s *Streams) Get(name string) (*Aggregator, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[name]
	if !ok {
		return nil, false
	}
	return e.agg, true
}

// Drop retires a declared stream: it disappears from the registry and from
// future Save calls, and its reports are discarded. Dropping an unknown
// stream is an error. Callers still holding the stream's Aggregator can
// keep using it; the registry just no longer knows it.
func (s *Streams) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[name]; !ok {
		return fmt.Errorf("repro: unknown stream %q", name)
	}
	delete(s.m, name)
	return nil
}

// Names lists the declared streams, sorted.
func (s *Streams) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Estimate reconstructs one stream's distribution from the reports ingested
// so far.
func (s *Streams) Estimate(name string) (*Result, error) {
	agg, ok := s.Get(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown stream %q", name)
	}
	return agg.Estimate()
}

// Query reconstructs one stream's distribution and evaluates an analytics
// query against it. The stream's report count feeds top-k significance
// scores.
func (s *Streams) Query(name string, req QueryRequest) (*QueryResult, error) {
	agg, ok := s.Get(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown stream %q", name)
	}
	res, err := agg.Estimate()
	if err != nil {
		return nil, err
	}
	resp, err := query.Eval(res.Distribution, agg.N(), toInternalQuery(req))
	if err != nil {
		return nil, err
	}
	return fromInternalQuery(resp), nil
}

// Save persists every stream's report histogram to path in the snapshot
// format (checksummed, written via atomic temp-file rename). Safe to call
// concurrently with ingestion: each stream is captured with a non-blocking
// consistent snapshot.
func (s *Streams) Save(path string) error {
	s.mu.RLock()
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	sort.Strings(names)
	records := make([]snapshot.Stream, 0, len(names))
	for _, name := range names {
		e := s.m[name]
		rec := e.record(name)
		// The same record shape the HTTP collector writes: the live epoch
		// in Counts, plus the window block for a windowed stream.
		rec.Capture(e.agg.ring)
		records = append(records, rec)
	}
	s.mu.RUnlock()
	return snapshot.Save(path, records)
}

// Load restores streams from a snapshot file, creating missing streams with
// their persisted options (including epoch-rotation state) and merging
// histograms into streams that already exist. An existing stream must match
// the record's mechanism, ε and buckets, and its bandwidth once a declared 0
// resolves to the optimum — the HTTP collector's restore rule. A
// windowed record restoring into a declared windowed stream requires
// matching epoch/retain and a stream that has not rotated yet (and no
// concurrent Advance/Rotate on that aggregator during the Load — the
// registry cannot serialize rotations of aggregators the caller holds); a
// record without window state restoring into a windowed stream merges into
// the live epoch. Corrupt, truncated, or incompatible files return an error and
// change nothing: validation of every record and construction of every
// missing aggregator happen before the first merge, all under the registry
// lock, so no error path or concurrent Declare can leave a partial restore
// behind. Snapshots written by the HTTP collector load here and vice versa.
func (s *Streams) Load(path string) error {
	records, err := snapshot.Load(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Phase 1 — validate every record and build (but do not register) the
	// aggregators for missing streams.
	entries := make([]*streamEntry, len(records))
	fresh := make([]bool, len(records))
	for i, rec := range records {
		e, ok := s.m[rec.Name]
		if !ok {
			opts := Options{
				Epsilon:   rec.Epsilon,
				Buckets:   rec.Buckets,
				Mechanism: rec.MechanismName(),
				Bandwidth: rec.Bandwidth,
				Shards:    rec.Shards,
			}
			if rec.Window != nil {
				opts.Epoch = time.Duration(rec.Window.EpochNanos)
				opts.Retain = rec.Window.Retain
			}
			opts, err := opts.validate()
			if err != nil {
				return fmt.Errorf("repro: restore stream %q: %w", rec.Name, err)
			}
			agg, err := NewAggregator(opts)
			if err != nil {
				return fmt.Errorf("repro: restore stream %q: %w", rec.Name, err)
			}
			e = &streamEntry{agg: agg, opts: opts}
			fresh[i] = true
		}
		if err := rec.CheckRestore(e.record(rec.Name), e.agg.ring); err != nil {
			return fmt.Errorf("repro: restore: %w", err)
		}
		entries[i] = e
	}
	// Phase 2 — register and merge; no failure paths remain short of a
	// windowed adopt racing a concurrent rotation of a pristine ring.
	for i, rec := range records {
		e := entries[i]
		if fresh[i] {
			s.m[rec.Name] = e
		}
		if err := rec.Restore(e.agg.ring); err != nil {
			return fmt.Errorf("repro: restore stream %q: %w", rec.Name, err)
		}
	}
	return nil
}

// record is the stream's declaration as a snapshot record, histogram not
// yet captured; restores compare records against it.
func (e *streamEntry) record(name string) snapshot.Stream {
	return snapshot.Stream{
		Name:      name,
		Epsilon:   e.opts.Epsilon,
		Buckets:   e.opts.Buckets,
		Mechanism: e.opts.Mechanism,
		Bandwidth: e.opts.Bandwidth,
		Shards:    e.opts.Shards,
	}
}
