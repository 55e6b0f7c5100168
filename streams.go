package repro

// Multi-stream and analytics surface of the public API: the same
// stream/query/snapshot capabilities the HTTP collector serves, for users
// embedding the library directly. A Streams registry is the collector's own
// stream registry (package engine) without the background refresh: the
// same declaration and redeclare rules, the same Aggregator-per-stream
// ingest, and the same snapshot capture and restore, so either loads the
// other's files. Query evaluates range/CDF/quantile/mean/
// variance/top-k analytics against a reconstruction.

import (
	"fmt"
	"slices"

	"repro/internal/engine"
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
	reg *engine.Registry
}

// NewStreams returns an empty registry.
func NewStreams() *Streams {
	return &Streams{reg: engine.NewRegistry(engine.Options{})}
}

// Declare registers a named stream with its own Options and returns its
// Aggregator. Names are 1–64 bytes with no control characters.
// Redeclaring a stream returns the existing Aggregator when the options
// agree with its declaration by the HTTP collector's rule: the same
// mechanism, ε and buckets, the same bandwidth once 0 resolves to the
// optimum, and the same windowing (zero Epoch and Retain inherit the
// stream's); Shards and Seed are not compared. Anything else is an error.
func (s *Streams) Declare(name string, opts Options) (*Aggregator, error) {
	st, _, err := s.reg.Declare(name, opts.declaration())
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return (*Aggregator)(st), nil
}

// Get returns a declared stream's Aggregator.
func (s *Streams) Get(name string) (*Aggregator, bool) {
	st := s.reg.Lookup(name)
	return (*Aggregator)(st), st != nil
}

// Drop retires a declared stream: it disappears from the registry and from
// future Save calls, and its reports are discarded. Dropping an unknown
// stream is an error. Callers still holding the stream's Aggregator can
// keep using it; the registry just no longer knows it.
func (s *Streams) Drop(name string) error {
	if err := s.reg.Drop(name); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// Names lists the declared streams, sorted.
func (s *Streams) Names() []string {
	list := s.reg.List()
	names := make([]string, len(list))
	for i, st := range list {
		names[i] = st.Name()
	}
	slices.Sort(names)
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
// format (checksummed, written via atomic temp-file rename), in declaration
// order. Safe to call concurrently with ingestion: each stream is captured
// with a non-blocking consistent snapshot.
func (s *Streams) Save(path string) error {
	return snapshot.Save(path, s.reg.Capture())
}

// Load restores streams from a snapshot file, creating missing streams with
// their persisted options (including epoch-rotation state) and merging
// histograms into streams that already exist — the HTTP collector's
// restore, run by the same engine. An existing stream must accept the
// record's declaration by Declare's rule; a windowed record restoring into
// a declared windowed stream also requires a stream that has not rotated
// yet, and a record without window state restoring into a windowed stream
// merges into the live epoch. Corrupt, truncated, or incompatible files
// return an error and change nothing: every record is validated, and every
// missing stream built, before the first merge, all under the registry
// lock — which Advance and Rotate take too — so no error path, concurrent
// Declare or rotation can leave a partial restore behind. Snapshots
// written by the HTTP collector load here and vice versa.
func (s *Streams) Load(path string) error {
	records, err := snapshot.Load(path)
	if err != nil {
		return err
	}
	if err := s.reg.Restore(records); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}
