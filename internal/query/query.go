// Package query evaluates analytics queries against a reconstructed
// distribution — the answers the paper's pipeline exists to produce (Section
// 3: range probabilities, quantiles, means and variances), packaged as a
// single typed request/response pair so the HTTP collector, the public
// library API, and the experiment harness all serve exactly the same
// semantics.
//
// Inputs are bucketed estimates over [0,1] as produced by the EMS
// reconstruction (package em via core) or any of the baseline estimators.
// Signed estimates — HH and HaarHRR return vectors with negative entries —
// are post-processed per the paper before evaluation: Norm (additive
// normalization, keeps range queries unbiased) for CDF/range queries,
// Norm-Sub (simplex projection) for point statistics (package postprocess).
package query

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/histogram"
	"repro/internal/postprocess"
	"repro/internal/stats"
)

// Type names a query kind. The string values are the wire names used by the
// HTTP API (GET /v1/streams/{name}/query?type=...).
type Type string

// Supported query types.
const (
	// Quantile evaluates the β-quantile for each probability in Qs.
	Quantile Type = "quantile"
	// CDF evaluates the cumulative distribution at each point in Qs.
	CDF Type = "cdf"
	// Range returns the probability mass on [Lo, Hi].
	Range Type = "range"
	// Mean returns the distribution mean.
	Mean Type = "mean"
	// Variance returns the distribution variance.
	Variance Type = "variance"
	// TopK returns the K most probable buckets with their bounds.
	TopK Type = "topk"
	// Histogram returns the full reconstructed distribution.
	Histogram Type = "histogram"
)

// Request is one analytics query.
type Request struct {
	// Type selects the query kind. Required.
	Type Type `json:"type"`
	// Qs carries the probabilities (Quantile) or evaluation points (CDF),
	// each in [0,1].
	Qs []float64 `json:"q,omitempty"`
	// Lo, Hi bound a Range query, Lo ≤ Hi, both in [0,1].
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// K is the bucket count for TopK. Values above the granularity are
	// clamped.
	K int `json:"k,omitempty"`
}

// Bin is one bucket of a TopK answer.
type Bin struct {
	// Index is the bucket position in the d-bucket grid.
	Index int `json:"index"`
	// Lo, Hi are the bucket bounds in [0,1].
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// P is the estimated probability mass of the bucket.
	P float64 `json:"p"`
	// PValue, present when the report count n is known, is the exact
	// binomial tail Pr[X ≥ n·P] for X ~ Binomial(n, 1/d) — how surprising
	// this bucket's mass would be if the true distribution were uniform.
	// It is a heuristic significance score (the reconstruction already
	// denoised the counts), useful for ranking heavy hitters; 0 means "not
	// computed".
	PValue float64 `json:"p_value,omitempty"`
}

// Response is the answer to one Request.
type Response struct {
	// Type echoes the request.
	Type Type `json:"type"`
	// Values holds per-point answers for Quantile and CDF (aligned with
	// Request.Qs) and the full distribution for Histogram.
	Values []float64 `json:"values,omitempty"`
	// Value holds the scalar answer for Range, Mean and Variance. (No
	// omitempty: a range query legitimately answers exactly 0.)
	Value float64 `json:"value"`
	// Bins holds the TopK answer, most probable first.
	Bins []Bin `json:"bins,omitempty"`
}

// Eval answers req against the reconstructed distribution dist (over d
// equal-width buckets of [0,1]). n is the number of reports behind the
// estimate and is only used to attach significance scores to TopK bins; pass
// 0 when unknown. The input is never modified.
func Eval(dist []float64, n int, req Request) (Response, error) {
	if len(dist) == 0 {
		return Response{}, fmt.Errorf("query: empty distribution")
	}
	if err := Validate(req); err != nil {
		return Response{}, err
	}
	dist = prepare(dist, req.Type)
	resp := Response{Type: req.Type}
	switch req.Type {
	case Quantile:
		resp.Values = make([]float64, len(req.Qs))
		for i, q := range req.Qs {
			resp.Values[i] = histogram.Quantile(dist, q)
		}
	case CDF:
		resp.Values = make([]float64, len(req.Qs))
		for i, v := range req.Qs {
			resp.Values[i] = histogram.CDFAt(dist, v)
		}
	case Range:
		resp.Value = histogram.RangeProb(dist, req.Lo, req.Hi)
	case Mean:
		resp.Value = histogram.Mean(dist)
	case Variance:
		resp.Value = histogram.Variance(dist)
	case TopK:
		resp.Bins = topK(dist, n, req.K)
	case Histogram:
		resp.Values = append([]float64(nil), dist...)
	}
	return resp, nil
}

// Validate checks a request without evaluating it, so transports can reject
// malformed queries before touching an estimate.
func Validate(req Request) error {
	switch req.Type {
	case Quantile, CDF:
		if len(req.Qs) == 0 {
			return fmt.Errorf("query: %s needs at least one point in q", req.Type)
		}
		for _, q := range req.Qs {
			if q < 0 || q > 1 || math.IsNaN(q) {
				return fmt.Errorf("query: %s point %v outside [0,1]", req.Type, q)
			}
		}
	case Range:
		if req.Lo < 0 || req.Hi > 1 || req.Lo > req.Hi ||
			math.IsNaN(req.Lo) || math.IsNaN(req.Hi) {
			return fmt.Errorf("query: range [%v, %v] must satisfy 0 ≤ lo ≤ hi ≤ 1", req.Lo, req.Hi)
		}
	case Mean, Variance, Histogram:
		// No parameters.
	case TopK:
		if req.K < 1 {
			return fmt.Errorf("query: topk needs k ≥ 1, got %d", req.K)
		}
	default:
		return fmt.Errorf("query: unknown type %q", req.Type)
	}
	return nil
}

// prepare post-processes signed estimates per the paper: range/CDF queries
// keep the additive Norm (disjoint-range errors cancel, Section 4.1
// following Wang et al. [35]); point statistics need a valid distribution
// and use the Norm-Sub simplex projection. Valid distributions pass through
// untouched (no allocation on the common SW-EMS path).
func prepare(dist []float64, typ Type) []float64 {
	signed := false
	for _, p := range dist {
		if p < 0 {
			signed = true
			break
		}
	}
	if !signed {
		return dist
	}
	if typ == Range || typ == CDF {
		return postprocess.Norm(dist)
	}
	return postprocess.NormSub(dist)
}

// topK returns the k most probable bins, ties broken by lower index, with
// binomial significance scores when n > 0.
func topK(dist []float64, n, k int) []Bin {
	d := len(dist)
	if k > d {
		k = d
	}
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return dist[idx[a]] > dist[idx[b]] })
	bins := make([]Bin, k)
	for i := 0; i < k; i++ {
		j := idx[i]
		lo, hi := histogram.BucketBounds(j, d)
		bins[i] = Bin{Index: j, Lo: lo, Hi: hi, P: dist[j]}
		if n > 0 && d > 1 {
			count := int(math.Round(dist[j] * float64(n)))
			if count > n {
				count = n
			}
			bins[i].PValue = stats.BinomialTail(count, n, 1/float64(d))
		}
	}
	return bins
}
