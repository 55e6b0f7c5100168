package ldptest

// Serving-path acceptance checking: CheckServing drives a population of
// synthetic clients through a full HTTP collection round against a live
// collector — randomize on the client, POST /v1/streams/{name}/batch, poll
// GET /v1/streams/{name}/estimate — and verifies that the served
// reconstruction lands within paper-level Wasserstein/KS distance of the
// true distribution. It is the statistical complement of
// CheckDiscrete/CheckContinuous: those verify the privacy side of a
// mechanism, this verifies the utility side of a deployment, end to end
// through the transport, the striped accumulator, the background EMS engine
// and the response cache.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/metrics"
	"repro/internal/randx"
)

// ServingOptions configures one serving-path check.
type ServingOptions struct {
	// Stream names the collector stream to drive ("" = the default
	// stream). The stream must start empty: the check asserts the estimate
	// covers exactly the reports it sent.
	Stream string
	// Epsilon, Buckets, Bandwidth are the mechanism parameters and must
	// match the stream's server-side configuration.
	Epsilon   float64
	Buckets   int
	Bandwidth float64
	// Mechanism selects the client-side reporting mechanism ("" = "sw").
	// It must match the stream's declaration. Scalar mechanisms ship their
	// reports as bare JSON numbers (the pre-mechanism wire format); the
	// rest ship vectors.
	Mechanism string
	// Clients is the synthetic population size. Defaults to 3000.
	Clients int
	// BatchSize chunks the reports into POST .../batch requests. Defaults
	// to 500.
	BatchSize int
	// Seed makes the round deterministic. Defaults to 1.
	Seed uint64
	// MaxW1 and MaxKS bound the distance between the served estimate and
	// the true (bucketized) distribution. Zero disables that bound.
	MaxW1, MaxKS float64
	// Timeout bounds the wait for a fresh estimate. Defaults to 30s.
	Timeout time.Duration
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

func (o ServingOptions) filled() ServingOptions {
	if o.Clients <= 0 {
		o.Clients = 3000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	return o
}

// ServingReport is the measured outcome of a serving-path check, returned
// even when a bound is violated so tests can log the distances.
type ServingReport struct {
	// N is the number of reports covered by the served estimate.
	N int
	// W1 and KS are the distances between Truth and Estimate.
	W1, KS float64
	// Truth is the bucketized true distribution of the sampled values at
	// the estimate's granularity; Estimate is the served reconstruction.
	Truth, Estimate []float64
}

// ServingViolation is returned when a served estimate misses a bound.
type ServingViolation struct {
	Metric string // "W1" or "KS"
	Got    float64
	Bound  float64
}

// Error formats the violation.
func (v ServingViolation) Error() string {
	return fmt.Sprintf("ldptest: served estimate %s = %.5f exceeds bound %.5f", v.Metric, v.Got, v.Bound)
}

// CheckServing samples Clients private values from sample, randomizes each
// with the configured mechanism's client (the Square Wave by default),
// ships them to the collector at baseURL over POST .../batch, polls GET
// .../estimate until the served reconstruction covers the whole population
// (tolerating 503 "first estimate pending" responses — the collector must
// never block the poll), and compares it against the bucketized truth. The
// returned report always carries the measured distances; the error is
// non-nil on transport failures or bound violations.
func CheckServing(baseURL string, sample func(*randx.Rand) float64, opts ServingOptions) (ServingReport, error) {
	opts = opts.filled()
	rng := randx.New(opts.Seed)
	client := core.NewClient(core.Config{
		Epsilon:   opts.Epsilon,
		Buckets:   opts.Buckets,
		Mechanism: opts.Mechanism,
		Bandwidth: opts.Bandwidth,
		Smoothing: true,
	})
	scalar := client.Mechanism().Scalar()

	values := make([]float64, opts.Clients)
	reports := make([]any, opts.Clients) // bare numbers or vectors, per mechanism
	for i := range values {
		values[i] = sample(rng)
		rep := client.Perturb(values[i], rng) // randomized on the "device"
		if scalar {
			reports[i] = rep[0] // the pre-mechanism scalar wire format
		} else {
			reports[i] = []float64(rep)
		}
	}

	for start := 0; start < len(reports); start += opts.BatchSize {
		end := start + opts.BatchSize
		if end > len(reports) {
			end = len(reports)
		}
		if err := postBatch(opts.HTTPClient, baseURL, opts.Stream, reports[start:end]); err != nil {
			return ServingReport{}, err
		}
	}

	est, err := pollEstimate(opts.HTTPClient, baseURL, opts.Stream, opts.Clients, opts.Timeout)
	if err != nil {
		return ServingReport{}, err
	}

	truth := histogram.FromSamples(values, len(est.Distribution)).Distribution()
	rep := ServingReport{
		N:        est.N,
		W1:       metrics.Wasserstein(truth, est.Distribution),
		KS:       metrics.KS(truth, est.Distribution),
		Truth:    truth,
		Estimate: est.Distribution,
	}
	if opts.MaxW1 > 0 && rep.W1 > opts.MaxW1 {
		return rep, ServingViolation{Metric: "W1", Got: rep.W1, Bound: opts.MaxW1}
	}
	if opts.MaxKS > 0 && rep.KS > opts.MaxKS {
		return rep, ServingViolation{Metric: "KS", Got: rep.KS, Bound: opts.MaxKS}
	}
	return rep, nil
}

// streamURL is the /v1 resource of a stream ("" = the default stream).
func streamURL(baseURL, stream string) string {
	if stream == "" {
		stream = "default"
	}
	return baseURL + "/v1/streams/" + url.PathEscape(stream)
}

func postBatch(hc *http.Client, baseURL, stream string, reports []any) error {
	blob, err := json.Marshal(map[string]any{"reports": reports})
	if err != nil {
		return err
	}
	target := streamURL(baseURL, stream) + "/batch"
	resp, err := hc.Post(target, "application/json", bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("ldptest: POST %s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("ldptest: POST %s status %d: %s", target, resp.StatusCode, body)
	}
	return nil
}

// servedEstimate is the subset of the collector's estimate response the
// checker needs.
type servedEstimate struct {
	N            int       `json:"n"`
	Distribution []float64 `json:"distribution"`
}

func pollEstimate(hc *http.Client, baseURL, stream string, wantN int, timeout time.Duration) (servedEstimate, error) {
	target := streamURL(baseURL, stream) + "/estimate"
	deadline := time.Now().Add(timeout)
	var last servedEstimate
	for {
		resp, err := hc.Get(target)
		if err != nil {
			return last, fmt.Errorf("ldptest: GET %s: %w", target, err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			err = json.NewDecoder(resp.Body).Decode(&last)
			resp.Body.Close()
			if err != nil {
				return last, fmt.Errorf("ldptest: decode estimate: %w", err)
			}
			if last.N >= wantN {
				return last, nil
			}
		case http.StatusServiceUnavailable, http.StatusConflict:
			// First estimate pending / reports still racing in — retry.
			resp.Body.Close()
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return last, fmt.Errorf("ldptest: GET %s status %d: %s", target, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			return last, fmt.Errorf("ldptest: estimate never covered %d reports within %v (last N=%d)",
				wantN, timeout, last.N)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
