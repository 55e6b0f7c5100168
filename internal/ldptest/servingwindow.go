package ldptest

// Windowed serving-path acceptance checking: CheckWindowServing drives
// synthetic client cohorts through a mock-clock-driven epoch rotation
// against a live collector and verifies that sliding-window estimates track
// each cohort's (shifting) distribution within Wasserstein/KS bounds. It is
// the time-series complement of CheckServing: where that check verifies one
// static population end to end, this one verifies that window=last:1
// follows the distribution as it drifts across epochs, and that sealed
// per-epoch estimates (window=epochs:e..e) keep answering for the cohort
// that lived in them.

import (
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

// WindowServingOptions configures one windowed serving-path check.
type WindowServingOptions struct {
	// Stream names the collector stream to drive ("" = the default
	// stream). It must be declared windowed with at least as many retained
	// epochs as there are cohorts, and must start empty in epoch 0.
	Stream string
	// Epsilon, Buckets, Bandwidth are the mechanism parameters and must
	// match the stream's server-side configuration.
	Epsilon   float64
	Buckets   int
	Bandwidth float64
	// ClientsPerEpoch is the synthetic cohort size. Defaults to 3000.
	ClientsPerEpoch int
	// BatchSize chunks the reports into POST .../batch requests. Defaults
	// to 500.
	BatchSize int
	// Seed makes every cohort deterministic. Defaults to 1.
	Seed uint64
	// MaxW1 and MaxKS bound the distance between each served window
	// estimate and its cohort's (bucketized) truth. Zero disables that
	// bound.
	MaxW1, MaxKS float64
	// Timeout bounds each wait for a fresh estimate or a rotation.
	// Defaults to 30s.
	Timeout time.Duration
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// AdvanceEpoch advances the collector's rotation clock by one epoch
	// (e.g. by moving the mock clock the server's Config.Clock reads).
	// Required. The harness then polls GET /v1/streams/{name} until the
	// rotation is observed, so the caller never sleeps.
	AdvanceEpoch func() error
}

func (o WindowServingOptions) filled() WindowServingOptions {
	if o.ClientsPerEpoch <= 0 {
		o.ClientsPerEpoch = 3000
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

// WindowServingReport is the measured outcome for one cohort's window.
type WindowServingReport struct {
	// Epoch is the epoch index the cohort lived in.
	Epoch int
	// Live is the measurement of window=last:1 taken while the cohort's
	// epoch was still live; Sealed the measurement of window=epochs:e..e
	// after every rotation finished (zero-valued for the final cohort,
	// whose epoch never seals).
	Live, Sealed ServingReport
}

// CheckWindowServing runs one cohort per epoch: sample ClientsPerEpoch
// private values from cohorts[e], randomize them on the client, ship them
// over POST .../batch, poll GET .../estimate?window=last:1 until the served
// sliding-window estimate covers the cohort, and compare it against that
// cohort's truth — then advance the clock one epoch and repeat with the
// next, shifted cohort. After the last cohort, every sealed epoch is
// re-queried with window=epochs:e..e and must still answer for its own
// cohort within the same bounds. The returned reports always carry the
// measured distances; the error is non-nil on transport failures, bound
// violations, or rotations that never happen.
func CheckWindowServing(baseURL string, cohorts []func(*randx.Rand) float64, opts WindowServingOptions) ([]WindowServingReport, error) {
	opts = opts.filled()
	if opts.AdvanceEpoch == nil {
		return nil, fmt.Errorf("ldptest: CheckWindowServing needs AdvanceEpoch")
	}
	if len(cohorts) == 0 {
		return nil, fmt.Errorf("ldptest: CheckWindowServing needs at least one cohort")
	}
	client := core.NewClient(core.Config{
		Epsilon:   opts.Epsilon,
		Buckets:   opts.Buckets,
		Bandwidth: opts.Bandwidth,
		Smoothing: true,
	})
	reports := make([]WindowServingReport, len(cohorts))
	truths := make([][]float64, len(cohorts))
	for e, sample := range cohorts {
		rng := randx.New(opts.Seed + uint64(e)*7919)
		values := make([]float64, opts.ClientsPerEpoch)
		randomized := make([]any, opts.ClientsPerEpoch)
		for i := range values {
			values[i] = sample(rng)
			randomized[i] = client.Report(values[i], rng)
		}
		for start := 0; start < len(randomized); start += opts.BatchSize {
			end := min(start+opts.BatchSize, len(randomized))
			if err := postBatch(opts.HTTPClient, baseURL, opts.Stream, randomized[start:end]); err != nil {
				return reports, err
			}
		}
		est, err := pollWindowEstimate(opts.HTTPClient, baseURL, opts.Stream, "last:1",
			opts.ClientsPerEpoch, opts.Timeout)
		if err != nil {
			return reports, fmt.Errorf("ldptest: epoch %d: %w", e, err)
		}
		truths[e] = histogram.FromSamples(values, len(est.Distribution)).Distribution()
		reports[e] = WindowServingReport{Epoch: e, Live: measure(truths[e], est)}
		if err := checkBounds(reports[e].Live, opts.MaxW1, opts.MaxKS); err != nil {
			return reports, fmt.Errorf("ldptest: live window of epoch %d: %w", e, err)
		}
		if e < len(cohorts)-1 {
			if err := opts.AdvanceEpoch(); err != nil {
				return reports, fmt.Errorf("ldptest: advance after epoch %d: %w", e, err)
			}
			if err := pollRotation(opts.HTTPClient, baseURL, opts.Stream, e+1, opts.Timeout); err != nil {
				return reports, err
			}
		}
	}
	// Sealed epochs must still answer for their own cohort.
	for e := 0; e < len(cohorts)-1; e++ {
		sel := fmt.Sprintf("epochs:%d..%d", e, e)
		est, err := pollWindowEstimate(opts.HTTPClient, baseURL, opts.Stream, sel,
			opts.ClientsPerEpoch, opts.Timeout)
		if err != nil {
			return reports, fmt.Errorf("ldptest: sealed epoch %d: %w", e, err)
		}
		reports[e].Sealed = measure(truths[e], est)
		if err := checkBounds(reports[e].Sealed, opts.MaxW1, opts.MaxKS); err != nil {
			return reports, fmt.Errorf("ldptest: sealed epoch %d: %w", e, err)
		}
	}
	return reports, nil
}

func measure(truth []float64, est servedEstimate) ServingReport {
	return ServingReport{
		N:        est.N,
		W1:       metrics.Wasserstein(truth, est.Distribution),
		KS:       metrics.KS(truth, est.Distribution),
		Truth:    truth,
		Estimate: est.Distribution,
	}
}

func checkBounds(rep ServingReport, maxW1, maxKS float64) error {
	if maxW1 > 0 && rep.W1 > maxW1 {
		return ServingViolation{Metric: "W1", Got: rep.W1, Bound: maxW1}
	}
	if maxKS > 0 && rep.KS > maxKS {
		return ServingViolation{Metric: "KS", Got: rep.KS, Bound: maxKS}
	}
	return nil
}

// pollWindowEstimate polls GET .../estimate with a window selector until
// the served estimate covers wantN reports (503/409 mean "keep polling" —
// the collector answers instead of blocking).
func pollWindowEstimate(hc *http.Client, baseURL, stream, sel string, wantN int, timeout time.Duration) (servedEstimate, error) {
	target := streamURL(baseURL, stream) + "/estimate?window=" + url.QueryEscape(sel)
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
				return last, fmt.Errorf("ldptest: decode window estimate: %w", err)
			}
			if last.N >= wantN {
				return last, nil
			}
		case http.StatusServiceUnavailable, http.StatusConflict:
			// Window estimate pending / reports still racing in — retry.
			resp.Body.Close()
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return last, fmt.Errorf("ldptest: GET %s status %d: %s", target, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			return last, fmt.Errorf("ldptest: window %s never covered %d reports within %v (last N=%d)",
				sel, wantN, timeout, last.N)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pollRotation polls GET /v1/streams/{name} until the stream's live epoch
// index reaches wantEpoch.
func pollRotation(hc *http.Client, baseURL, stream string, wantEpoch int, timeout time.Duration) error {
	target := streamURL(baseURL, stream)
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(target)
		if err != nil {
			return fmt.Errorf("ldptest: GET %s: %w", target, err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return fmt.Errorf("ldptest: GET %s status %d: %s", target, resp.StatusCode, body)
		}
		var info struct {
			Window *struct {
				CurrentEpoch int `json:"current_epoch"`
			} `json:"window"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("ldptest: decode %s: %w", target, err)
		}
		if info.Window != nil && info.Window.CurrentEpoch >= wantEpoch {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ldptest: stream %q never rotated to epoch %d within %v", stream, wantEpoch, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
