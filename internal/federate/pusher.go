package federate

// Pusher is the edge-side background loop: on a jittered interval it gathers
// the collector's stream states, freezes a delta payload through the
// Tracker, POSTs it to the root, and folds the acknowledgment back. Failures
// back off exponentially; the frozen pending payload is retried verbatim
// until acknowledged, so a flaky root never causes loss or double counting.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// The push loop's pacing: each sleep is jittered by ±pushJitter so a fleet
// of edges does not synchronize against the root, and consecutive failures
// back off exponentially from minBackoff, doubling up to maxBackoff.
const (
	pushJitter = 0.1
	minBackoff = time.Second
	maxBackoff = 5 * time.Minute
)

// PusherConfig parameterizes a Pusher.
type PusherConfig struct {
	// URL is the root collector's base URL ("http://root:8080"); the
	// pusher POSTs to URL + "/federation/push". Required.
	URL string
	// Edge identifies this edge at the root (1–64 chars of
	// [A-Za-z0-9._-]). Required, and must be stable across restarts — the
	// root's replay detection is keyed by it.
	Edge string
	// Interval is the push cadence (default 10s, jittered ±10%).
	Interval time.Duration
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Gather returns the current stream states (the collector provides
	// this). Required.
	Gather func() []StreamState
	// Persist, when set, is the write-ahead hook: it is called after a new
	// pending payload is frozen and before its first transmission
	// (typically the collector's SaveSnapshot), so a crash between send
	// and ack restores the identical bytes. If it fails, the payload is
	// discarded unsent and rebuilt on the next cycle.
	Persist func() error
	// Logf receives push-loop diagnostics (nil = silent).
	Logf func(format string, args ...any)
	// Tracer, when set, records a federation/push span per shipped payload
	// and propagates its context to the root in the traceparent header
	// (header-based: the frozen payload bytes and codecs are untouched).
	Tracer *trace.Tracer
	// TraceLinks, when set, is drained once per transmission; the returned
	// trace IDs ride the X-LDP-Trace-Link header so the root can mint link
	// markers for the edge's sampled ingest traces. Best-effort: IDs
	// drained into a failed transmission are dropped, not re-queued.
	TraceLinks func() []string
}

func (c PusherConfig) filled() (PusherConfig, error) {
	if c.URL == "" {
		return c, fmt.Errorf("federate: pusher needs a root URL")
	}
	u, err := url.Parse(c.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return c, fmt.Errorf("federate: pusher root URL %q is not an http(s) URL", c.URL)
	}
	if c.Edge == "" {
		return c, fmt.Errorf("federate: pusher needs an edge id")
	}
	if c.Gather == nil {
		return c, fmt.Errorf("federate: pusher needs a Gather hook")
	}
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// PusherStatus is a point-in-time view of the push loop for operators.
type PusherStatus struct {
	Edge        string    `json:"edge"`
	Root        string    `json:"root"`
	AckedSeq    int64     `json:"acked_seq"`
	LastAttempt time.Time `json:"last_attempt,omitzero"`
	LastSuccess time.Time `json:"last_success,omitzero"`
	LastError   string    `json:"last_error,omitempty"`
	// Failures counts consecutive failed attempts (resets on success);
	// Backoff is the exponential wait the loop applies before the next
	// attempt while Failures is non-zero (zero after a success).
	Failures int           `json:"failures,omitempty"`
	Backoff  time.Duration `json:"backoff,omitempty"`
	// Pushes and Reports count acknowledged pushes and the increments
	// they shipped.
	Pushes  uint64 `json:"pushes"`
	Reports uint64 `json:"reports"`
	// Diverged is set when the root provably holds a different history for
	// this edge than the local cursor (e.g. the root restored an older
	// snapshot); the loop stops pushing until an operator intervenes.
	Diverged bool `json:"diverged,omitempty"`
}

// Pusher ships deltas from one edge to one root. Create with NewPusher.
type Pusher struct {
	cfg     PusherConfig
	tracker *Tracker

	// attemptMu serializes whole push attempts: the background Run loop
	// and a manual PushOnce (shutdown flush, tests) must not both freeze,
	// persist and transmit the same pending payload concurrently.
	attemptMu sync.Mutex

	mu     sync.Mutex
	status PusherStatus
}

// NewPusher validates the configuration and binds it to a tracker.
func NewPusher(cfg PusherConfig, tracker *Tracker) (*Pusher, error) {
	cfg, err := cfg.filled()
	if err != nil {
		return nil, err
	}
	if tracker == nil {
		tracker = NewTracker()
	}
	return &Pusher{cfg: cfg, tracker: tracker, status: PusherStatus{Edge: cfg.Edge, Root: cfg.URL}}, nil
}

// Tracker returns the cursor the pusher folds acknowledgments into.
func (p *Pusher) Tracker() *Tracker { return p.tracker }

// Status returns a snapshot of the push loop's health.
func (p *Pusher) Status() PusherStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.status
	st.AckedSeq = p.tracker.AckedSeq()
	return st
}

// Run pushes on the jittered interval until done closes, backing off
// exponentially while the root is unreachable or rejecting. Each interval
// runs from the start of the previous attempt, so healthy attempts start
// Interval apart (back to back when one takes longer). It never returns an
// error: transient failure is this loop's normal weather, and permanent
// divergence parks the loop with Status().Diverged set.
func (p *Pusher) Run(done <-chan struct{}) {
	var spent time.Duration // how long the last attempt took
	for {
		select {
		case <-done:
			return
		case <-time.After(p.nextWait(spent)):
		}
		if p.Status().Diverged {
			return
		}
		start := time.Now()
		if _, err := p.PushOnce(); err != nil {
			p.cfg.Logf("federate: push to %s: %v", p.cfg.URL, err)
		}
		spent = time.Since(start)
	}
}

// nextWait is Run's sleep before its next attempt, the last one having
// taken spent (see pushWait).
func (p *Pusher) nextWait(spent time.Duration) time.Duration {
	return pushWait(p.cfg.Interval, p.Status().Backoff, spent, rand.Float64())
}

// pushWait is the sleep before the next push attempt, jittered by
// ±pushJitter with u uniform in [0, 1). While attempts fail it is the
// failure backoff, counted from the end of the failed attempt. Otherwise it
// is the push interval counted from the start of the last attempt: the
// interval less spent, the time that attempt took, and no sleep at all once
// the attempt took longer.
func pushWait(interval, backoff, spent time.Duration, u float64) time.Duration {
	jitter := 1 + pushJitter*(2*u-1)
	if backoff > 0 {
		return time.Duration(float64(backoff) * jitter)
	}
	return max(0, time.Duration(float64(interval)*jitter)-spent)
}

// backoffFor is the exponential failure backoff after n consecutive
// failures, from minBackoff up to maxBackoff (the shift is capped so it
// cannot overflow).
func backoffFor(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return min(minBackoff<<min(n-1, 20), maxBackoff)
}

// PushOnce performs one full push attempt: freeze (or reuse) the pending
// delta, write it ahead, transmit, and fold the acknowledgment. It returns
// (false, nil) when there was nothing to ship, (true, nil) when a payload
// was acknowledged (applied or provably duplicate), and an error when the
// attempt must be retried.
func (p *Pusher) PushOnce() (acked bool, err error) {
	p.attemptMu.Lock()
	defer p.attemptMu.Unlock()
	p.mu.Lock()
	if p.status.Diverged {
		p.mu.Unlock()
		return false, fmt.Errorf("federate: edge %q diverged from root %s; pushing is parked", p.cfg.Edge, p.cfg.URL)
	}
	p.status.LastAttempt = time.Now()
	p.mu.Unlock()

	acked, err = p.pushOnce()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.status.LastError = err.Error()
		p.status.Failures++
		p.status.Backoff = backoffFor(p.status.Failures)
		return acked, err
	}
	p.status.LastError = ""
	p.status.Failures = 0
	p.status.Backoff = 0
	if acked {
		p.status.LastSuccess = time.Now()
	}
	return acked, nil
}

func (p *Pusher) pushOnce() (acked bool, err error) {
	hadPending := p.tracker.Pending() != nil
	pending, err := p.tracker.Prepare(p.cfg.Edge, p.cfg.Gather())
	if err != nil {
		return false, err
	}
	if pending == nil {
		return false, nil
	}
	// The push span starts only once there is a payload, so idle cycles
	// leave no trace. Its context travels in the traceparent header.
	sp := p.cfg.Tracer.NewTrace("federation/push")
	sp.Attr("edge", p.cfg.Edge).Attr("seq", fmt.Sprintf("%d", pending.Seq))
	defer func() {
		if err != nil {
			sp.Fail("push_failed")
		}
		sp.End()
	}()
	if !hadPending && p.cfg.Persist != nil {
		// Write-ahead: the frozen payload must survive a crash before it
		// may travel, or a restart could rebuild a different payload under
		// the same sequence number.
		if perr := p.cfg.Persist(); perr != nil {
			p.tracker.Discard()
			return false, fmt.Errorf("federate: write-ahead persist: %w", perr)
		}
	}

	resp, err := p.transmit(pending, sp)
	if err != nil {
		return false, err
	}
	switch {
	case resp.Applied:
		if err := p.tracker.Ack(pending.Seq); err != nil {
			return false, err
		}
		p.mu.Lock()
		p.status.Pushes++
		p.status.Reports += resp.Reports
		p.mu.Unlock()
		return true, nil
	case resp.Duplicate:
		if resp.CRC == pending.CRC {
			// The root already holds exactly these bytes: fold and move on.
			return true, p.tracker.Ack(pending.Seq)
		}
		if p.tracker.Fresh() {
			// A restarted-without-state edge colliding with its own past
			// sequence numbers: adopt the root's high-water mark and ship
			// the post-restart history under fresh sequences. Exact,
			// because the pre-restart reports exist only at the root now.
			p.cfg.Logf("federate: edge %q resyncing to root seq %d (local state is fresh)", p.cfg.Edge, resp.LastSeq)
			if err := p.tracker.AdoptSeq(resp.LastSeq); err != nil {
				return false, err
			}
			return false, fmt.Errorf("federate: adopted root seq %d; delta rebuilt next cycle", resp.LastSeq)
		}
		p.park(fmt.Sprintf("root applied a different payload for seq %d (crc %s != %s)",
			pending.Seq, resp.CRC, pending.CRC))
		return false, fmt.Errorf("federate: edge %q diverged from root: seq %d applied with different payload",
			p.cfg.Edge, pending.Seq)
	case resp.Reason == ReasonSeqGap:
		if resp.LastSeq == 0 && pending.Seq > 1 {
			// The root has no memory of this edge at all (fresh root, or
			// one that lost its disk): resetting the cursor re-ships the
			// edge's entire retained history from basis zero — exact,
			// because the root holds none of it.
			p.cfg.Logf("federate: root %s has no state for edge %q; re-shipping full history", p.cfg.URL, p.cfg.Edge)
			p.tracker.Reset()
			return false, fmt.Errorf("federate: root lost edge state; full history re-shipping next cycle")
		}
		p.park(fmt.Sprintf("root high-water mark %d is behind local acked %d (root restored an older snapshot?)",
			resp.LastSeq, pending.Seq-1))
		return false, fmt.Errorf("federate: edge %q diverged: root seq %d behind local %d",
			p.cfg.Edge, resp.LastSeq, pending.Seq-1)
	default:
		reason := resp.Reason
		if reason == "" {
			reason = "rejected"
		}
		return false, fmt.Errorf("federate: root %s %s: %s", p.cfg.URL, reason, resp.Error)
	}
}

// park marks the pusher diverged; Run exits on the next cycle.
func (p *Pusher) park(why string) {
	p.cfg.Logf("federate: edge %q parked: %s", p.cfg.Edge, why)
	p.mu.Lock()
	p.status.Diverged = true
	p.status.LastError = why
	p.mu.Unlock()
}

// transmit POSTs the frozen payload and decodes the root's answer. HTTP 200
// and 409 both carry a PushResponse; anything else is a transport-level
// error to be retried.
func (p *Pusher) transmit(pending *Pending, sp *trace.Span) (PushResponse, error) {
	req, err := http.NewRequest(http.MethodPost, strings.TrimSuffix(p.cfg.URL, "/")+"/federation/push",
		bytes.NewReader(pending.Body))
	if err != nil {
		return PushResponse{}, err
	}
	// The Content-Type follows the frozen bytes: a pending payload restored
	// from an older edge's snapshot may carry the JSON envelope.
	if IsBinaryPush(pending.Body) {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Accept", "application/json")
	if sc := sp.Context(); sc.Valid() {
		req.Header.Set("traceparent", sc.Header())
	}
	if p.cfg.TraceLinks != nil {
		if links := p.cfg.TraceLinks(); len(links) > 0 {
			req.Header.Set("X-LDP-Trace-Link", strings.Join(links, ","))
		}
	}
	resp, err := p.cfg.HTTPClient.Do(req)
	if err != nil {
		return PushResponse{}, fmt.Errorf("federate: POST /federation/push: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return PushResponse{}, fmt.Errorf("federate: read push response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusConflict:
		var pr PushResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return PushResponse{}, fmt.Errorf("federate: undecodable push response (status %d): %v",
				resp.StatusCode, err)
		}
		return pr, nil
	default:
		return PushResponse{}, fmt.Errorf("federate: push status %d: %s", resp.StatusCode,
			strings.TrimSpace(string(body)))
	}
}
