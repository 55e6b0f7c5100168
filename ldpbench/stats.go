package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/ldphttp"
	"repro/internal/wire"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples, a p50 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs, sorting xs in place,
// and whether the sample supports it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := max(int(math.Ceil(q*float64(len(xs)))), 1)
	if len(xs)-rank < minTail {
		return 0, false
	}
	return xs[rank-1], true
}

// median returns the median of xs without reordering it (0 when empty).
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// samples collects timestamped observations from many goroutines.
type samples struct {
	mu sync.Mutex
	at []time.Time
	xs []float64
}

func (s *samples) add(at time.Time, x float64) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

// values returns a copy of the observations.
func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// within returns the observations made in [from, to).
func (s *samples) within(from, to time.Time) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for i, t := range s.at {
		if !t.Before(from) && t.Before(to) {
			out = append(out, s.xs[i])
		}
	}
	return out
}

func msBetween(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}

// freshness measures, per stream at the node being read, the time from an
// acknowledgement to the first observed estimate covering every report
// acknowledged by then. Acks from every edge feeding a stream add to one
// cumulative count, so at a federation root coverage is judged against the
// sum over edges. An estimate covers an ack when its report count reaches
// the cumulative count the ack brought the stream to; the windowed workload
// keeps every epoch for the whole run (check refuses a run where one aged
// out), so the served count never drops below what was acknowledged.
type freshness struct {
	mu      sync.Mutex
	streams map[string]*ackLog
	ms      samples // by acknowledgement time
}

type ackLog struct {
	acked   int64
	pending []ackMark // oldest first
}

type ackMark struct {
	at  time.Time
	cum int64
}

func newFreshness() *freshness { return &freshness{streams: map[string]*ackLog{}} }

// ack records n reports of stream acknowledged at time at.
func (f *freshness) ack(stream string, n int, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.streams[stream]
	if l == nil {
		l = new(ackLog)
		f.streams[stream] = l
	}
	l.acked += int64(n)
	l.pending = append(l.pending, ackMark{at: at, cum: l.acked})
}

// observe records that at time at the served estimate of stream covered
// covered reports. Each pending ack it covers yields one sample; an ack
// recorded after at waits for a later observation.
func (f *freshness) observe(stream string, covered int64, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.streams[stream]
	if l == nil {
		return
	}
	i := 0
	for ; i < len(l.pending) && l.pending[i].cum <= covered && !l.pending[i].at.After(at); i++ {
		f.ms.add(l.pending[i].at, msBetween(l.pending[i].at, at))
	}
	l.pending = l.pending[i:]
}

// pending is the number of acks no observed estimate has covered yet.
func (f *freshness) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, l := range f.streams {
		n += len(l.pending)
	}
	return n
}

// values returns the freshness samples in milliseconds.
func (f *freshness) values() []float64 { return f.ms.values() }

// openLoop sends items 0..n-1 on an open-loop schedule: item i is due at
// due(i) whether or not earlier sends have returned. It wakes at most once
// per tick, sends every item already due, and reports how late the first,
// most overdue item of each burst was. A send that blocks delays the items
// behind it, which then go late; none is skipped, so a stalled system shows
// as lateness instead of as a lower offered rate.
func openLoop(n int, due func(int) time.Time, tick time.Duration, send func(int) error, late func(time.Duration)) error {
	if n == 0 {
		return nil
	}
	wake := due(0)
	for i := 0; i < n; {
		time.Sleep(time.Until(wake))
		now := time.Now()
		if due(i).After(now) {
			wake = due(i)
			continue
		}
		late(now.Sub(due(i)))
		for ; i < n && !due(i).After(now); i++ {
			if err := send(i); err != nil {
				return err
			}
		}
		wake = now.Add(tick)
		if i < n && due(i).After(wake) {
			wake = due(i)
		}
	}
	return nil
}

// readOutcome classifies one read.
type readOutcome int

const (
	readAnswered readOutcome = iota // 200 with an estimate or query answer
	readPending                     // answered, but no estimate to serve yet
	readFailed
)

// classifyRead maps a read's HTTP outcome to its class. A 503
// estimate_pending (the first reconstruction is still running) and a 409
// no_reports (nothing ingested yet) are answered reads, not failures.
func classifyRead(status int, code string, err error) readOutcome {
	switch {
	case err != nil:
		return readFailed
	case status == http.StatusOK:
		return readAnswered
	case status == http.StatusServiceUnavailable && code == ldphttp.CodeEstimatePending,
		status == http.StatusConflict && code == ldphttp.CodeNoReports:
		return readPending
	}
	return readFailed
}

// countReports reads the report count of a batch body as the collector will
// see it: the count field of a binary frame, or the number of elements of
// the "reports" array of a JSON body.
func countReports(body []byte, binaryFrame bool) (int, error) {
	if binaryFrame {
		// "LDPR", one version byte, then the uvarint count.
		if !wire.IsReports(body) || len(body) < 6 {
			return 0, errors.New("batch body is not a binary report frame")
		}
		n, k := binary.Uvarint(body[5:])
		if k <= 0 {
			return 0, errors.New("binary report frame has a malformed count")
		}
		return int(n), nil
	}
	const field = `"reports":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0, errors.New("JSON batch body has no reports field")
	}
	depth, n, seen := 0, 0, false
	for _, c := range body[i+len(field):] {
		switch c {
		case '[', '{':
			if depth == 1 {
				seen = true
			}
			depth++
		case ']', '}':
			depth--
			if depth == 0 {
				if seen {
					n++
				}
				return n, nil
			}
		case ',':
			if depth == 1 {
				n++
			}
		case ' ', '\t', '\n', '\r':
		default:
			if depth == 0 {
				return 0, errors.New("JSON batch reports field is not an array")
			}
			if depth == 1 {
				seen = true
			}
		}
	}
	return 0, errors.New("JSON batch body is truncated")
}

// checkDistribution verifies a served estimate is a distribution over d
// buckets: every entry finite and non-negative, the entries summing to 1.
func checkDistribution(p []float64, d int) error {
	if len(p) != d {
		return fmt.Errorf("estimate has %d buckets, want %d", len(p), d)
	}
	sum := 0.0
	for i, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("estimate bucket %d is %v", i, x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("estimate sums to %v, not 1", sum)
	}
	return nil
}

// checkFinal verifies a final served estimate: it covers exactly the
// acknowledged reports and is a distribution over d buckets.
func checkFinal(est *ldphttp.EstimateResponse, acked int64, d int) error {
	if int64(est.N) != acked {
		return fmt.Errorf("covers %d reports, want %d", est.N, acked)
	}
	return checkDistribution(est.Distribution, d)
}

// rusage reads the process's resource usage; it fails only on a bad
// pointer, which a bug alone can produce.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }
