// Package mechanism defines the pluggable reporting-mechanism layer of the
// serving stack: one interface covering everything the collector needs from
// an LDP mechanism — client-side randomization, server-side bucketization of
// wire reports into a fixed-size sufficient-statistic histogram, and
// reconstruction (EM/EMS through a transition channel for matrix-based
// mechanisms, direct debiased estimation for matrix-free oracles) — together
// with adapters for every mechanism the paper's evaluation compares:
//
//	sw           continuous Square Wave (the paper's contribution; default)
//	sw-discrete  bucketize-before-randomize Square Wave (Section 5.4)
//	grr          Generalized Randomized Response (Section 2.1)
//	oue          Optimized Unary Encoding (Wang et al. 2017)
//	sue          Symmetric Unary Encoding (basic RAPPOR)
//	olh          Optimized Local Hashing (Section 2.1)
//	hrr          Hadamard Randomized Response (Section 2.1)
//
// plus the paper's adaptive rule ("auto"): GRR when d−2 < 3e^ε, OLH
// otherwise — the variance comparison of Section 4.1, the same rule fo.Best
// applies in the batch code.
//
// # Wire format
//
// A wire report is a small vector of float64 components whose meaning is
// mechanism-specific: a continuous value in [−b, 1+b] for sw, an output
// bucket index for sw-discrete and grr, (seed, y) for olh, (row, ±1) for
// hrr, and the indices of the set bits for oue/sue. Scalar-report mechanisms
// (sw, sw-discrete, grr) additionally support the allocation-free BucketOf
// fast path, which is what keeps the SW ingestion hot path identical to the
// pre-mechanism code. Every component must survive a float64 round-trip —
// OLH seeds are therefore drawn from 53 bits so JSON transport is lossless.
//
// # Sufficient statistics and user counting
//
// Bucketize maps one wire report to the histogram cells it increments. For
// sw, sw-discrete, grr and hrr that is exactly one cell per report, so the
// histogram's increment total equals the user count. oue/sue and olh fan one
// report out to a variable number of support cells; they reserve one extra
// marker cell (the last one) that every report increments exactly once, so
// the user count survives aggregation. Users converts (histogram, increment
// total) back into the number of reports.
package mechanism

import (
	"fmt"
	"math"

	"repro/internal/histogram"
	"repro/internal/matrixx"
	"repro/internal/randx"
	"repro/internal/sw"
)

// Report is one wire report: a vector of float64 components whose
// interpretation is mechanism-specific (see the package comment).
type Report []float64

// Mechanism is one LDP reporting mechanism, pluggable into the whole serving
// stack. Implementations are immutable after construction and safe for
// concurrent use.
type Mechanism interface {
	// Name is the wire identifier ("sw", "grr", ...).
	Name() string
	// Epsilon is the privacy budget.
	Epsilon() float64
	// Buckets is the reconstruction granularity d: estimates are
	// distributions over d equal buckets of [0,1].
	Buckets() int
	// OutputBuckets is the report-histogram granularity d̃ — the size of
	// the sufficient statistic the collector accumulates.
	OutputBuckets() int
	// Scalar reports whether wire reports are single-component and map to
	// exactly one histogram cell (BucketOf is usable).
	Scalar() bool
	// FanOut reports whether one report increments more than one histogram
	// cell. Non-fan-out mechanisms count users by increments alone, so
	// their Users ignores the histogram (nil is accepted); fan-out ones
	// track users in a marker cell, which by convention is always the
	// LAST output cell (OutputBuckets()−1) — callers on hot paths may
	// read that single cell instead of merging the whole histogram.
	FanOut() bool
	// Perturb randomizes one private value v ∈ [0,1] (clamped) into a wire
	// report. This is the client-side half; it satisfies ε-LDP.
	Perturb(v float64, rng *randx.Rand) Report
	// BucketOf maps a single-component wire report to its histogram cell
	// without allocating. Non-scalar mechanisms return an error.
	BucketOf(report float64) (int, error)
	// Bucketize validates one wire report and appends the histogram cells
	// it increments to dst (which may be nil or a reused buffer).
	Bucketize(dst []int, rep Report) ([]int, error)
	// Users converts a histogram and its increment total into the number of
	// reports it represents (equal to increments for one-cell-per-report
	// mechanisms, the marker cell for fan-out oracles).
	Users(counts []float64, increments int) int
	// Channel returns the column-stochastic transition matrix connecting
	// input buckets to histogram cells for EM/EMS reconstruction, or nil
	// for matrix-free oracles (reconstruct with Estimate instead). The
	// channel is built lazily and cached; treat it as read-only.
	Channel() matrixx.Channel
	// Estimate returns the direct, unbiased (possibly signed) frequency
	// estimate of matrix-free oracles from the histogram; project it with
	// package postprocess before serving. Channel-based mechanisms return
	// nil.
	Estimate(counts []float64) []float64
	// EstimateInto is Estimate writing into dst when its capacity suffices
	// (allocating only otherwise), for refresh loops that re-estimate the
	// same stream repeatedly: a dst with cap ≥ len(counts) is always large
	// enough, whatever the mechanism. It returns the estimate, which may
	// alias dst. Channel-based mechanisms return nil and ignore dst.
	EstimateInto(dst, counts []float64) []float64
	// Params returns the JSON-stable configuration that rebuilds this
	// mechanism via New — the codec streams, snapshots and /config share.
	Params() Params
}

// intoBuf returns dst resliced to n entries when its capacity allows,
// allocating a fresh slice otherwise. The contents are not cleared; callers
// overwrite every entry.
func intoBuf(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// Params is the JSON-stable configuration codec of a mechanism: New(p) for
// any Params returned by Params() reconstructs an equivalent mechanism.
type Params struct {
	// Name selects the mechanism ("" means "sw"; "auto" resolves by the
	// Section 4.1 variance rule at construction).
	Name string `json:"name"`
	// Epsilon is the LDP budget. Required.
	Epsilon float64 `json:"epsilon"`
	// Buckets is the reconstruction granularity d. Required.
	Buckets int `json:"buckets"`
	// OutputBuckets overrides the report-histogram granularity d̃ of the
	// continuous sw mechanism only (the paper sets d̃ = d); other
	// mechanisms derive their output size and reject an override.
	OutputBuckets int `json:"output_buckets,omitempty"`
	// Bandwidth is the wave half-width for the sw family as a fraction of
	// the domain: the continuous half-width b for sw, ⌊Bandwidth·d⌋ report
	// buckets for sw-discrete. 0 selects the mutual-information optimum
	// BOpt(ε). Ignored by the categorical oracles.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// PlateauRatio and ExplicitShape request a General Wave shape from the
	// sw mechanism exactly as core.Config does: with ExplicitShape false
	// the plateau ratio is 1 (the Square Wave); with it true PlateauRatio
	// is used as-is (0 = triangle).
	PlateauRatio  float64 `json:"plateau_ratio,omitempty"`
	ExplicitShape bool    `json:"explicit_shape,omitempty"`
}

// MaxBuckets caps a declared reconstruction granularity d. Declaring a
// stream costs time and memory linear in d — its channel, report histogram
// and per-stripe counters — so the cap bounds what one declaration (an
// unauthenticated POST, a flag, a snapshot record) can make the collector
// allocate.
const MaxBuckets = 1 << 16

// Canonical mechanism names.
const (
	SW         = "sw"
	SWDiscrete = "sw-discrete"
	GRR        = "grr"
	OUE        = "oue"
	SUE        = "sue"
	OLH        = "olh"
	HRR        = "hrr"
	// AutoName is the selector resolved by Auto at construction; no
	// Mechanism ever reports it as its Name.
	AutoName = "auto"
)

// Names returns the canonical mechanism names (excluding "auto").
func Names() []string {
	return []string{SW, SWDiscrete, GRR, OUE, SUE, OLH, HRR}
}

// Auto returns the lower-variance categorical oracle for domain size d at
// budget eps: GRR when d−2 < 3e^ε (equation 1 vs. the OLH variance),
// otherwise OLH — the selection rule of Section 4.1.
func Auto(eps float64, d int) string {
	if float64(d)-2 < 3*math.Exp(eps) {
		return GRR
	}
	return OLH
}

// Resolve canonicalizes a mechanism name: "" becomes "sw", "auto" resolves
// through Auto(eps, d), and anything unknown is an error.
func Resolve(name string, eps float64, d int) (string, error) {
	switch name {
	case "":
		return SW, nil
	case AutoName:
		return Auto(eps, d), nil
	case SW, SWDiscrete, GRR, OUE, SUE, OLH, HRR:
		return name, nil
	default:
		return "", fmt.Errorf("mechanism: unknown mechanism %q (want one of %v, or auto)", name, Names())
	}
}

// Valid reports whether name is usable in a stream declaration ("" and
// "auto" included).
func Valid(name string) bool {
	switch name {
	case "", AutoName, SW, SWDiscrete, GRR, OUE, SUE, OLH, HRR:
		return true
	}
	return false
}

// EffectiveBandwidth resolves a declared wave half-width the way the sw
// family's constructors do: 0 means the mutual-information optimum BOpt(ε),
// and mechanisms outside the sw family have no bandwidth. Stream
// compatibility is judged on this value, so "declare the default" and
// "declare the optimum explicitly" are the same configuration. eps must be
// positive.
func EffectiveBandwidth(name string, eps, bandwidth float64) float64 {
	if name != SW && name != SWDiscrete {
		return 0
	}
	if bandwidth != 0 {
		return bandwidth
	}
	return sw.BOpt(eps)
}

func (p Params) check() error {
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("mechanism: epsilon %v must be positive and finite", p.Epsilon)
	}
	if p.Buckets < 2 {
		return fmt.Errorf("mechanism: need at least 2 buckets, got %d", p.Buckets)
	}
	if p.Bandwidth < 0 || p.Bandwidth > 2 {
		return fmt.Errorf("mechanism: bandwidth %v out of range [0, 2]", p.Bandwidth)
	}
	return nil
}

// New builds a mechanism from its configuration. The name is resolved
// through Resolve, so "" and "auto" are accepted.
func New(p Params) (Mechanism, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	name, err := Resolve(p.Name, p.Epsilon, p.Buckets)
	if err != nil {
		return nil, err
	}
	p.Name = name
	if name != SW && p.OutputBuckets != 0 && p.OutputBuckets != p.Buckets {
		return nil, fmt.Errorf("mechanism: %s derives its output granularity; OutputBuckets only applies to sw", name)
	}
	switch name {
	case SW:
		return newSW(p), nil
	case SWDiscrete:
		return newDiscreteSW(p), nil
	case GRR:
		return newGRR(p), nil
	case OUE:
		return newUnary(p, false), nil
	case SUE:
		return newUnary(p, true), nil
	case OLH:
		return newOLH(p), nil
	case HRR:
		return newHRR(p), nil
	}
	panic("unreachable")
}

// MustNew is New for configurations the caller has already validated; it
// panics on error (the contract core.Config has always had).
func MustNew(p Params) Mechanism {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// discretize maps v ∈ [0,1] (clamped) to its input bucket in {0..d−1}, the
// shared client-side bucketization of every discrete-domain mechanism —
// the batch estimators' rule, delegated so the two can never diverge.
func discretize(v float64, d int) int {
	return histogram.BucketOf(v, d)
}

// intComponent validates one wire component as an exact integer in [0, n).
func intComponent(c float64, n int, what string) (int, error) {
	if c != math.Trunc(c) || math.IsNaN(c) || c < 0 || c >= float64(n) {
		return 0, fmt.Errorf("mechanism: %s %v outside {0..%d}", what, c, n-1)
	}
	return int(c), nil
}

// errNotScalar is the shared BucketOf error of fan-out mechanisms.
func errNotScalar(name string) error {
	return fmt.Errorf("mechanism: %s reports are not scalar; use Bucketize", name)
}
