// Package sw implements the paper's primary reporting mechanism: the Square
// Wave (SW) mechanism of Section 5, together with the General Wave (GW)
// family it is the optimal member of (trapezoid and triangle shapes, used in
// the Section 6.4 ablation), the mutual-information-based choice of the
// bandwidth parameter b (Section 5.3), the discrete bucketize-before-
// randomize variant (Section 5.4) and the analytic construction of the
// transition matrix the EM/EMS reconstruction consumes (Section 5.5).
//
// A wave mechanism maps a private value v ∈ [0,1] to a report ṽ ∈ [−b, 1+b]
// drawn from a density that equals a high plateau near v and a low floor q
// elsewhere, with plateau/floor ratio e^ε so the report satisfies ε-LDP.
package sw

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/matrixx"
	"repro/internal/randx"
)

// BOpt returns the bandwidth b that maximizes the upper bound of the mutual
// information between input and output of the Square Wave mechanism
// (Section 5.3):
//
//	b = (ε·e^ε − e^ε + 1) / (2e^ε(e^ε − 1 − ε))
//
// BOpt is non-increasing in ε, tends to 1/2 as ε → 0 and to 0 as ε → ∞.
func BOpt(eps float64) float64 {
	if eps <= 0 || math.IsNaN(eps) {
		panic("sw: BOpt needs a positive epsilon")
	}
	if eps < 1e-4 {
		return 0.5 // analytic limit; the closed form is 0/0 here
	}
	ee := math.Exp(eps)
	return (eps*ee - ee + 1) / (2 * ee * (ee - 1 - eps))
}

// MutualInfoUpperBound returns the upper bound of the mutual information
// I(V, Ṽ) of the Square Wave mechanism with bandwidth b at budget eps
// (equation in Section 5.3); BOpt maximizes this quantity in b.
func MutualInfoUpperBound(b, eps float64) float64 {
	ee := math.Exp(eps)
	return math.Log((2*b+1)/(2*b*ee+1)) + 2*b*eps*ee/(2*b*ee+1)
}

// Wave is a General Wave reporting mechanism over input domain [0,1] and
// output domain [−b, 1+b]. The wave profile is a symmetric trapezoid of
// half-width b whose plateau half-width is ρ·b: ρ = 1 is the Square Wave,
// ρ = 0 the triangle wave, and intermediate values are the trapezoid shapes
// of the Section 6.4 ablation. The plateau height is e^ε·q (maximal, which
// Lemma 5.5 shows is required for optimality within a shape class) and q is
// pinned by total probability:
//
//	q = 1 / (1 + 2b + (e^ε − 1)·b·(1+ρ))
type Wave struct {
	eps float64
	b   float64
	rho float64
	p   float64 // plateau density = e^ε·q
	q   float64 // floor density
}

// NewSquare returns the Square Wave mechanism with the mutual-information
// optimal bandwidth BOpt(eps).
func NewSquare(eps float64) Wave { return NewSquareWithB(eps, BOpt(eps)) }

// NewSquareWithB returns the Square Wave mechanism with an explicit
// bandwidth (used by the Figure 6 sweep).
func NewSquareWithB(eps, b float64) Wave { return NewWave(eps, b, 1) }

// NewWave returns a General Wave mechanism with plateau ratio rho ∈ [0,1].
func NewWave(eps, b, rho float64) Wave {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		panic(fmt.Sprintf("sw: epsilon %v must be positive and finite", eps))
	}
	if b <= 0 || b > 2 {
		panic(fmt.Sprintf("sw: bandwidth %v out of range (0, 2]", b))
	}
	if rho < 0 || rho > 1 {
		panic(fmt.Sprintf("sw: plateau ratio %v out of [0,1]", rho))
	}
	ee := math.Exp(eps)
	q := 1 / (1 + 2*b + (ee-1)*b*(1+rho))
	return Wave{eps: eps, b: b, rho: rho, p: ee * q, q: q}
}

// Epsilon returns the privacy budget.
func (w Wave) Epsilon() float64 { return w.eps }

// B returns the wave half-width.
func (w Wave) B() float64 { return w.b }

// Rho returns the plateau ratio (1 for square, 0 for triangle).
func (w Wave) Rho() float64 { return w.rho }

// P returns the plateau density.
func (w Wave) P() float64 { return w.p }

// Q returns the floor density.
func (w Wave) Q() float64 { return w.q }

// OutLo and OutHi delimit the output domain D̃ = [−b, 1+b].
func (w Wave) OutLo() float64 { return -w.b }

// OutHi returns the upper end of the output domain.
func (w Wave) OutHi() float64 { return 1 + w.b }

// Density returns the output probability density M_v(ṽ) = W(ṽ − v) for a
// user with private value v. It is 0 outside [−b, 1+b], q for |ṽ−v| ≥ b,
// e^ε·q on the plateau |ṽ−v| ≤ ρb, and linear on the ramps between.
func (w Wave) Density(v, vt float64) float64 {
	if v < 0 || v > 1 {
		panic(fmt.Sprintf("sw: input %v outside [0,1]", v))
	}
	if vt < w.OutLo() || vt > w.OutHi() {
		return 0
	}
	z := math.Abs(vt - v)
	switch {
	case z >= w.b:
		return w.q
	case z <= w.rho*w.b:
		return w.p
	default:
		// Linear ramp from p at ρb down to q at b.
		return w.q + (w.p-w.q)*(w.b-z)/(w.b-w.rho*w.b)
	}
}

// bandCDF returns F(z) = ∫_{−b}^{z} W(t) dt for z ∈ [−b, b], the cumulative
// in-band mass of the wave profile. F(b) = 1 − q by the GW normalization.
func (w Wave) bandCDF(z float64) float64 {
	b, rb := w.b, w.rho*w.b
	z = mathx.Clamp(z, -b, b)
	if w.rho >= 1 {
		return w.p * (z + b)
	}
	c := (w.p - w.q) / (b - rb) // ramp slope
	switch {
	case z <= -rb:
		t := z + b
		return w.q*t + c*t*t/2
	case z <= rb:
		t := b - rb
		return w.q*t + c*t*t/2 + w.p*(z+rb)
	default:
		fAtRb := w.q*(b-rb) + c*(b-rb)*(b-rb)/2 + w.p*2*rb
		t := z - rb
		return fAtRb + w.q*t + c*(b*t-(z*z-rb*rb)/2)
	}
}

// BandMass returns ∫ over [lo,hi] ∩ [v−b, v+b] of the density M_v, the
// probability that the report lands in [lo, hi] through the in-band part of
// the wave.
func (w Wave) BandMass(v, lo, hi float64) float64 {
	z1 := mathx.Clamp(lo-v, -w.b, w.b)
	z2 := mathx.Clamp(hi-v, -w.b, w.b)
	if z2 <= z1 {
		return 0
	}
	return w.bandCDF(z2) - w.bandCDF(z1)
}

// CellMass returns the probability that a report from value v lands in the
// output interval [lo, hi] ⊆ [−b, 1+b]: the floor contribution q·|cell∖band|
// plus the in-band mass.
func (w Wave) CellMass(v, lo, hi float64) float64 {
	lo = math.Max(lo, w.OutLo())
	hi = math.Min(hi, w.OutHi())
	if hi <= lo {
		return 0
	}
	band := mathx.IntervalOverlap(lo, hi, v-w.b, v+w.b)
	return w.q*((hi-lo)-band) + w.BandMass(v, lo, hi)
}

// Sample draws one report ṽ ∈ [−b, 1+b] for the private value v ∈ [0,1].
func (w Wave) Sample(v float64, rng *randx.Rand) float64 {
	if v < 0 || v > 1 {
		panic(fmt.Sprintf("sw: input %v outside [0,1]", v))
	}
	// With probability q the report is uniform over the out-of-band region
	// [−b, v−b) ∪ (v+b, 1+b], which always has total length exactly 1.
	if rng.Bernoulli(w.q) {
		s := rng.Float64()
		if s < v {
			return -w.b + s
		}
		return v + w.b + (s - v)
	}
	// Otherwise sample z from the in-band profile, decomposed into a
	// uniform floor (mass 2b·q), a plateau bump (mass 2ρb·(p−q)) and two
	// linear ramps (mass (p−q)(b−ρb)/2 each).
	b, rb := w.b, w.rho*w.b
	floor := 2 * b * w.q
	plateau := 2 * rb * (w.p - w.q)
	ramp := (w.p - w.q) * (b - rb) / 2
	total := floor + plateau + 2*ramp // equals 1−q by construction
	r := rng.Float64() * total
	var z float64
	switch {
	case r < floor:
		z = rng.Uniform(-b, b)
	case r < floor+plateau:
		z = rng.Uniform(-rb, rb)
	default:
		// Ramp: density decreases linearly from the plateau edge to the
		// band edge, so |z| = rb + (b−rb)·(1−√u); mirror for the left.
		u := rng.Float64()
		z = rb + (b-rb)*(1-math.Sqrt(u))
		if rng.Bernoulli(0.5) {
			z = -z
		}
	}
	return mathx.Clamp(v+z, w.OutLo(), w.OutHi())
}

// TransitionMatrix returns the dt×d column-stochastic matrix M with
// M[j][i] = Pr[report ∈ output bucket j | value uniform in input bucket i].
// The input domain [0,1] is split into d equal buckets and the output domain
// [−b, 1+b] into dt equal buckets.
//
// For the Square Wave (ρ = 1) the average over the input bucket is computed
// in closed form via the band/rectangle overlap integral; other shapes use
// midpoint quadrature over the input bucket (the integrand is piecewise
// smooth, so 32 points give ~1e-6 accuracy). Columns are normalized to kill
// residual quadrature error.
func (w Wave) TransitionMatrix(d, dt int) *matrixx.Matrix {
	if d < 1 || dt < 1 {
		panic("sw: TransitionMatrix needs positive bucket counts")
	}
	m := matrixx.New(dt, d)
	outW := (1 + 2*w.b) / float64(dt)
	inW := 1 / float64(d)
	const quadPoints = 32
	for i := 0; i < d; i++ {
		vlo := float64(i) * inW
		vhi := vlo + inW
		for j := 0; j < dt; j++ {
			ulo := w.OutLo() + float64(j)*outW
			uhi := ulo + outW
			var mass float64
			if w.rho >= 1 {
				// Exact: q·|cell| + (p−q)·avg band overlap.
				overlap := mathx.BandRectOverlapIntegral(vlo, vhi, ulo, uhi, w.b) / inW
				mass = w.q*outW + (w.p-w.q)*overlap
			} else {
				for k := 0; k < quadPoints; k++ {
					v := vlo + (float64(k)+0.5)*inW/quadPoints
					mass += w.CellMass(v, ulo, uhi)
				}
				mass /= quadPoints
			}
			m.Set(j, i, mass)
		}
	}
	m.NormalizeCols()
	return m
}

// Channel returns the channel TransitionMatrix(d, dt) describes, built in
// O(d + dt) for the Square Wave: a matrixx.Plateau whose cells are the
// floor q·outW, the full plateau (p−q)·outW above it, or one of the few
// cells a ramp of the band crosses — only those are integrated, with the
// same overlap integral as TransitionMatrix — and whose columns are
// normalized by their closed-form sums. When the output cells are at least
// as wide as the input buckets (dt ≤ d·(1+2b), so always for dt = d) each
// ramp crosses at most two cells. Other wave shapes (ρ < 1) get the dense
// quadrature matrix.
func (w Wave) Channel(d, dt int) matrixx.Channel {
	if w.rho < 1 {
		return w.TransitionMatrix(d, dt)
	}
	if d < 1 || dt < 1 {
		panic("sw: Channel needs positive bucket counts")
	}
	outW := (1 + 2*w.b) / float64(dt)
	inW := 1 / float64(d)
	b, outLo, excess := w.b, w.OutLo(), w.p-w.q
	ch := matrixx.NewPlateau(dt, d, w.q*outW, excess*outW)
	var left, right [2]float64
	// Column i's cells below lo or from hi on miss the band [v−b, v+b] for
	// every v in the bucket; cells in [a, max(a, c)) lie inside it for every
	// v; the rest meet a ramp and are integrated as in TransitionMatrix. Each
	// bound is the first cell whose lower edge (upper edge, for lo and c)
	// passes a threshold, or dt when none does. The thresholds never
	// decrease with i, so each bound walks on from the previous column's.
	lower := func(j int) float64 { return outLo + float64(j)*outW } // as TransitionMatrix
	edges := func(e []float64, vlo, vhi float64, from, to int) []float64 {
		for j := from; j < to; j++ {
			e = append(e, excess*(mathx.BandRectOverlapIntegral(vlo, vhi, lower(j), lower(j)+outW, b)/inW))
		}
		return e
	}
	var lo, a, c, hi int
	for i := 0; i < d; i++ {
		vlo := float64(i) * inW
		vhi := vlo + inW
		for lo < dt && lower(lo)+outW <= vlo-b {
			lo++
		}
		for a < dt && lower(a) < vhi-b {
			a++
		}
		for c < dt && lower(c)+outW <= vlo+b {
			c++
		}
		for hi < dt && lower(hi) < vhi+b {
			hi++
		}
		run := max(a, c)
		ch.AddColumn(a, run, edges(left[:0], vlo, vhi, lo, a), edges(right[:0], vlo, vhi, run, hi))
	}
	ch.NormalizeCols()
	return ch
}

// Collect runs a full collection round: every value in values (each in
// [0,1]) is perturbed and the reports are bucketized into dt output buckets,
// returning the report counts n_j that the EM reconstruction consumes.
func (w Wave) Collect(values []float64, dt int, rng *randx.Rand) []float64 {
	counts := make([]float64, dt)
	span := 1 + 2*w.b
	for _, v := range values {
		vt := w.Sample(mathx.Clamp(v, 0, 1), rng)
		j := int((vt - w.OutLo()) / span * float64(dt))
		counts[mathx.ClampInt(j, 0, dt-1)]++
	}
	return counts
}

// ---------------------------------------------------------------------------
// Discrete (bucketize-before-randomize) Square Wave, Section 5.4
// ---------------------------------------------------------------------------

// Discrete is the Square Wave mechanism over an already-discrete input
// domain {0..d−1}, with integer half-width b buckets and output domain
// {0..d+2b−1} (input value v is centered at output index v+b):
//
//	Pr[out = j | v] = p  if |j − (v+b)| ≤ b,   q otherwise,
//	p = e^ε / ((2b+1)e^ε + d − 1),   q = 1 / ((2b+1)e^ε + d − 1).
type Discrete struct {
	d   int
	b   int
	eps float64
	p   float64
	q   float64
}

// NewDiscrete returns the discrete SW with b = ⌊BOpt(eps)·d⌋ (Section 5.4).
func NewDiscrete(d int, eps float64) Discrete {
	return NewDiscreteWithB(d, eps, int(math.Floor(BOpt(eps)*float64(d))))
}

// NewDiscreteWithB returns the discrete SW with an explicit integer
// half-width b ≥ 0.
func NewDiscreteWithB(d int, eps float64, b int) Discrete {
	if d < 2 {
		panic("sw: discrete domain must have at least 2 values")
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		panic("sw: epsilon must be positive and finite")
	}
	if b < 0 {
		panic("sw: negative bandwidth")
	}
	ee := math.Exp(eps)
	width := float64(2*b + 1)
	q := 1 / (width*ee + float64(d) - 1)
	return Discrete{d: d, b: b, eps: eps, p: ee * q, q: q}
}

// D returns the input domain size.
func (s Discrete) D() int { return s.d }

// B returns the integer half-width.
func (s Discrete) B() int { return s.b }

// Dt returns the output domain size d + 2b.
func (s Discrete) Dt() int { return s.d + 2*s.b }

// Epsilon returns the privacy budget.
func (s Discrete) Epsilon() float64 { return s.eps }

// P returns the near-set probability.
func (s Discrete) P() float64 { return s.p }

// Q returns the far-set probability.
func (s Discrete) Q() float64 { return s.q }

// Perturb randomizes one discrete value v ∈ [0, d) into an output index in
// [0, d+2b).
func (s Discrete) Perturb(v int, rng *randx.Rand) int {
	if v < 0 || v >= s.d {
		panic(fmt.Sprintf("sw: discrete value %d outside domain [0,%d)", v, s.d))
	}
	near := 2*s.b + 1
	center := v + s.b
	pNear := float64(near) * s.p
	if rng.Bernoulli(pNear) {
		return center - s.b + rng.IntN(near)
	}
	// Uniform over the d−1 far outputs.
	far := rng.IntN(s.Dt() - near)
	if far >= center-s.b {
		far += near
	}
	return far
}

// TransitionMatrix returns the (d+2b)×d column-stochastic matrix of the
// discrete mechanism.
func (s Discrete) TransitionMatrix() *matrixx.Matrix {
	m := matrixx.New(s.Dt(), s.d)
	for i := 0; i < s.d; i++ {
		center := i + s.b
		for j := 0; j < s.Dt(); j++ {
			if abs(j-center) <= s.b {
				m.Set(j, i, s.p)
			} else {
				m.Set(j, i, s.q)
			}
		}
	}
	return m
}

// Channel returns TransitionMatrix as a matrixx.Plateau built in O(d): floor
// q and plateau excess p−q on the 2b+1 outputs centred on each input.
func (s Discrete) Channel() *matrixx.Plateau {
	ch := matrixx.NewPlateau(s.Dt(), s.d, s.q, s.p-s.q)
	for i := 0; i < s.d; i++ {
		ch.AddColumn(i, i+2*s.b+1, nil, nil)
	}
	return ch
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
