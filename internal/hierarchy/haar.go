package hierarchy

import (
	"fmt"
	"math"

	"repro/internal/mechanism"
	"repro/internal/randx"
)

// HaarHRR is the discrete-Haar-transform protocol of Kulkarni et al. [18]
// over a binary tree (Section 4.2). Each internal node a at height k above
// the leaves carries the Haar coefficient
//
//	c_a = (C_l(a) − C_r(a)) / 2^{k/2}
//
// where C_l and C_r are the total leaf frequencies of its left and right
// subtrees. A user's value touches exactly one coefficient per layer, with
// sign +1 (left subtree) or −1 (right). The population is divided among the
// h layers; a user assigned the layer of height k encodes
// (coefficient index, sign) as a value in a domain of size 2·(d/2^k) and
// reports it through Hadamard randomized response (mechanism.HRR) with the
// full budget. The aggregator estimates the signed indicator frequencies,
// turns them into coefficient estimates, and reconstructs the leaf
// histogram top-down from the known total.
type HaarHRR struct {
	tree Tree
	eps  float64
}

// NewHaarHRR returns the protocol for a power-of-two domain size d.
func NewHaarHRR(d int, eps float64) *HaarHRR {
	if eps <= 0 {
		panic("hierarchy: epsilon must be positive")
	}
	return &HaarHRR{tree: NewTree(d, 2), eps: eps}
}

// Tree returns the binary tree shape.
func (hr *HaarHRR) Tree() Tree { return hr.tree }

// Epsilon returns the privacy budget.
func (hr *HaarHRR) Epsilon() float64 { return hr.eps }

// HaarEstimate holds estimated Haar coefficients per height (index k ∈
// [1, h]; coeffs[k] has d/2^k entries) plus the reconstructed node levels.
type HaarEstimate struct {
	Tree   Tree
	Coeffs [][]float64
	// levels caches the reconstruction (same layout as Estimate.Levels).
	levels [][]float64
}

// Collect runs a full HaarHRR round over private leaf values in [0, d).
func (hr *HaarHRR) Collect(values []int, rng *randx.Rand) *HaarEstimate {
	t := hr.tree
	if len(values) == 0 {
		panic("hierarchy: Collect with no users")
	}
	h := t.Height()
	d := t.D()

	// Group users by layer (height k = 1..h).
	groups := make([][]int, h+1)
	for _, v := range values {
		if v < 0 || v >= d {
			panic(fmt.Sprintf("hierarchy: value %d outside domain [0,%d)", v, d))
		}
		k := 1 + rng.IntN(h)
		groups[k] = append(groups[k], v)
	}

	coeffs := make([][]float64, h+1)
	for k := 1; k <= h; k++ {
		nodes := d >> k // number of coefficients at height k
		coeffs[k] = make([]float64, nodes)
		group := groups[k]
		if len(group) == 0 {
			continue // zero coefficients: flat prior
		}
		// Encode (index, sign): idx = v >> k; sign bit = bit k−1 of v
		// (0 ⇒ left subtree ⇒ +1).
		enc := make([]int, len(group))
		for i, v := range group {
			idx := v >> k
			signBit := (v >> (k - 1)) & 1
			enc[i] = 2*idx + signBit
		}
		oracle := mechanism.MustNew(mechanism.Params{Name: mechanism.HRR, Epsilon: hr.eps, Buckets: 2 * nodes})
		freq := mechanism.Collect(oracle, enc, rng)
		// c_a = (f_left − f_right)/2^{k/2}; the frequencies estimated on
		// the layer's sample are unbiased for the whole population since
		// layer assignment is independent of the value.
		scale := math.Pow(2, float64(k)/2)
		for idx := 0; idx < nodes; idx++ {
			coeffs[k][idx] = (freq[2*idx] - freq[2*idx+1]) / scale
		}
	}
	est := &HaarEstimate{Tree: t, Coeffs: coeffs}
	est.reconstruct()
	return est
}

// ExactCoefficients computes the true Haar coefficients of a leaf
// distribution (tests and calibration).
func ExactCoefficients(t Tree, leafDist []float64) [][]float64 {
	if t.Beta() != 2 {
		panic("hierarchy: Haar needs a binary tree")
	}
	levels := t.TrueLevels(leafDist)
	h := t.Height()
	coeffs := make([][]float64, h+1)
	for k := 1; k <= h; k++ {
		l := h - k // tree level of nodes with height k
		nodes := t.LevelSize(l)
		coeffs[k] = make([]float64, nodes)
		for i := 0; i < nodes; i++ {
			lo, _ := t.Children(i, l)
			left := levels[l+1][lo]
			right := levels[l+1][lo+1]
			coeffs[k][i] = (left - right) / math.Pow(2, float64(k)/2)
		}
	}
	return coeffs
}

// reconstruct fills in node estimates for every level from the coefficients
// and the known root total 1: for a node a of height k with count m,
// left child = (m + c_a·2^{k/2})/2 and right child = (m − c_a·2^{k/2})/2.
func (e *HaarEstimate) reconstruct() {
	t := e.Tree
	h := t.Height()
	levels := t.NewLevels()
	levels[0][0] = 1
	for l := 0; l < h; l++ {
		k := h - l // height of the parent
		scale := math.Pow(2, float64(k)/2)
		for i, m := range levels[l] {
			ca := e.Coeffs[k][i]
			lo, _ := t.Children(i, l)
			levels[l+1][lo] = (m + ca*scale) / 2
			levels[l+1][lo+1] = (m - ca*scale) / 2
		}
	}
	e.levels = levels
}

// Levels returns the reconstructed per-level node estimates.
func (e *HaarEstimate) Levels() [][]float64 { return e.levels }

// Leaves returns the reconstructed leaf estimates (a copy). The leaves are
// exactly consistent with every internal level by construction, but may be
// negative.
func (e *HaarEstimate) Leaves() []float64 {
	return append([]float64(nil), e.levels[len(e.levels)-1]...)
}

// RangeCount estimates the total frequency of leaves in [lo, hi) via the
// node decomposition (equivalent to summing leaves, since the Haar
// reconstruction is consistent, but cheaper).
func (e *HaarEstimate) RangeCount(lo, hi int) float64 {
	var acc float64
	for _, node := range e.Tree.RangeNodes(lo, hi) {
		acc += e.levels[node.Level][node.Index]
	}
	return acc
}
