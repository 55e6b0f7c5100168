package hierarchy

import (
	"fmt"

	"repro/internal/mechanism"
	"repro/internal/randx"
)

// HH is the LDP Hierarchical Histogram protocol (Section 4.2). The user
// population is divided uniformly among the h non-root levels; a user
// assigned level ℓ reports the index of their value's ancestor at that level
// through a categorical frequency oracle over the β^ℓ nodes (GRR or OLH,
// whichever has lower variance at that domain size — mechanism.Auto; the
// full budget ε is spent on the single report, which is the right
// trade-off in the local setting).
type HH struct {
	tree Tree
	eps  float64
}

// NewHH returns the protocol for domain size d (a power of beta) at budget
// eps. The paper (following [18, 33]) uses beta = 4.
func NewHH(d, beta int, eps float64) *HH {
	if eps <= 0 {
		panic("hierarchy: epsilon must be positive")
	}
	return &HH{tree: NewTree(d, beta), eps: eps}
}

// Tree returns the tree shape.
func (h *HH) Tree() Tree { return h.tree }

// Epsilon returns the privacy budget.
func (h *HH) Epsilon() float64 { return h.eps }

// Estimate holds per-level frequency estimates of a hierarchy protocol. The
// root (level 0) is 1 by construction: LDP hides report contents, not
// participation, so the total population is public (Section 4.3).
type Estimate struct {
	Tree   Tree
	Levels [][]float64
}

// Collect runs the full HH round over the private leaf values and returns
// raw (pre-consistency) per-level estimates. Estimates are unbiased but
// noisy and may be negative.
func (h *HH) Collect(values []int, rng *randx.Rand) *Estimate {
	t := h.tree
	n := len(values)
	if n == 0 {
		panic("hierarchy: Collect with no users")
	}
	// Partition users uniformly among levels 1..h.
	groups := make([][]int, t.Height()+1)
	for _, v := range values {
		if v < 0 || v >= t.D() {
			panic(fmt.Sprintf("hierarchy: value %d outside domain [0,%d)", v, t.D()))
		}
		l := 1 + rng.IntN(t.Height())
		groups[l] = append(groups[l], v)
	}

	levels := t.NewLevels()
	levels[0][0] = 1
	for l := 1; l <= t.Height(); l++ {
		size := t.LevelSize(l)
		group := groups[l]
		if len(group) == 0 {
			// Degenerate tiny-population case: fall back to uniform.
			for i := range levels[l] {
				levels[l][i] = 1 / float64(size)
			}
			continue
		}
		reports := make([]int, len(group))
		for i, v := range group {
			reports[i] = t.Ancestor(v, l)
		}
		levels[l] = mechanism.Collect(autoOracle(h.eps, size), reports, rng)
	}
	return &Estimate{Tree: t, Levels: levels}
}

// autoOracle builds the lower-variance categorical oracle over k values at
// budget eps (the Section 4.1 rule).
func autoOracle(eps float64, k int) mechanism.Mechanism {
	return mechanism.MustNew(mechanism.Params{Name: mechanism.AutoName, Epsilon: eps, Buckets: k})
}

// Leaves returns the leaf-level estimates (a copy).
func (e *Estimate) Leaves() []float64 {
	leaves := e.Levels[len(e.Levels)-1]
	return append([]float64(nil), leaves...)
}

// RangeCount estimates the total frequency of leaves in [lo, hi) using the
// minimal node decomposition, which touches O(β·h) estimates.
func (e *Estimate) RangeCount(lo, hi int) float64 {
	var acc float64
	for _, node := range e.Tree.RangeNodes(lo, hi) {
		acc += e.Levels[node.Level][node.Index]
	}
	return acc
}

// ConstrainedInference returns a new estimate whose levels are the exact L2
// projection of e onto the consistency subspace {parent = Σ children},
// computed with Hay et al.'s two-pass algorithm: a bottom-up weighted
// average of each node's own estimate with the sum of its children, followed
// by a top-down redistribution of the remaining parent/child mismatch.
//
// For a complete β-ary tree with equal per-node variance the two passes are
// exactly the least-squares (orthogonal) projection, which is why package
// admm reuses this as its Π_C operator.
func (e *Estimate) ConstrainedInference() *Estimate {
	t := e.Tree
	t.CheckLevels(e.Levels)
	h := t.Height()
	beta := float64(t.Beta())

	// Bottom-up pass: z_v = w·x̃_v + (1−w)·Σ z_children with
	// w = (β^{k+1} − β^k)/(β^{k+1} − 1) for a node k levels above the
	// leaves (Hay et al. count leaves as height 1, hence the +1). For a
	// node directly above the leaves this is β/(β+1): its own estimate has
	// variance σ² while the sum of its β children has βσ², so the inverse-
	// variance weights are β:1.
	z := make([][]float64, h+1)
	z[h] = append([]float64(nil), e.Levels[h]...)
	powBeta := func(k int) float64 {
		p := 1.0
		for i := 0; i < k; i++ {
			p *= beta
		}
		return p
	}
	for l := h - 1; l >= 0; l-- {
		k := h - l // levels above the leaves
		bk, bk1 := powBeta(k+1), powBeta(k)
		w := (bk - bk1) / (bk - 1)
		z[l] = make([]float64, t.LevelSize(l))
		for i := range z[l] {
			lo, hi := t.Children(i, l)
			var childSum float64
			for c := lo; c < hi; c++ {
				childSum += z[l+1][c]
			}
			z[l][i] = w*e.Levels[l][i] + (1-w)*childSum
		}
	}

	// Top-down pass: x̄_root = z_root; each child absorbs an equal share
	// of its parent's remaining inconsistency.
	out := make([][]float64, h+1)
	out[0] = append([]float64(nil), z[0]...)
	for l := 0; l < h; l++ {
		out[l+1] = make([]float64, t.LevelSize(l+1))
		for i := range out[l] {
			lo, hi := t.Children(i, l)
			var childSum float64
			for c := lo; c < hi; c++ {
				childSum += z[l+1][c]
			}
			adj := (out[l][i] - childSum) / beta
			for c := lo; c < hi; c++ {
				out[l+1][c] = z[l+1][c] + adj
			}
		}
	}
	return &Estimate{Tree: t, Levels: out}
}
