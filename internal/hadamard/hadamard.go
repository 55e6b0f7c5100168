// Package hadamard provides Walsh–Hadamard matrices and the fast
// Walsh–Hadamard transform (FWHT). The Hadamard randomized response oracle
// (package mechanism's hrr, which the HaarHRR hierarchy baseline collects
// through) uses the rows of the Hadamard matrix as a public family of
// ±1-valued hash functions, and the aggregator inverts reports with the
// FWHT.
//
// The matrix convention is the standard Sylvester construction in natural
// ordering: H[j][v] = (−1)^popcount(j AND v), so H is symmetric and
// H·H = N·I for N a power of two.
package hadamard

import "math/bits"

// Entry returns the (j, v) entry of the Sylvester Hadamard matrix, which is
// +1 or −1. Both indices must be non-negative.
func Entry(j, v int) int {
	if bits.OnesCount(uint(j)&uint(v))&1 == 1 {
		return -1
	}
	return 1
}

// EntryF is Entry as a float64, convenient in estimator arithmetic.
func EntryF(j, v int) float64 {
	return float64(Entry(j, v))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Transform applies the unnormalized Walsh–Hadamard transform to xs in
// place: xs ← H·xs. The length of xs must be a power of two. Applying
// Transform twice multiplies the vector by its length (H² = N·I); Inverse
// performs the properly scaled inversion.
func Transform(xs []float64) {
	n := len(xs)
	if !IsPow2(n) {
		panic("hadamard: Transform length must be a power of two")
	}
	for h := 1; h < n; h *= 2 {
		for i := 0; i < n; i += 2 * h {
			for j := i; j < i+h; j++ {
				a, b := xs[j], xs[j+h]
				xs[j], xs[j+h] = a+b, a-b
			}
		}
	}
}

// Inverse applies the inverse Walsh–Hadamard transform in place:
// xs ← H·xs / N, so Inverse(Transform(x)) == x.
func Inverse(xs []float64) {
	Transform(xs)
	inv := 1 / float64(len(xs))
	for i := range xs {
		xs[i] *= inv
	}
}

// Row materializes row j of the N×N Hadamard matrix as ±1 float64 values.
// Intended for tests and small N; estimator hot paths should use Entry.
func Row(j, n int) []float64 {
	if !IsPow2(n) {
		panic("hadamard: Row size must be a power of two")
	}
	out := make([]float64, n)
	for v := range out {
		out[v] = EntryF(j, v)
	}
	return out
}
