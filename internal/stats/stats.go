// Package stats provides the significance tests the evaluation harness uses
// to decide whether one method actually beats another across repetitions:
// an exact paired sign test (distribution-free, right for small rep counts)
// and the exact binomial tail it is built on. Implemented from scratch on
// math only.
package stats

import (
	"fmt"
	"math"
)

// BinomialTail returns Pr[X >= k] for X ~ Binomial(n, p), computed exactly
// with logarithmic binomial coefficients so it is stable for n into the
// thousands.
func BinomialTail(k, n int, p float64) float64 {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("stats: BinomialTail with k=%d, n=%d", k, n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: BinomialTail with p=%v", p))
	}
	if k > n {
		return 0
	}
	if k == 0 {
		return 1
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return 1
	}
	var tail float64
	logP, logQ := math.Log(p), math.Log(1-p)
	for i := k; i <= n; i++ {
		tail += math.Exp(logChoose(n, i) + float64(i)*logP + float64(n-i)*logQ)
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// logChoose returns log(n choose k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// SignTestResult summarizes a paired sign test between two methods.
type SignTestResult struct {
	// Wins counts pairs where a < b (method A strictly better when lower
	// is better), Losses the reverse; Ties are discarded.
	Wins, Losses, Ties int
	// PValue is the two-sided exact sign-test p-value under H0: each
	// non-tied pair is a fair coin.
	PValue float64
}

// Significant reports whether the difference is significant at the given
// level (e.g. 0.05).
func (r SignTestResult) Significant(level float64) bool {
	return r.Wins+r.Losses > 0 && r.PValue <= level
}

// SignTest performs an exact paired two-sided sign test on equal-length
// samples a and b (e.g. per-repetition W1 of two methods on the same
// seeds). Lower values win.
func SignTest(a, b []float64) SignTestResult {
	if len(a) != len(b) {
		panic("stats: SignTest length mismatch")
	}
	var res SignTestResult
	for i := range a {
		switch {
		case a[i] < b[i]:
			res.Wins++
		case a[i] > b[i]:
			res.Losses++
		default:
			res.Ties++
		}
	}
	n := res.Wins + res.Losses
	if n == 0 {
		res.PValue = 1
		return res
	}
	k := res.Wins
	if res.Losses > k {
		k = res.Losses
	}
	// Two-sided: twice the one-sided tail of the larger count, capped.
	res.PValue = math.Min(1, 2*BinomialTail(k, n, 0.5))
	return res
}
