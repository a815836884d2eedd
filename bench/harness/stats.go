// Package harness is feobench's measuring equipment: the server process
// and its /proc and /metrics readings, the load generator, the response
// validator, the CPU canary and the machine fingerprint. Everything here
// observes `feo serve` from outside.
package harness

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice, or 0 for an empty one.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TailLevel picks the tail percentile a sample of n supports: the highest
// of p99 and p90 with at least ten samples beyond it, else the median.
func TailLevel(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	default:
		return 50
	}
}

// Median returns the median of xs (mean of the middle pair for an even
// count) without reordering xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method): the
// driver judges a metric's spread by (Q3 − Q1) / median computed so.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
