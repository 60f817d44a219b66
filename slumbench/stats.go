package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// namePattern is the shape every workload and metric name must have.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// median returns the middle of xs (mean of the two middle values for an
// even count). xs must be non-empty; it is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest of xs (non-empty).
func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses a percentile that has fewer than ten
// samples beyond it: with fewer, the value is one of a handful of
// extreme samples and moves with every run. +Inf entries are allowed and
// sort last (a refused request counts as missing every latency limit).
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, want at least 10", p, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
