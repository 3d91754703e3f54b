package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// pct is one reported percentile with the sample count behind it.
type pct struct {
	Q      float64 // quantile in (0, 1)
	Value  float64
	N      int // samples in the set
	Beyond int // samples strictly above the percentile's rank
	OK     bool
}

// percentile reads quantile q from sorted by nearest rank (the sample at
// 1-based rank ceil(q·n)). OK is false unless at least minBeyond samples
// rank above it; Value is then still the nearest-rank sample, for
// diagnostics only.
func percentile(sorted []float64, q float64) pct {
	n := len(sorted)
	p := pct{Q: q, N: n}
	if n == 0 {
		return p
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	p.Value = sorted[rank-1]
	p.Beyond = n - rank
	p.OK = p.Beyond >= minBeyond
	return p
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the middle two for even counts); 0 for none.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
