package uss

import (
	"runtime"

	"repro/internal/core"
)

// Reduction selects the bin-reduction strategy used when merging sketches
// (paper §5.3, §5.5).
type Reduction int

const (
	// Pairwise repeatedly collapses the two smallest bins, keeping the
	// larger label with probability proportional to its count. Unbiased;
	// preserves the exact total; keeps integer counts integral.
	Pairwise Reduction = iota
	// Pivotal draws a fixed-size PPS sample over all bins (splitting
	// method) with Horvitz–Thompson adjustment. Unbiased; adds less
	// quadratic variation than Pairwise but produces real-valued counts
	// and preserves the total only in expectation.
	Pivotal
	// MisraGries soft-thresholds by the (m+1)-th largest count. Biased
	// downward but preserves the deterministic heavy-hitter guarantee;
	// included for comparison with the classic merge.
	MisraGries
)

func (r Reduction) kind() core.ReduceKind {
	switch r {
	case Pairwise:
		return core.PairwiseReduction
	case Pivotal:
		return core.PivotalReduction
	case MisraGries:
		return core.MisraGriesReduction
	default:
		return core.PairwiseReduction
	}
}

// Merge combines sketches built on disjoint data into a fresh
// WeightedSketch with m bins: counts are summed exactly item-wise and then
// reduced back to m bins. With Pairwise or Pivotal the merged sketch
// remains unbiased for every subset sum over the union of the inputs'
// data (Theorem 2 of the paper).
func Merge(m int, red Reduction, sketches ...*Sketch) *WeightedSketch {
	c := buildConfig(nil)
	inner := make([]*core.Sketch, len(sketches))
	for i, s := range sketches {
		inner[i] = s.core
	}
	return &WeightedSketch{core: core.MergeSketches(m, red.kind(), c.rng, inner...)}
}

// MergeWeighted combines weighted sketches the same way.
func MergeWeighted(m int, red Reduction, sketches ...*WeightedSketch) *WeightedSketch {
	c := buildConfig(nil)
	inner := make([]*core.WeightedSketch, len(sketches))
	for i, s := range sketches {
		inner[i] = s.core
	}
	return &WeightedSketch{core: core.MergeWeighted(m, red.kind(), c.rng, inner...)}
}

// MergeBins exposes the raw reduction: sum the bin lists exactly, then
// reduce to at most m bins. It is the merge step of the wire pipeline —
// DecodeBins each shipped snapshot, MergeBins the lists, then EncodeBins
// the result onward (or NewWeightedFromBins it into a queryable sketch) —
// transporting sketch state between processes without ever materializing
// a per-snapshot Sketch. When the summed lists already fit in m bins the
// merge is the exact item-wise sum and draws no randomness; only a
// reduction below the merged size randomizes.
func MergeBins(m int, red Reduction, lists ...[]Bin) []Bin {
	c := buildConfig(nil)
	return core.MergeBins(m, red.kind(), c.rng, lists...)
}

// MergeBinsParallel is MergeBins with the exact summing half fanned out
// over GOMAXPROCS goroutines (paper §5.5 run wide: leaf runs merged
// concurrently, then a pairwise tree reduction; inputs under
// core.ParallelMergeCutoff bins stay sequential). Output is bit-identical
// to MergeBins for the same random state — only the deterministic sum is
// parallelized; the reduction draws its randomness sequentially — so the
// two are interchangeable wherever a merge is hot, e.g. the cluster
// gather path collapsing per-node partials.
func MergeBinsParallel(m int, red Reduction, lists ...[]Bin) []Bin {
	c := buildConfig(nil)
	return core.MergeBinsParallel(m, red.kind(), c.rng, runtime.GOMAXPROCS(0), lists...)
}
