package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// This file implements the merge and size-reduction operations of §5.3 and
// §5.5. All frequent-item sketches share the shape "exact increment, then
// ReduceBins"; merging two sketches is summing their bins exactly and then
// reducing back to m bins. Theorem 2 says any reduction whose post-reduction
// expected counts equal the pre-reduction counts keeps the whole sketch
// unbiased, so we provide two unbiased reductions (pairwise and pivotal) and
// the biased Misra–Gries soft-threshold reduction for comparison.

// sortAscending orders bins in place by count, ties broken by item — the
// canonical bin-list order every reduction returns.
func sortAscending(bins []Bin) {
	slices.SortFunc(bins, func(a, b Bin) int {
		if a.Count != b.Count {
			if a.Count < b.Count {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Item, b.Item)
	})
}

// SumBins adds bin lists item-wise, producing one exact bin per distinct
// item in ascending count order. Items are grouped by sorting the
// concatenation rather than hashing into a map: one output allocation, no
// per-item map churn, identical output. The sort is stable, so a
// duplicated item's counts always fold in concatenation order — the
// canonical order that pins the floating-point sum and lets
// SumBinsParallel reproduce this function bit for bit.
//
// The operation is associative with a canonical result: summing partial
// sums of sublists yields the same output as summing all the lists at once,
// as long as per-item additions are exact (always true for the integral
// counts unit sketches carry). The rollup's cached merge tree leans on this
// to substitute precomputed segment sums for runs of window bin lists.
func SumBins(lists ...[]Bin) []Bin {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]Bin, 0, n)
	for _, l := range lists {
		out = append(out, l...)
	}
	if len(out) == 0 {
		return out
	}
	sortByItemStable(out)
	w := 0
	for r := 0; r < len(out); {
		item := out[r].Item
		c := out[r].Count
		for r++; r < len(out) && out[r].Item == item; r++ {
			c += out[r].Count
		}
		out[w] = Bin{Item: item, Count: c}
		w++
	}
	out = out[:w]
	sortAscending(out)
	return out
}

// sortByItemStable orders bins by item, preserving input order among
// equal items. Both SumBins and the parallel merge tree sort with it so
// they agree on the intermediate ordering bit for bit.
func sortByItemStable(bins []Bin) {
	slices.SortStableFunc(bins, func(a, b Bin) int { return strings.Compare(a.Item, b.Item) })
}

// SumDisjointAscending sums bin lists known to share no items — the
// shard-partitioned shape of a ShardedSketch snapshot, where each item's
// rows all hash to one shard — via a k-way merge over the inputs'
// ascending bin lists. With no item appearing twice, the exact item-wise sum needs no
// aggregation at all, so the merge is a single pass: one output
// allocation, no hashing, no re-sort. Each input must be in ascending
// count order (the order Sketch.Bins returns); the output is in ascending
// count order.
func SumDisjointAscending(lists ...[]Bin) []Bin {
	n := 0
	live := 0
	for _, l := range lists {
		n += len(l)
		if len(l) > 0 {
			live++
		}
	}
	out := make([]Bin, 0, n)
	if live == 1 {
		for _, l := range lists {
			out = append(out, l...)
		}
		return out
	}
	k := kmerge{lists: lists, cur: make([]int, len(lists)), heap: make([]int32, 0, live)}
	for i, l := range lists {
		if len(l) > 0 {
			k.heap = append(k.heap, int32(i))
		}
	}
	for i := len(k.heap)/2 - 1; i >= 0; i-- {
		k.down(i)
	}
	for len(k.heap) > 0 {
		li := k.heap[0]
		out = append(out, k.lists[li][k.cur[li]])
		k.cur[li]++
		if k.cur[li] == len(k.lists[li]) {
			last := len(k.heap) - 1
			k.heap[0] = k.heap[last]
			k.heap = k.heap[:last]
		}
		k.down(0)
	}
	return out
}

// kmerge is the cursor min-heap behind SumDisjointAscending: heap entries
// are input-list indices, ordered by each list's current head bin.
type kmerge struct {
	lists [][]Bin
	cur   []int
	heap  []int32
}

func (k *kmerge) less(a, b int32) bool {
	ba, bb := k.lists[a][k.cur[a]], k.lists[b][k.cur[b]]
	if ba.Count != bb.Count {
		return ba.Count < bb.Count
	}
	return ba.Item < bb.Item
}

func (k *kmerge) down(i int) {
	h := k.heap
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j2 := j + 1; j2 < len(h) && k.less(h[j2], h[j]) {
			j = j2
		}
		if !k.less(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// binHeap is a min-heap over Bin by count used by the pairwise reduction:
// an index-based slice heap whose operations mirror container/heap's
// sift order exactly (so a fixed RNG stream reduces identically) without
// boxing every Bin through interface{} on each collapse.
type binHeap []Bin

func (h binHeap) less(i, j int) bool { return h[i].Count < h[j].Count }

func (h binHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h binHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j2 := j + 1; j2 < len(h) && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h binHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h *binHeap) pop() Bin {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	*h = old[:n]
	(*h).down(0)
	return old[n]
}

func (h *binHeap) push(b Bin) {
	*h = append(*h, b)
	h.up(len(*h) - 1)
}

// ReducePairwise shrinks bins to at most m entries by repeatedly collapsing
// the two smallest bins a ≤ b into one bin of count a+b that keeps b's label
// with probability b/(a+b). Each collapse preserves each item's expected
// count and the exact total, so the reduction satisfies Theorem 2. This is
// exactly the view of the streaming update in §5.3 (a PPS sample on the two
// smallest bins) applied repeatedly.
func ReducePairwise(bins []Bin, m int, rng *rand.Rand) []Bin {
	if m <= 0 {
		panic(fmt.Sprintf("core: reduce to m = %d bins", m))
	}
	h := make(binHeap, len(bins))
	copy(h, bins)
	return reducePairwiseInPlace(h, m, rng)
}

// reducePairwiseInPlace runs the pairwise collapse on a heap the caller
// hands over ownership of. The collapse loop works entirely inside the
// slice — two pops and a push per step, no boxing, no per-collapse
// allocation — and the surviving prefix is sorted and returned in place.
func reducePairwiseInPlace(h binHeap, m int, rng *rand.Rand) []Bin {
	h.init()
	for len(h) > m {
		a := h.pop()
		b := h.pop()
		c := a.Count + b.Count
		keep := b.Item
		if c > 0 && rng.Float64()*c < a.Count {
			keep = a.Item
		}
		h.push(Bin{Item: keep, Count: c})
	}
	out := []Bin(h)
	sortAscending(out)
	return out
}

// ReducePivotal shrinks bins to exactly min(m, len(bins)) entries by drawing
// a fixed-size probability-proportional-to-size sample with the splitting
// (pivotal) method of Deville & Tillé (1998) and Horvitz–Thompson adjusting
// the surviving counts: a bin with inclusion probability πᵢ < 1 that
// survives is stored as count/πᵢ. Expected post-reduction counts equal the
// pre-reduction counts, so this too satisfies Theorem 2, and it adds less
// quadratic variation per step than the pairwise collapse because large bins
// (πᵢ = 1) are never randomized.
func ReducePivotal(bins []Bin, m int, rng *rand.Rand) []Bin {
	if m <= 0 {
		panic(fmt.Sprintf("core: reduce to m = %d bins", m))
	}
	if len(bins) <= m {
		out := make([]Bin, len(bins))
		copy(out, bins)
		return out
	}
	values := make([]float64, len(bins))
	for i, b := range bins {
		values[i] = b.Count
	}
	pi := InclusionProbabilities(values, m)

	out := make([]Bin, 0, m)
	// Certain bins (π = 1) pass through untouched; the rest run the
	// pivotal duel. Each fractional entry tracks both its current process
	// probability (cur, which grows as duels are won) and the unit's
	// original inclusion probability (orig, the divisor for the
	// Horvitz–Thompson adjustment — the pivotal process guarantees the
	// final selection probability equals orig).
	type frac struct {
		bin       Bin
		cur, orig float64
	}
	var pool []frac
	for i, b := range bins {
		if pi[i] >= 1 {
			out = append(out, b)
		} else if pi[i] > 0 {
			pool = append(pool, frac{bin: b, cur: pi[i], orig: pi[i]})
		}
	}
	// Pivotal method: repeatedly combine two fractional probabilities;
	// one of the pair resolves to 0 or 1, the other keeps the remainder.
	for len(pool) >= 2 {
		a, b := pool[len(pool)-1], pool[len(pool)-2]
		pool = pool[:len(pool)-2]
		s := a.cur + b.cur
		if s < 1 {
			// One of them dies; the survivor holds probability s.
			if rng.Float64()*s < a.cur {
				a.cur = s
				pool = append(pool, a)
			} else {
				b.cur = s
				pool = append(pool, b)
			}
		} else {
			// One of them is selected outright; the other keeps s-1.
			if rng.Float64()*(2-s) < 1-a.cur {
				out = append(out, Bin{Item: b.bin.Item, Count: b.bin.Count / b.orig})
				a.cur = s - 1
				pool = append(pool, a)
			} else {
				out = append(out, Bin{Item: a.bin.Item, Count: a.bin.Count / a.orig})
				b.cur = s - 1
				pool = append(pool, b)
			}
		}
	}
	if len(pool) == 1 {
		// Residual probability; with Σπ = m integral this is 0 or 1 up
		// to rounding, resolve it by a final coin flip.
		f := pool[0]
		if rng.Float64() < f.cur {
			out = append(out, Bin{Item: f.bin.Item, Count: f.bin.Count / f.orig})
		}
	}
	sortAscending(out)
	return out
}

// ReduceMisraGries shrinks bins to at most m entries with the biased
// soft-threshold reduction of Agarwal et al. (2013): subtract the (m+1)-th
// largest count from every bin and drop non-positive results. It preserves
// the deterministic error guarantee but biases every count downward; the
// paper's Figure 1 contrasts it with the unbiased reductions.
func ReduceMisraGries(bins []Bin, m int) []Bin {
	if m <= 0 {
		panic(fmt.Sprintf("core: reduce to m = %d bins", m))
	}
	if len(bins) <= m {
		out := make([]Bin, len(bins))
		copy(out, bins)
		return out
	}
	sorted := make([]Bin, len(bins))
	copy(sorted, bins)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Count > sorted[j].Count })
	thresh := sorted[m].Count
	out := make([]Bin, 0, m)
	for _, b := range sorted[:m] {
		if c := b.Count - thresh; c > 0 {
			out = append(out, Bin{Item: b.Item, Count: c})
		}
	}
	sortAscending(out)
	return out
}

// InclusionProbabilities returns the thresholded-PPS inclusion probabilities
// πᵢ = min(1, α·xᵢ) with α chosen so that Σπᵢ = min(m, #positive values)
// (§5.1). Zero values get probability zero.
func InclusionProbabilities(values []float64, m int) []float64 {
	n := len(values)
	pi := make([]float64, n)
	positive := 0
	for _, v := range values {
		if v > 0 {
			positive++
		}
	}
	if m >= positive {
		for i, v := range values {
			if v > 0 {
				pi[i] = 1
			}
		}
		return pi
	}
	// Sort value indices descending; find the number k of certain items
	// such that α = (m-k)/Σ_{rest} gives α·x ≤ 1 for all the rest.
	idx := make([]int, 0, positive)
	for i, v := range values {
		if v > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] > values[idx[b]] })
	var tail float64
	for _, i := range idx {
		tail += values[i]
	}
	k := 0
	for k < m {
		alpha := (float64(m) - float64(k)) / tail
		if alpha*values[idx[k]] <= 1 {
			break
		}
		tail -= values[idx[k]]
		k++
	}
	alpha := (float64(m) - float64(k)) / tail
	for j, i := range idx {
		if j < k {
			pi[i] = 1
		} else {
			p := alpha * values[i]
			if p > 1 {
				p = 1
			}
			pi[i] = p
		}
	}
	return pi
}

// ReduceKind selects a reduction operation for Merge.
type ReduceKind int

const (
	// PairwiseReduction collapses the two smallest bins repeatedly
	// (unbiased, integer-friendly, the default).
	PairwiseReduction ReduceKind = iota
	// PivotalReduction draws a fixed-size PPS sample with HT adjustment
	// (unbiased, lower added variance, real-valued counts).
	PivotalReduction
	// MisraGriesReduction soft-thresholds (biased, deterministic bound).
	MisraGriesReduction
)

func (k ReduceKind) String() string {
	switch k {
	case PairwiseReduction:
		return "pairwise"
	case PivotalReduction:
		return "pivotal"
	case MisraGriesReduction:
		return "misra-gries"
	default:
		return fmt.Sprintf("ReduceKind(%d)", int(k))
	}
}

// MergeBins sums any number of bin lists exactly and reduces the result to
// at most m bins with the chosen reduction. The output is in ascending
// count order.
func MergeBins(m int, kind ReduceKind, rng *rand.Rand, lists ...[]Bin) []Bin {
	combined := SumBins(lists...)
	switch kind {
	case PairwiseReduction:
		if len(combined) <= m {
			return combined
		}
		// SumBins hands over a fresh slice, so the collapse can run in
		// place without the defensive copy ReducePairwise makes.
		return reducePairwiseInPlace(combined, m, rng)
	case PivotalReduction:
		return ReducePivotal(combined, m, rng)
	case MisraGriesReduction:
		return ReduceMisraGries(combined, m)
	default:
		panic(fmt.Sprintf("core: unknown reduction %v", kind))
	}
}

// MergeSketches merges unit sketches into a fresh WeightedSketch of size m
// using the given reduction. The result is weighted because merged counts
// need not stay integral under HT adjustment; with PairwiseReduction they
// do stay integral but are stored as float64 regardless.
func MergeSketches(m int, kind ReduceKind, rng *rand.Rand, sketches ...*Sketch) *WeightedSketch {
	lists := make([][]Bin, len(sketches))
	for i, sk := range sketches {
		lists[i] = sk.Bins()
	}
	return SketchFromBins(m, rng, MergeBins(m, kind, rng, lists...))
}

// MergeWeighted merges weighted sketches into a fresh WeightedSketch.
func MergeWeighted(m int, kind ReduceKind, rng *rand.Rand, sketches ...*WeightedSketch) *WeightedSketch {
	lists := make([][]Bin, len(sketches))
	for i, sk := range sketches {
		lists[i] = sk.Bins()
	}
	return SketchFromBins(m, rng, MergeBins(m, kind, rng, lists...))
}

// SketchFromBins loads pre-reduced bins (non-positive counts are dropped)
// into a fresh WeightedSketch of capacity m — the load half shared by
// every merge and by ShardedSketch snapshots.
func SketchFromBins(m int, rng *rand.Rand, bins []Bin) *WeightedSketch {
	s := NewWeighted(m, rng)
	for _, b := range bins {
		if b.Count > 0 {
			s.Update(b.Item, b.Count)
		}
	}
	return s
}
