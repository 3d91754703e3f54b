package core

import (
	"fmt"
	"math/rand"
	"sync"
)

// Parallel counterparts of the merge kernels (§5.5's aggregation shape,
// run wide). The parallelism only ever touches the deterministic summing
// half of a merge — leaf runs sorted one goroutine per group, then a
// pairwise tree merge of runs — and every parallel entry point is
// bit-identical to its sequential counterpart:
//
//   - SumBinsParallel: the parallel phase is a stable merge sort by item
//     over contiguous ranges of the concatenated input — exactly the
//     stable sort SumBins performs — and the duplicate fold plus final
//     count sort run sequentially on that identical intermediate.
//   - MergeBinsParallel: the reduction (which consumes the RNG) runs
//     sequentially on the combined list, so the RNG stream and therefore
//     the reduced output match MergeBins draw for draw.
//
// The randomized equivalence property is pinned by merge_parallel_test.go
// and runs under -race in CI.

// ParallelMergeCutoff is the total input size (bins) below which the
// parallel entry points fall back to their sequential counterparts:
// under ~8Ki bins the goroutine handoff costs more than the merge.
const ParallelMergeCutoff = 8192

// SumBinsParallel is SumBins fanned out over par goroutines. The
// concatenated input is stable-sorted by item as contiguous per-group
// ranges merged by a parallel merge tree (ties always taken from the
// left run, so the result is exactly the stable sort of the
// concatenation); the duplicate fold and the final ascending count sort
// then run sequentially, making the output bit-identical to SumBins —
// including the order equal items' counts fold in, which pins the
// floating-point sum. Falls back to SumBins below ParallelMergeCutoff.
func SumBinsParallel(par int, lists ...[]Bin) []Bin {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if par > len(lists) {
		par = len(lists)
	}
	if par <= 1 || n < ParallelMergeCutoff {
		return SumBins(lists...)
	}

	out := make([]Bin, 0, n)
	bounds := make([]int, 1, par+1)
	target := (n + par - 1) / par
	size := 0
	var wg sync.WaitGroup
	for i, l := range lists {
		out = append(out, l...)
		size += len(l)
		if size >= target || i == len(lists)-1 {
			lo, hi := bounds[len(bounds)-1], len(out)
			bounds = append(bounds, hi)
			size = 0
			seg := out[lo:hi:hi] // out's cap is n, so appends never move it
			wg.Add(1)
			go func() {
				defer wg.Done()
				sortByItemStable(seg)
			}()
		}
	}
	wg.Wait()

	// Merge the sorted ranges pairwise until one remains, ping-ponging
	// between the concat buffer and one scratch buffer.
	src, dst := out[:n], make([]Bin, n)
	for len(bounds) > 2 {
		nb := make([]int, 1, len(bounds))
		var mw sync.WaitGroup
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			nb = append(nb, hi)
			mw.Add(1)
			go func() {
				defer mw.Done()
				mergeByItem(dst[lo:hi], src[lo:mid], src[mid:hi])
			}()
		}
		if i+1 < len(bounds) { // odd range carries over
			lo, hi := bounds[i], bounds[i+1]
			copy(dst[lo:hi], src[lo:hi])
			nb = append(nb, hi)
		}
		mw.Wait()
		src, dst = dst, src
		bounds = nb
	}

	// Sequential tail, identical to SumBins: fold duplicates in stable
	// (concatenation) order, then sort ascending by count.
	w := 0
	for r := 0; r < len(src); {
		item := src[r].Item
		c := src[r].Count
		for r++; r < len(src) && src[r].Item == item; r++ {
			c += src[r].Count
		}
		src[w] = Bin{Item: item, Count: c}
		w++
	}
	src = src[:w]
	sortAscending(src)
	return src
}

// mergeByItem merges two item-sorted runs into dst (len(dst) must equal
// len(a)+len(b)), taking from a on ties so that merging contiguous
// stable-sorted ranges reproduces the stable sort of the whole.
func mergeByItem(dst, a, b []Bin) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Item < a[i].Item {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// MergeBinsParallel is MergeBins with the exact summing half parallelized
// across par goroutines. The reduction below m bins — the only part that
// draws randomness — still runs sequentially on the combined list, so for
// a given rng state the output is bit-identical to MergeBins for every
// reduction kind.
func MergeBinsParallel(m int, kind ReduceKind, rng *rand.Rand, par int, lists ...[]Bin) []Bin {
	combined := SumBinsParallel(par, lists...)
	switch kind {
	case PairwiseReduction:
		if len(combined) <= m {
			return combined
		}
		return reducePairwiseInPlace(combined, m, rng)
	case PivotalReduction:
		return ReducePivotal(combined, m, rng)
	case MisraGriesReduction:
		return ReduceMisraGries(combined, m)
	default:
		panic(fmt.Sprintf("core: unknown reduction %v", kind))
	}
}
