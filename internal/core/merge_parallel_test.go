package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Property tests for the parallel merge kernels: for randomized shard
// counts, list sizes, reduction kinds, and parallelism degrees (including
// 1 and more than NumCPU), the parallel output must be bit-identical to
// the sequential kernel's. CI runs this file under -race, which also
// exercises the goroutine handoff in the leaf merges and tree reduction.

// randDisjointLists fabricates item-disjoint ascending bin lists the way
// a sharded sketch partitions items: every item carries its list index so
// no item appears twice anywhere.
func randDisjointLists(rng *rand.Rand, nlists, maxLen int, integral bool) [][]Bin {
	lists := make([][]Bin, nlists)
	for li := range lists {
		n := rng.Intn(maxLen + 1)
		bins := make([]Bin, n)
		c := 0.0
		for i := range bins {
			if integral {
				c += float64(1 + rng.Intn(5))
			} else {
				c += rng.Float64() * 3
			}
			bins[i] = Bin{Item: fmt.Sprintf("s%02d-item-%06d", li, i), Count: c}
		}
		lists[li] = bins
	}
	return lists
}

// randOverlapLists fabricates lists whose items deliberately collide
// across lists (and repeat within one), ascending by count as Bins()
// returns them.
func randOverlapLists(rng *rand.Rand, nlists, maxLen, universe int, integral bool) [][]Bin {
	lists := make([][]Bin, nlists)
	for li := range lists {
		n := rng.Intn(maxLen + 1)
		bins := make([]Bin, n)
		for i := range bins {
			c := rng.Float64() * 100
			if integral {
				c = float64(1 + rng.Intn(100))
			}
			bins[i] = Bin{Item: fmt.Sprintf("item-%04d", rng.Intn(universe)), Count: c}
		}
		sortAscending(bins)
		lists[li] = bins
	}
	return lists
}

func binsEqual(t *testing.T, label string, got, want []Bin) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d bins, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: bin %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestSumBinsParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	pars := []int{1, 2, 3, 5, runtime.NumCPU(), 3 * runtime.NumCPU()}
	for trial := 0; trial < 40; trial++ {
		nlists := 1 + rng.Intn(10)
		maxLen := 1 + rng.Intn(2000)
		universe := 1 + rng.Intn(4000)
		lists := randOverlapLists(rng, nlists, maxLen, universe, trial%2 == 0)
		want := SumBins(lists...)
		for _, par := range pars {
			got := SumBinsParallel(par, lists...)
			binsEqual(t, fmt.Sprintf("trial %d par %d", trial, par), got, want)
		}
	}
}

func TestMergeBinsParallelMatchesSequential(t *testing.T) {
	// The reduction consumes the RNG, so equivalence must hold draw for
	// draw: run sequential and parallel from identically seeded RNGs and
	// demand bit-identical reduced output for every reduction kind.
	rng := rand.New(rand.NewSource(1966))
	kinds := []ReduceKind{PairwiseReduction, PivotalReduction, MisraGriesReduction}
	for trial := 0; trial < 25; trial++ {
		nlists := 2 + rng.Intn(8)
		maxLen := 1 + rng.Intn(3000)
		var lists [][]Bin
		if trial%2 == 0 {
			lists = randDisjointLists(rng, nlists, maxLen, trial%4 == 0)
		} else {
			lists = randOverlapLists(rng, nlists, maxLen, 5000, trial%4 == 1)
		}
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		m := 1 + rng.Intn(total+1)
		kind := kinds[trial%len(kinds)]
		par := 1 + rng.Intn(2*runtime.NumCPU()+2)
		seed := rng.Int63()
		want := MergeBins(m, kind, rand.New(rand.NewSource(seed)), lists...)
		got := MergeBinsParallel(m, kind, rand.New(rand.NewSource(seed)), par, lists...)
		binsEqual(t, fmt.Sprintf("trial %d kind %v m %d par %d", trial, kind, m, par), got, want)
	}
}
