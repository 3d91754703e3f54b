package main

// ussbench -bench merge: the overlapping merge kernel the cluster gather
// runs, sequential vs parallel tree merge. Synthesizes gather-shaped
// lists (the same item universe in every list, so SumBins has real
// folding to do) and reports merged bins/s at each parallelism. The
// parallel results are asserted bit-identical to the sequential ones on
// every rep — this bench doubles as a live equivalence check on
// realistic sizes.
//
// Only the sequential rate carries the gated _rows_per_second suffix:
// per-parallelism rates on few-core machines are scheduler noise (on
// 1 CPU the "parallel" runs are the same work plus goroutine churn),
// so they are recorded informationally as _bins_per_second and the
// -check gate ignores them.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"repro/internal/core"
)

// synthOverlapLists builds gather-shaped lists: same item universe in
// every list, so SumBins has real folding to do.
func synthOverlapLists(rng *rand.Rand, n, per int) [][]core.Bin {
	lists := make([][]core.Bin, n)
	for s := range lists {
		bins := make([]core.Bin, per)
		for i := range bins {
			bins[i] = core.Bin{
				Item:  fmt.Sprintf("item-%07d", rng.Intn(per*2)),
				Count: float64(rng.Intn(10_000)) + rng.Float64(),
			}
		}
		lists[s] = bins
	}
	return lists
}

// binsIdentical reports bit-for-bit equality of two bin lists.
func binsIdentical(a, b []core.Bin) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// perfMerge benchmarks SumBins against SumBinsParallel across
// parallelism levels.
func perfMerge(w io.Writer, rec *benchRecorder, scale float64) error {
	const lists = 8
	per := int(16384 * scale)
	if per < 128 {
		per = 128
	}
	rng := rand.New(rand.NewSource(20180614))
	overlap := synthOverlapLists(rng, lists, per)

	fmt.Fprintf(w, "# merge: %d overlapping gather lists × %d bins (%d total), GOMAXPROCS=%d\n",
		lists, per, lists*per, runtime.GOMAXPROCS(0))
	rec.set("lists", lists)
	rec.set("bins_per_list", per)
	rec.set("gomaxprocs", runtime.GOMAXPROCS(0))

	overlapBins := lists * per
	seqO := core.SumBins(overlap...)
	tSeqO := timeOp(func() { core.SumBins(overlap...) })
	fmt.Fprintf(w, "%-34s %14v %14.0f bins/s %8s\n", "overlapping sum, sequential", tSeqO,
		float64(overlapBins)/tSeqO.Seconds(), "1.0x")
	rec.set("overlap_seq", tSeqO)
	rec.set("overlap_seq_rows_per_second", float64(overlapBins)/tSeqO.Seconds())
	for _, par := range []int{2, 4, 8} {
		got := core.SumBinsParallel(par, overlap...)
		if !binsIdentical(seqO, got) {
			return fmt.Errorf("SumBinsParallel(par=%d) diverged from sequential merge", par)
		}
		t := timeOp(func() { core.SumBinsParallel(par, overlap...) })
		fmt.Fprintf(w, "%-34s %14v %14.0f bins/s %7.1fx\n",
			fmt.Sprintf("overlapping sum, parallel=%d", par), t,
			float64(overlapBins)/t.Seconds(), float64(tSeqO)/float64(t))
		rec.set(fmt.Sprintf("overlap_par%d", par), t)
		rec.set(fmt.Sprintf("overlap_par%d_bins_per_second", par), float64(overlapBins)/t.Seconds())
	}
	return nil
}
