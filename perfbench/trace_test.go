package main

import (
	"math"
	"strings"
	"testing"
)

// Self time is a span's duration minus the union of its children's
// intervals, clipped to the span: overlapping children count once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past op
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (40 + 10), // covered: [10,50) and [90,100)
		2: 30 - 10,
		3: 20,
		4: 30,
		5: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

// The layer time of an operation sums its descendants' self times, so
// nested layers are not counted twice, and the residual is what the
// client saw beyond it.
func TestLayerTimeAndResidual(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.topk", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "fetch", Start: 0, End: 600},
		{ID: 3, Parent: 2, Name: "decode", Start: 400, End: 600},
		{ID: 4, Parent: 1, Name: "merge", Start: 600, End: 900},
		{ID: 5, Name: "op.topk", Start: 2000, End: 2500},
		{ID: 6, Parent: 5, Name: "merge", Start: 2000, End: 2400},
		{ID: 7, Name: "op.sum", Start: 3000, End: 3100},
		{ID: 8, Parent: 7, Name: "scan", Start: 3000, End: 3100},
	}
	got := layerTimePerOp(spans, "op.topk")
	// op 1: fetch self 400 + decode 200 + merge 300; op 5: merge 400.
	if len(got) != 2 || got[0] != 900 || got[1] != 400 {
		t.Fatalf("layerTimePerOp = %v, want [900 400]", got)
	}
	// 900ns of layer time in a 0.003ms client latency: 70% unexplained.
	if r := residualShare(900, 0.003); math.Abs(r-0.7) > 1e-12 {
		t.Errorf("residual = %v, want 0.7", r)
	}
	// Layers replayed in isolation can exceed what the client saw.
	if r := residualShare(4000, 0.002); math.Abs(r-(-1)) > 1e-12 {
		t.Errorf("residual = %v, want -1", r)
	}
	if r := residualShare(900, 0); r != 0 {
		t.Errorf("residual without client latency = %v, want 0", r)
	}
}

func TestDurationsPerRow(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.update", Start: 0, End: 1000, Rows: 100},
		{ID: 2, Name: "core.update", Start: 0, End: 500, Rows: 0},
		{ID: 3, Name: "other", Start: 0, End: 7},
	}
	if got := durations(spans, "core.update", true); len(got) != 1 || got[0] != 10 {
		t.Errorf("per-row durations = %v, want [10]", got)
	}
	if got := durations(spans, "core.update", false); len(got) != 2 {
		t.Errorf("durations = %v, want two", got)
	}
}

// Interval histograms from two /metrics scrapes: leading and trailing
// empty buckets are elided by the server, so the delta must line the
// two bound sets up.
func TestHistogramDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`
# TYPE h histogram
h_bucket{class="q",le="0.001"} 4
h_bucket{class="q",le="0.002"} 4
h_bucket{class="q",le="+Inf"} 4
h_sum{class="q"} 0.004
h_count{class="q"} 4
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`
h_bucket{class="q",le="0.001"} 4
h_bucket{class="q",le="0.002"} 8
h_bucket{class="q",le="0.004"} 14
h_bucket{class="q",le="+Inf"} 14
h_sum{class="q"} 0.040
h_count{class="q"} 14
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.hist("h", `class="q"`).minus(before.hist("h", `class="q"`))
	if d.n != 10 || math.Abs(d.mean()-0.0036) > 1e-12 {
		t.Errorf("delta count %v mean %v, want 10 and 0.0036", d.n, d.mean())
	}
	// 4 new samples in (0.001, 0.002], 6 in (0.002, 0.004]: the median
	// is the 5th, one sixth into the upper bucket.
	if q := d.quantile(0.5); math.Abs(q-(0.002+0.002/6)) > 1e-12 {
		t.Errorf("median = %v, want %v", q, 0.002+0.002/6)
	}
	sum := d.plus(d)
	if sum.n != 20 || sum.at(0.004) != 20 {
		t.Errorf("plus: n %v at(0.004) %v, want 20 and 20", sum.n, sum.at(0.004))
	}
}
