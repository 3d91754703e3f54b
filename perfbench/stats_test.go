package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is reported only with at least ten samples ranked above
// it, and always with the count behind it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		ok     bool
		value  float64
		beyond int
	}{
		{1000, 0.99, true, 990, 10},  // exactly ten beyond p99
		{999, 0.99, false, 990, 9},   // one short
		{1100, 0.99, true, 1089, 11}, // a workload's per-class minimum
		{20, 0.50, true, 10, 10},     // smallest set with a p50
		{19, 0.50, false, 10, 9},
		{0, 0.50, false, 0, 0},
	}
	for _, c := range cases {
		p := percentile(seq(c.n), c.q)
		if p.OK != c.ok || p.Value != c.value || p.Beyond != c.beyond || p.N != c.n {
			t.Errorf("percentile(n=%d, q=%v) = %+v, want ok=%v value=%v beyond=%d", c.n, c.q, p, c.ok, c.value, c.beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}
