package uss_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	uss "repro"
)

// Property tests for the indexed subset sums. SubsetSumPrefix and
// SubsetSumItems answer from the Stream-Summary's head words and index
// instead of calling a predicate per bin; they must return exactly the
// Estimate the predicate scan returns — equal bits in Value and StdErr,
// equal SampleBins — after every path that writes labels: fill-phase
// inserts, evictions that relabel a minimum bin, and snapshot restores.
// (Removal, the fourth label-writing path, exists only below the sketch
// API and is covered by the streamsummary tests.)

// summer is the subset-sum surface unit and sharded sketches share.
type summer interface {
	SubsetSum(pred func(string) bool) uss.Estimate
	SubsetSumPrefix(prefix string) uss.Estimate
	SubsetSumItems(items ...string) uss.Estimate
}

// edgeUnits are the pieces random labels are built from, weighted toward
// "a" so labels share prefixes: plain ASCII, NUL (indistinguishable from
// the head word's zero padding) and 2- and 3-byte UTF-8 runes, which
// land across the 8-byte head boundary.
var edgeUnits = []string{"a", "a", "a", "b", "|", "\x00", "é", "日"}

func edgeLabel(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		sb.WriteString(edgeUnits[rng.Intn(len(edgeUnits))])
	}
	return sb.String()
}

// edgePrefix draws a prefix of 0–12 bytes cut from a universe label (so
// most prefixes match something), sometimes extended past the label's end
// — by NUL, which the zero-padded head alone would wrongly match, or by
// any unit — and sometimes unrelated to the universe.
func edgePrefix(rng *rand.Rand, universe []string) string {
	p := universe[rng.Intn(len(universe))]
	if n := rng.Intn(13); n < len(p) {
		p = p[:n]
	}
	switch rng.Intn(5) {
	case 0:
		p += "\x00"
	case 1:
		p += edgeUnits[rng.Intn(len(edgeUnits))]
	case 2:
		p = edgeLabel(rng)
		if len(p) > 12 {
			p = p[:12]
		}
	}
	return p
}

// edgeItems draws an item list of 0–9 entries from the universe (tracked
// or not), with repeats and labels no row ever carried.
func edgeItems(rng *rand.Rand, universe []string) []string {
	items := make([]string, rng.Intn(8))
	for i := range items {
		items[i] = universe[rng.Intn(len(universe))]
	}
	if len(items) > 0 && rng.Intn(2) == 0 {
		items = append(items, items[rng.Intn(len(items))])
	}
	if rng.Intn(3) == 0 {
		items = append(items, "absent\x00"+edgeLabel(rng))
	}
	return items
}

func sameEstimate(a, b uss.Estimate) bool {
	return math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.StdErr) == math.Float64bits(b.StdErr) &&
		a.SampleBins == b.SampleBins
}

// checkIndexedSums runs 50 random prefix and item-list sums against sk
// and fails on the first that differs from the scan.
func checkIndexedSums(t *testing.T, where string, sk summer, rng *rand.Rand, universe []string) {
	t.Helper()
	for q := 0; q < 50; q++ {
		p := edgePrefix(rng, universe)
		got := sk.SubsetSumPrefix(p)
		want := sk.SubsetSum(func(s string) bool { return strings.HasPrefix(s, p) })
		if !sameEstimate(got, want) {
			t.Fatalf("%s: SubsetSumPrefix(%q) = %+v, scan %+v", where, p, got, want)
		}
		items := edgeItems(rng, universe)
		set := make(map[string]bool, len(items))
		for _, it := range items {
			set[it] = true
		}
		got = sk.SubsetSumItems(items...)
		want = sk.SubsetSum(func(s string) bool { return set[s] })
		if !sameEstimate(got, want) {
			t.Fatalf("%s: SubsetSumItems(%q) = %+v, scan %+v", where, items, got, want)
		}
	}
}

// edgeStream draws a universe of edge labels and a skewed stream of rows
// over it, long enough to evict in a sketch of capacity bins.
func edgeStream(rng *rand.Rand, bins int) (universe, rows []string) {
	universe = make([]string, 2*bins+rng.Intn(4*bins+1))
	for i := range universe {
		universe[i] = edgeLabel(rng)
	}
	rows = make([]string, 4*len(universe)+rng.Intn(8*len(universe)))
	for i := range rows {
		// Square a uniform draw so low indices are heavy hitters.
		u := rng.Float64()
		rows[i] = universe[int(u*u*float64(len(universe)))]
	}
	return universe, rows
}

func TestSubsetSumIndexedMatchesScanUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(16)
		universe, rows := edgeStream(rng, m)
		opts := []uss.Option{uss.WithSeed(int64(trial))}
		if trial%4 == 3 {
			opts = append(opts, uss.WithDeterministic())
		}
		sk := uss.New(m, opts...)
		fill := len(rows) / 8
		sk.UpdateAll(rows[:fill])
		checkIndexedSums(t, fmt.Sprintf("trial %d fill", trial), sk, rng, universe)
		sk.UpdateAll(rows[fill:])
		checkIndexedSums(t, fmt.Sprintf("trial %d evict", trial), sk, rng, universe)

		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var restored uss.Sketch
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		checkIndexedSums(t, fmt.Sprintf("trial %d restored", trial), &restored, rng, universe)
		// Evictions on the restored sketch relabel nodes LoadDescending
		// wrote.
		restored.UpdateAll(rows[:fill])
		checkIndexedSums(t, fmt.Sprintf("trial %d restored+evict", trial), &restored, rng, universe)
	}
}

func TestSubsetSumIndexedMatchesScanSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	for trial := 0; trial < 200; trial++ {
		shards, bins := 1+rng.Intn(8), 1+rng.Intn(8)
		universe, rows := edgeStream(rng, shards*bins)
		sk := uss.NewSharded(shards, bins, uss.WithSeed(int64(trial)))
		fill := len(rows) / 8
		sk.UpdateBatch(rows[:fill])
		checkIndexedSums(t, fmt.Sprintf("trial %d (%d×%d) fill", trial, shards, bins), sk, rng, universe)
		for _, r := range rows[fill:] {
			sk.Update(r)
		}
		checkIndexedSums(t, fmt.Sprintf("trial %d (%d×%d) evict", trial, shards, bins), sk, rng, universe)

		data, err := sk.AppendShards(nil)
		if err != nil {
			t.Fatal(err)
		}
		restored := uss.NewSharded(shards, bins, uss.WithSeed(int64(trial)+1))
		if err := restored.RestoreShards(data); err != nil {
			t.Fatal(err)
		}
		checkIndexedSums(t, fmt.Sprintf("trial %d (%d×%d) restored", trial, shards, bins), restored, rng, universe)
		restored.UpdateBatch(rows[:fill])
		checkIndexedSums(t, fmt.Sprintf("trial %d (%d×%d) restored+evict", trial, shards, bins), restored, rng, universe)
	}
}

// TestSubsetSumItemsManyItems covers item lists longer than the probe
// buffer's on-stack capacity, on a sketch where every listed item is
// tracked, with each label listed twice.
func TestSubsetSumItemsManyItems(t *testing.T) {
	for _, shards := range []int{1, 3} {
		sk := uss.NewSharded(shards, 128, uss.WithSeed(153))
		var items []string
		for i := 0; i < 100; i++ {
			item := fmt.Sprintf("item-%d", i)
			for r := 0; r <= i%5; r++ {
				sk.Update(item)
			}
			items = append(items, item, item)
		}
		got := sk.SubsetSumItems(items...)
		if got.SampleBins != 100 || got.Value != 300 {
			t.Fatalf("%d shards: SubsetSumItems over 100 items listed twice = %+v, want 100 bins, value 300", shards, got)
		}
		want := sk.SubsetSum(func(s string) bool { return strings.HasPrefix(s, "item-") })
		if !sameEstimate(got, want) {
			t.Fatalf("%d shards: SubsetSumItems %+v, scan %+v", shards, got, want)
		}
	}
}
