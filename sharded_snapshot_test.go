package uss

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// The sharded snapshot keeps its shards' bins side by side, in shard
// order, and only SnapshotWith merges them into one ascending list. These
// tests pin every read against references built straight from the
// shards' own bin lists, so no answer depends on the order the snapshot
// stores its bins in.

// kwayRef merges item-disjoint, count-ascending bin lists the way a
// k-way merge does — each step emits the smallest (count, item) head —
// written as the plain O(n·k) loop so it shares no code with the kernel
// it checks. Within one count a shard's bins keep their Stream-Summary
// order, so this is not the same as sorting the union by (count, item).
func kwayRef(lists [][]Bin) []Bin {
	var out []Bin
	cur := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if cur[i] == len(l) {
				continue
			}
			if h := l[cur[i]]; best < 0 || h.Count < lists[best][cur[best]].Count ||
				(h.Count == lists[best][cur[best]].Count && h.Item < lists[best][cur[best]].Item) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][cur[best]])
		cur[best]++
	}
}

// refBinner is a query source over a fixed bin list and min count.
type refBinner struct {
	bins []Bin
	min  float64
}

func (r refBinner) Bins() []Bin       { return r.bins }
func (r refBinner) MinCount() float64 { return r.min }

// byCountDesc orders bins by count descending, ties by item: TopK's order.
func byCountDesc(a, b Bin) int {
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Item, b.Item)
}

// randomSharded builds a sharded sketch of 1–8 shards fed a random
// number of ad-click labels, under or over capacity; every third one is
// restored into a fresh sketch of the same geometry through
// AppendShards/RestoreShards.
func randomSharded(t *testing.T, rng *rand.Rand, trial int) *ShardedSketch {
	t.Helper()
	shards, per := 1+rng.Intn(8), 4+rng.Intn(60)
	seed := rng.Int63()
	s := NewSharded(shards, per, WithSeed(seed))
	rows := make([]string, rng.Intn(3*shards*per))
	universe := 1 + rng.Intn(2*shards*per)
	for i := range rows {
		k := rng.Intn(universe)
		rows[i] = fmt.Sprintf("a=%d|b=%d|k=%d", k%3, k%5, k)
	}
	s.UpdateBatch(rows)
	if trial%3 == 2 {
		blob, err := s.AppendShards(nil)
		if err != nil {
			t.Fatal(err)
		}
		r := NewSharded(shards, per, WithSeed(seed))
		if err := r.RestoreShards(blob); err != nil {
			t.Fatal(err)
		}
		return r
	}
	return s
}

func TestShardedSnapshotMatchesShardReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2701))
	specs := []QuerySpec{
		{},
		{GroupBy: []string{"a"}},
		{GroupBy: []string{"b", "a"}},
		{Where: []QueryFilter{WhereEq("a", "1")}, GroupBy: []string{"b"}},
		{Where: []QueryFilter{{Dim: "b", In: []string{"0", "3"}}}},
	}
	for trial := 0; trial < 60; trial++ {
		s := randomSharded(t, rng, trial)
		lists := make([][]Bin, len(s.shards))
		var n int
		for i := range s.shards {
			lists[i] = s.shards[i].sk.Bins()
			n += len(lists[i])
		}
		merged := kwayRef(lists)
		var refMin float64
		if n >= s.m && n > 0 {
			refMin = merged[0].Count
		}
		label := fmt.Sprintf("trial %d (%d×%d, %d bins)", trial, len(s.shards), s.m/len(s.shards), n)

		if got := s.Size(); got != n {
			t.Fatalf("%s: Size = %d, want %d", label, got, n)
		}
		desc := slices.Clone(merged)
		slices.SortFunc(desc, byCountDesc)
		for _, k := range []int{0, 1, 5, n / 2, n, n + 3} {
			want := desc[:min(k, n)]
			if got := s.TopK(k); !slices.Equal(got, want) {
				t.Fatalf("%s: TopK(%d) = %v, want %v", label, k, got, want)
			}
		}

		eng := s.QueryEngine()
		for _, q := range specs {
			want, wantSkipped, err := query.Run(refBinner{merged, refMin}, q)
			if err != nil {
				t.Fatal(err)
			}
			adhoc, skipped, err := s.RunQuery(q)
			if err != nil || skipped != wantSkipped {
				t.Fatalf("%s: RunQuery(%+v) skipped %d, err %v; want %d", label, q, skipped, err, wantSkipped)
			}
			prepared, skipped, err := eng.Prepare(q).Run()
			if err != nil || skipped != wantSkipped {
				t.Fatalf("%s: prepared %+v skipped %d, err %v; want %d", label, q, skipped, err, wantSkipped)
			}
			for _, got := range [][]QueryGroup{adhoc, prepared} {
				if len(got) != len(want) {
					t.Fatalf("%s: query %+v: %d groups, want %d", label, q, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.KeyString() != w.KeyString() || g.Sum.Value != w.Sum.Value ||
						g.Sum.StdErr != w.Sum.StdErr || g.Sum.SampleBins != w.Sum.SampleBins {
						t.Fatalf("%s: query %+v group %d = %s %+v, want %s %+v",
							label, q, i, g.KeyString(), g.Sum, w.KeyString(), w.Sum)
					}
				}
			}
		}
		_, _, gotMin := shardedBinner{s}.QuerySnapshot()
		if gotMin != refMin || (shardedBinner{s}).MinCount() != refMin {
			t.Fatalf("%s: query min count %v, want %v", label, gotMin, refMin)
		}

		snap := s.Snapshot(0)
		if got := snap.Bins(); !slices.Equal(got, merged) {
			t.Fatalf("%s: Snapshot(0) bins differ from the k-way merge of the shards", label)
		}
		gotBlob, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		ref := &WeightedSketch{core: core.SketchFromBins(s.m, rand.New(rand.NewSource(1)), merged)}
		if wantBlob, _ := ref.MarshalBinary(); !bytes.Equal(gotBlob, wantBlob) {
			t.Fatalf("%s: Snapshot(0) bytes differ from the reference", label)
		}
		if n > 1 {
			m := 1 + rng.Intn(n-1)
			got := s.SnapshotWith(m, MisraGries).Bins()
			want := core.SketchFromBins(m, rand.New(rand.NewSource(1)), core.ReduceMisraGries(merged, m)).Bins()
			if !slices.Equal(got, want) {
				t.Fatalf("%s: SnapshotWith(%d, MisraGries) = %v, want %v", label, m, got, want)
			}
		}

		bins, versions := s.SnapshotBins()
		if len(versions) != len(s.shards) {
			t.Fatalf("%s: %d versions for %d shards", label, len(versions), len(s.shards))
		}
		gotSet, wantSet := slices.Clone(bins), slices.Clone(merged)
		slices.SortFunc(gotSet, byCountDesc)
		slices.SortFunc(wantSet, byCountDesc)
		if !slices.Equal(gotSet, wantSet) {
			t.Fatalf("%s: SnapshotBins holds other bins than the shards", label)
		}
	}
}

// TestShardedSizeTracksSnapshot: Size agrees with the snapshot's bin
// count through inserts, evictions and a restore, and sums the shards'
// sizes without building a snapshot: a write followed by Size
// allocates nothing.
func TestShardedSizeTracksSnapshot(t *testing.T) {
	s := NewSharded(4, 16, WithSeed(3))
	check := func(stage string) {
		t.Helper()
		if got, want := s.Size(), len(s.Snapshot(0).Bins()); got != want {
			t.Fatalf("%s: Size = %d, snapshot holds %d bins", stage, got, want)
		}
		if s.Size() == 0 {
			return
		}
		hot := s.TopK(1)[0].Item
		if avg := testing.AllocsPerRun(20, func() { s.Update(hot); s.Size() }); avg != 0 {
			t.Fatalf("%s: a write then Size allocates %v/op, want 0", stage, avg)
		}
	}
	check("empty")
	for i := 0; i < 40; i++ {
		s.Update(fmt.Sprintf("k%d", i))
	}
	check("under capacity")
	for i := 0; i < 4000; i++ {
		s.Update(fmt.Sprintf("k%d", i%997))
	}
	check("evicting")
	blob, err := s.AppendShards(nil)
	if err != nil {
		t.Fatal(err)
	}
	s = NewSharded(4, 16, WithSeed(3))
	if err := s.RestoreShards(blob); err != nil {
		t.Fatal(err)
	}
	check("restored")
}

// BenchmarkShardedSnapshotRefill times one cache refill of a full 8×1024
// sketch: update one row, then read SnapshotBins.
func BenchmarkShardedSnapshotRefill(b *testing.B) {
	s := NewSharded(8, 1024, WithSeed(1))
	rows := make([]string, 1<<16)
	for i := range rows {
		rows[i] = fmt.Sprintf("item-%d", (i*7919)%30011)
	}
	s.UpdateBatch(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(rows[i%len(rows)])
		if bins, _ := s.SnapshotBins(); len(bins) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
