package uss_test

import (
	"fmt"
	"testing"

	uss "repro"
)

// Allocation regression tests for the ingest and read hot paths. The
// slab-backed Stream-Summary, the inlined shard hash and the pooled batch
// scratch make steady-state ingest allocation-free; the columnar query
// engine and the versioned snapshot cache make repeated reads against an
// unchanged sketch allocation-free. These tests pin both properties so a
// future change that reintroduces a per-row or per-query allocation fails
// loudly instead of silently costing throughput.

// allocTestStream returns a skewed row stream drawn from a fixed label
// pool, so updates exercise hits, random-min increments and label
// replacements without allocating the row strings inside the measured loop.
func allocTestStream(n int) []string {
	rows := make([]string, n)
	for i := range rows {
		// A mix of hot keys (small residues) and a long tail.
		rows[i] = fmt.Sprintf("item-%d", (i*i+i/3)%2048)
	}
	return rows
}

func TestUpdateZeroAllocsSteadyState(t *testing.T) {
	rows := allocTestStream(1 << 14)
	sk := uss.New(256, uss.WithSeed(11))
	// Warm past the fill phase into steady state: capacity reached, bucket
	// free-list populated, index map at its final size.
	for _, r := range rows {
		sk.Update(r)
	}
	var i int
	if avg := testing.AllocsPerRun(100, func() {
		for j := 0; j < 256; j++ {
			sk.Update(rows[i&(len(rows)-1)])
			i++
		}
	}); avg != 0 {
		t.Errorf("steady-state Sketch.Update allocates %v per 256-row run, want 0", avg)
	}
}

func TestUpdateAllZeroAllocsSteadyState(t *testing.T) {
	rows := allocTestStream(1 << 14)
	sk := uss.New(256, uss.WithSeed(12))
	sk.UpdateAll(rows)
	if avg := testing.AllocsPerRun(100, func() {
		sk.UpdateAll(rows[:512])
	}); avg != 0 {
		t.Errorf("steady-state Sketch.UpdateAll allocates %v/run, want 0", avg)
	}
}

func TestShardedUpdateZeroAllocsSteadyState(t *testing.T) {
	rows := allocTestStream(1 << 14)
	s := uss.NewSharded(8, 64, uss.WithSeed(13))
	for _, r := range rows {
		s.Update(r)
	}
	var i int
	if avg := testing.AllocsPerRun(100, func() {
		for j := 0; j < 256; j++ {
			s.Update(rows[i&(len(rows)-1)])
			i++
		}
	}); avg != 0 {
		t.Errorf("steady-state ShardedSketch.Update allocates %v per 256-row run, want 0", avg)
	}
}

func TestUpdateBatchZeroAllocsSteadyState(t *testing.T) {
	rows := allocTestStream(1 << 14)
	s := uss.NewSharded(8, 64, uss.WithSeed(14))
	// Warm the shards and the pooled batch scratch at the measured batch
	// size so the measured runs only reuse.
	s.UpdateBatch(rows[:1024])
	s.UpdateBatch(rows[1024:2048])
	var off int
	if avg := testing.AllocsPerRun(100, func() {
		lo := off & (len(rows) - 1)
		s.UpdateBatch(rows[lo : lo+1024])
		off += 1024
	}); avg != 0 {
		t.Errorf("steady-state UpdateBatch allocates %v per 1024-row batch, want 0", avg)
	}
}

// dimLabelStream returns rows whose labels parse as dimension tuples, for
// the query-path allocation tests.
func dimLabelStream(n int) []string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("country=c%d|device=d%d|ad=a%d", i%11, i%3, i%457)
	}
	return rows
}

func queryAllocSpec() uss.QuerySpec {
	return uss.QuerySpec{
		Where:   []uss.QueryFilter{{Dim: "device", In: []string{"d0", "d1"}}},
		GroupBy: []string{"country"},
	}
}

// TestPreparedQueryZeroAllocs: repeated evaluation of a prepared query
// against an unchanged sketch must be allocation-free — the columnar
// index, the compiled program, the group render cache and the output
// buffers are all reused.
func TestPreparedQueryZeroAllocs(t *testing.T) {
	sk := uss.New(512, uss.WithSeed(15))
	sk.UpdateAll(dimLabelStream(1 << 14))
	p := sk.QueryEngine().Prepare(queryAllocSpec())
	for i := 0; i < 2; i++ {
		if groups, _, err := p.Run(); err != nil || len(groups) == 0 {
			t.Fatalf("warm run: groups=%v err=%v", groups, err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if groups, _, _ := p.Run(); len(groups) == 0 {
			t.Fatal("empty result")
		}
	}); avg != 0 {
		t.Errorf("repeat PreparedQuery.Run allocates %v/op, want 0", avg)
	}
}

// TestShardedPreparedQueryZeroAllocs: the same guarantee through the
// sharded sketch's cached snapshot and shared label index.
func TestShardedPreparedQueryZeroAllocs(t *testing.T) {
	s := uss.NewSharded(8, 128, uss.WithSeed(16))
	s.UpdateBatch(dimLabelStream(1 << 14))
	p := s.QueryEngine().Prepare(queryAllocSpec())
	for i := 0; i < 2; i++ {
		if groups, _, err := p.Run(); err != nil || len(groups) == 0 {
			t.Fatalf("warm run: groups=%v err=%v", groups, err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if groups, _, _ := p.Run(); len(groups) == 0 {
			t.Fatal("empty result")
		}
	}); avg != 0 {
		t.Errorf("repeat sharded PreparedQuery.Run allocates %v/op, want 0", avg)
	}
}

// TestShardedTopKZeroAllocsQuiescent: TopK against an unchanged sharded
// sketch must serve the cached descending order with no locks taken and
// no allocations — and must still see new data once a shard moves.
func TestShardedTopKZeroAllocsQuiescent(t *testing.T) {
	s := uss.NewSharded(8, 64, uss.WithSeed(17))
	s.UpdateBatch(allocTestStream(1 << 14))
	if top := s.TopK(10); len(top) != 10 {
		t.Fatalf("warm TopK returned %d bins", len(top))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if top := s.TopK(10); len(top) != 10 {
			t.Fatal("short TopK")
		}
	}); avg != 0 {
		t.Errorf("quiescent ShardedSketch.TopK allocates %v/op, want 0", avg)
	}
	// Mutation invalidates: an item pushed far past the current leader
	// must surface immediately.
	for i := 0; i < 1<<15; i++ {
		s.Update("usurper")
	}
	if top := s.TopK(1); len(top) != 1 || top[0].Item != "usurper" {
		t.Fatalf("cache served stale TopK after updates: %v", top)
	}
}

// TestShardedTopKZeroAllocsAfterRefill: the quiescent zero-alloc
// contract holds on a snapshot the cache refilled after a write (the
// refill runs only when a shard moved).
func TestShardedTopKZeroAllocsAfterRefill(t *testing.T) {
	s := uss.NewSharded(8, 64, uss.WithSeed(17))
	s.UpdateBatch(allocTestStream(1 << 14))
	if top := s.TopK(10); len(top) != 10 {
		t.Fatalf("warm TopK returned %d bins", len(top))
	}
	s.Update("refill") // invalidate the snapshot; the next read refills it
	if top := s.TopK(10); len(top) != 10 {
		t.Fatalf("refilled TopK returned %d bins", len(top))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if top := s.TopK(10); len(top) != 10 {
			t.Fatal("short TopK")
		}
	}); avg != 0 {
		t.Errorf("quiescent TopK after a refill allocates %v/op, want 0", avg)
	}
}

// TestUpdateBatchMatchesUpdate: batched ingest must land every row in the
// same shard as per-row ingest and preserve per-shard row order, so with a
// fixed seed the resulting sketch state is identical.
func TestUpdateBatchMatchesUpdate(t *testing.T) {
	rows := allocTestStream(1 << 12)
	a := uss.NewSharded(4, 128, uss.WithSeed(21))
	b := uss.NewSharded(4, 128, uss.WithSeed(21))
	for _, r := range rows {
		a.Update(r)
	}
	for lo := 0; lo < len(rows); lo += 100 {
		hi := lo + 100
		if hi > len(rows) {
			hi = len(rows)
		}
		b.UpdateBatch(rows[lo:hi])
	}
	if a.Rows() != b.Rows() {
		t.Fatalf("Rows: per-row %d, batched %d", a.Rows(), b.Rows())
	}
	ta, tb := a.TopK(50), b.TopK(50)
	if len(ta) != len(tb) {
		t.Fatalf("TopK lengths differ: %d vs %d", len(ta), len(tb))
	}
	sa := a.SubsetSum(func(string) bool { return true })
	sb := b.SubsetSum(func(string) bool { return true })
	if sa.Value != sb.Value {
		t.Errorf("total mass: per-row %v, batched %v", sa.Value, sb.Value)
	}
	// Per-item agreement on every tracked item of the per-row sketch: same
	// seed + same per-shard row order ⇒ identical shard states.
	for _, bin := range ta {
		if got := b.Estimate(bin.Item); got != bin.Count {
			t.Errorf("estimate for %q: per-row %v, batched %v", bin.Item, bin.Count, got)
		}
	}
}

// TestSubsetSumPrefixZeroAllocs: prefix sums on a warm sketch, unit or
// sharded, allocate nothing — each shard walks its own slabs under its
// lock, and the per-shard combination stays on the stack.
func TestSubsetSumPrefixZeroAllocs(t *testing.T) {
	rows := dimLabelStream(1 << 14)
	sk := uss.New(512, uss.WithSeed(18))
	sk.UpdateAll(rows)
	sh := uss.NewSharded(8, 128, uss.WithSeed(18))
	sh.UpdateBatch(rows)
	for _, p := range []string{"country=c1|", "coun", "country=c10|device=d1|ad=a4"} {
		if avg := testing.AllocsPerRun(100, func() { sk.SubsetSumPrefix(p) }); avg != 0 {
			t.Errorf("Sketch.SubsetSumPrefix(%q) allocates %v/op, want 0", p, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { sh.SubsetSumPrefix(p) }); avg != 0 {
			t.Errorf("ShardedSketch.SubsetSumPrefix(%q) allocates %v/op, want 0", p, avg)
		}
	}
}

// TestSubsetSumItemsAllocsIndependentOfSketch: an item sum costs one
// probe per item, so its allocations must not grow with the sketch. A
// 16-item sum allocates nothing on unit or sharded sketches of either
// size (the sharded routing scratch is pooled with UpdateBatch's).
func TestSubsetSumItemsAllocsIndependentOfSketch(t *testing.T) {
	rows := dimLabelStream(1 << 14)
	items := rows[:16]
	for _, bins := range []int{64, 4096} {
		sk := uss.New(bins, uss.WithSeed(19))
		sk.UpdateAll(rows)
		sh := uss.NewSharded(8, bins/8, uss.WithSeed(19))
		sh.UpdateBatch(rows)
		sh.SubsetSumItems(items...) // warm the pooled scratch
		if avg := testing.AllocsPerRun(100, func() { sk.SubsetSumItems(items...) }); avg != 0 {
			t.Errorf("%d bins: Sketch.SubsetSumItems(16 items) allocates %v/op, want 0", bins, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { sh.SubsetSumItems(items...) }); avg != 0 {
			t.Errorf("%d bins: ShardedSketch.SubsetSumItems(16 items) allocates %v/op, want 0", bins, avg)
		}
	}
}
