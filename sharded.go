package uss

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashx"
	"repro/internal/labelidx"
	"repro/internal/query"
	"repro/internal/wire"
)

// ShardedSketch ingests rows concurrently: items hash to one of S shards,
// each an independent Unbiased Space Saving sketch behind its own mutex,
// and queries merge the shards unbiasedly on demand. This is the paper's
// recommended concurrency story (§5.5) — a single sketch is inherently
// sequential, but merges compose — packaged for in-process use.
//
// Because sharding is by item hash, each item's rows all land in one
// shard, so per-shard estimates are unbiased for the items routed there
// and the merged estimate is unbiased overall.
//
// Update takes the destination shard's lock for every row. Under heavy
// concurrent traffic prefer UpdateBatch, which groups a caller-side batch
// of rows by destination shard and takes each shard's lock once per batch,
// amortizing the lock protocol over the batch (see DESIGN.md).
type ShardedSketch struct {
	shards []shard
	m      int

	// snap caches the merged snapshot of all shards (bins, top-k order,
	// label index), stamped with the per-shard versions it was built
	// from. Readers validate it against the live version counters with
	// atomic loads only — repeated TopK / RunQuery / Snapshot against a
	// quiescent sketch touch no shard locks and allocate nothing (TopK)
	// or defer all work to the shared cache (queries, snapshots).
	snap atomic.Pointer[shardSnapshot]

	// queryMu serializes the convenience RunQuery path's lazily built
	// engine; see RunQuery.
	queryMu sync.Mutex
	qe      *query.Engine
}

type shard struct {
	mu sync.Mutex
	sk *Sketch
	// version advances on every mutation of this shard. Written under
	// mu, read without it by snapshot-cache validation.
	version atomic.Uint64
}

// NewSharded returns a sketch with the given number of shards, each with
// binsPerShard bins. Total memory is shards × binsPerShard bins; merged
// query results use shards × binsPerShard bins as well, so accuracy is
// comparable to a single sketch of that total size.
func NewSharded(shards, binsPerShard int, opts ...Option) *ShardedSketch {
	if shards <= 0 {
		panic(fmt.Sprintf("uss: %d shards", shards))
	}
	s := &ShardedSketch{shards: make([]shard, shards), m: shards * binsPerShard}
	c := buildConfig(opts)
	for i := range s.shards {
		// Derive independent per-shard seeds from the configured source
		// so WithSeed still yields reproducible behaviour.
		s.shards[i].sk = New(binsPerShard, WithRand(rand.New(rand.NewSource(c.rng.Int63()))))
	}
	return s
}

// shardIndex routes an item to its shard with an inlined, allocation-free
// FNV-1a (bit-identical to the hash/fnv digest, so routing is unchanged
// from earlier versions that paid one hasher allocation per row). The
// modulo is taken in uint32 so the index stays in range even where int is
// 32 bits.
func (s *ShardedSketch) shardIndex(item string) int {
	return int(hashx.Sum32a(item) % uint32(len(s.shards)))
}

func (s *ShardedSketch) shardFor(item string) *shard {
	return &s.shards[s.shardIndex(item)]
}

// Update routes one row to its item's shard. Safe for concurrent use.
func (s *ShardedSketch) Update(item string) {
	sh := s.shardFor(item)
	sh.mu.Lock()
	sh.sk.Update(item)
	sh.version.Add(1)
	sh.mu.Unlock()
}

// batchScratch holds the reusable buffers UpdateBatch needs to group a
// batch by destination shard: per-row shard ids, per-shard cursors, and
// the index permutation the rows are regrouped through (indices rather
// than string headers: a quarter of the write traffic, and nothing that
// pins caller memory between batches). Pooled so concurrent batches each
// get their own scratch without per-batch allocation. SubsetSumItems
// groups its items the same way and gathers them into items, which it
// clears before returning the scratch to the pool.
type batchScratch struct {
	shardOf []int32
	cursor  []int32
	idx     []int32
	items   []string
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) grow(rows, shards int) {
	if cap(sc.shardOf) < rows {
		sc.shardOf = make([]int32, rows)
		sc.idx = make([]int32, rows)
	}
	sc.shardOf = sc.shardOf[:rows]
	sc.idx = sc.idx[:rows]
	if cap(sc.cursor) < shards {
		sc.cursor = make([]int32, shards)
	}
	sc.cursor = sc.cursor[:shards]
	for i := range sc.cursor {
		sc.cursor[i] = 0
	}
}

// route groups the row indices of items by destination shard: every row
// is hashed once, and a stable counting sort scatters the indices into
// contiguous per-shard segments of sc.idx, so each shard sees its rows in
// original order. Afterwards sc.cursor[sh] is the end of shard sh's
// segment, which starts where shard sh-1's ends.
func (sc *batchScratch) route(s *ShardedSketch, items []string) {
	sc.grow(len(items), len(s.shards))
	// Pass 1: hash every row once, counting rows per shard.
	for i, it := range items {
		sh := int32(s.shardIndex(it))
		sc.shardOf[i] = sh
		sc.cursor[sh]++
	}
	// Turn counts into starting offsets of each shard's segment.
	var off int32
	for sh := range sc.cursor {
		n := sc.cursor[sh]
		sc.cursor[sh] = off
		off += n
	}
	// Pass 2: stable scatter of row indices into the segments, advancing
	// each cursor to the end of its shard's segment.
	for i := range items {
		sh := sc.shardOf[i]
		sc.idx[sc.cursor[sh]] = int32(i)
		sc.cursor[sh]++
	}
}

// UpdateBatch ingests a batch of rows. Rows are hashed once, regrouped by
// destination shard (route: a stable counting sort, so each shard sees
// its rows in original stream order), and each shard's rows are applied
// through the same batched core path as (*Sketch).UpdateAll under a
// single lock/unlock per shard per batch — instead of one mutex
// round-trip per row. Safe for concurrent use with Update, UpdateBatch
// and all queries; allocation-free in steady state.
//
// The resulting sketch state is distributionally identical to calling
// Update row by row: an item's rows all land in one shard, and each shard
// processes its subsequence in order.
func (s *ShardedSketch) UpdateBatch(items []string) {
	if len(items) == 0 {
		return
	}
	ns := len(s.shards)
	if ns == 1 {
		sh := &s.shards[0]
		sh.mu.Lock()
		sh.sk.UpdateAll(items)
		sh.version.Add(1)
		sh.mu.Unlock()
		return
	}
	sc := batchPool.Get().(*batchScratch)
	sc.route(s, items)
	// One lock round-trip per non-empty shard, each segment fed through
	// the same per-row core loop as (*Sketch).UpdateAll.
	start := int32(0)
	for sh := 0; sh < ns; sh++ {
		end := sc.cursor[sh]
		if end > start {
			shd := &s.shards[sh]
			shd.mu.Lock()
			shd.sk.core.UpdateGather(items, sc.idx[start:end])
			shd.version.Add(1)
			shd.mu.Unlock()
		}
		start = end
	}
	batchPool.Put(sc)
}

// Capacity returns the total bin budget across shards
// (shards × binsPerShard).
func (s *ShardedSketch) Capacity() int { return s.m }

// Size returns the number of occupied bins across shards: the sum of the
// shard sizes, each read under its shard's lock (items are disjoint
// across shards, so this is also the merged bin count). Allocation-free.
func (s *ShardedSketch) Size() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += s.shards[i].sk.Size()
		s.shards[i].mu.Unlock()
	}
	return n
}

// Total returns the total mass ingested across shards (== Rows for unit
// updates).
func (s *ShardedSketch) Total() float64 {
	var t float64
	for i := range s.shards {
		s.shards[i].mu.Lock()
		t += s.shards[i].sk.Total()
		s.shards[i].mu.Unlock()
	}
	return t
}

// Rows returns the total rows ingested across shards.
func (s *ShardedSketch) Rows() int64 {
	var n int64
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += s.shards[i].sk.Rows()
		s.shards[i].mu.Unlock()
	}
	return n
}

// Estimate returns the item's estimate from its shard (no merge needed —
// all of an item's mass lives in one shard).
func (s *ShardedSketch) Estimate(item string) float64 {
	sh := s.shardFor(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sk.Estimate(item)
}

// SubsetSum estimates the subset sum across all shards. Per-shard sums are
// independent unbiased estimates of the per-shard truths, so their sum is
// unbiased for the total; the standard errors combine in quadrature.
func (s *ShardedSketch) SubsetSum(pred func(string) bool) Estimate {
	return s.sumShards(func(_ int, sk *Sketch) Estimate { return sk.SubsetSum(pred) })
}

// SubsetSumPrefix estimates the number of rows whose item begins with
// prefix: SubsetSum with a strings.HasPrefix predicate, bit for bit, with
// each shard answering from its bins' head words (see
// (*Sketch).SubsetSumPrefix). Allocation-free.
func (s *ShardedSketch) SubsetSumPrefix(prefix string) Estimate {
	return s.sumShards(func(_ int, sk *Sketch) Estimate { return sk.SubsetSumPrefix(prefix) })
}

// SubsetSumItems estimates the number of rows whose item is one of items
// (a set: repeats count once): SubsetSum with a set-membership predicate,
// bit for bit. Items are routed to their shards as UpdateBatch routes
// rows, so each item costs one hash and one index probe in its own shard;
// every shard still contributes its variance term, as in SubsetSum.
func (s *ShardedSketch) SubsetSumItems(items ...string) Estimate {
	sc := batchPool.Get().(*batchScratch)
	sc.route(s, items)
	if cap(sc.items) < len(items) {
		sc.items = make([]string, len(items))
	}
	grouped := sc.items[:len(items)]
	for k, j := range sc.idx {
		grouped[k] = items[j]
	}
	var start int32
	est := s.sumShards(func(i int, sk *Sketch) Estimate {
		end := sc.cursor[i]
		e := sk.SubsetSumItems(grouped[start:end]...)
		start = end
		return e
	})
	clear(grouped) // the pooled scratch must not pin the caller's strings
	batchPool.Put(sc)
	return est
}

// sumShards runs one subset sum per shard, in shard order and under each
// shard's lock, and combines the per-shard estimates: values and sample
// bins add, variances add, so standard errors combine in quadrature.
// Every SubsetSum form goes through here, which keeps them bit-identical
// to one another.
func (s *ShardedSketch) sumShards(sum func(i int, sk *Sketch) Estimate) Estimate {
	var value, variance float64
	var bins int
	for i := range s.shards {
		s.shards[i].mu.Lock()
		e := sum(i, s.shards[i].sk)
		s.shards[i].mu.Unlock()
		value += e.Value
		variance += e.Variance()
		bins += e.SampleBins
	}
	return Estimate{Value: value, StdErr: math.Sqrt(variance), SampleBins: bins}
}

// shardSnapshot is one immutable view of all shards. bins holds every
// shard's bins side by side, in shard order, each shard's run ascending
// by count: items are disjoint across shards, so the list is already the
// exact item-wise sum of the shards, and no reader but SnapshotWith
// needs one order over all of it (TopK selects under a total order,
// queries add integer counts). lists are the per-shard runs, views into
// bins. sorted and idx are derived lazily and published through atomic
// pointers so that concurrent readers never lock and repeat reads never
// allocate.
type shardSnapshot struct {
	versions []uint64                       // per-shard versions the snapshot was built from
	bins     []Bin                          // shard order, each shard ascending
	lists    [][]Bin                        // lists[i] is shard i's run of bins
	minCount float64                        // MinCount of the equivalent Snapshot(s.m)
	sorted   atomic.Pointer[[]Bin]          // descending rank, for TopK
	idx      atomic.Pointer[labelidx.Index] // columnar label index
}

// snapshot returns a merged view of the shards that is current with
// respect to the per-shard version counters: the cached one when no shard
// has moved (validated with atomic loads only — no locks), a freshly
// built one otherwise.
func (s *ShardedSketch) snapshot() *shardSnapshot {
	if c := s.snap.Load(); c != nil && s.upToDate(c) {
		return c
	}
	return s.rebuildSnapshot()
}

func (s *ShardedSketch) upToDate(c *shardSnapshot) bool {
	for i := range s.shards {
		if s.shards[i].version.Load() != c.versions[i] {
			return false
		}
	}
	return true
}

// rebuildSnapshot appends each shard's bins into one slice under that
// shard's lock (recording the version the copy corresponds to) and
// publishes the result; nothing is merged. Shards are copied at slightly
// different times, the same consistency the uncached Snapshot always
// had; concurrent rebuilds may race benignly, each publishing a snapshot
// valid for the versions it recorded.
func (s *ShardedSketch) rebuildSnapshot() *shardSnapshot {
	c := &shardSnapshot{
		versions: make([]uint64, len(s.shards)),
		bins:     make([]Bin, 0, s.m),
		lists:    make([][]Bin, len(s.shards)),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		c.versions[i] = sh.version.Load()
		start := len(c.bins)
		c.bins = sh.sk.core.AppendBins(c.bins)
		sh.mu.Unlock()
		c.lists[i] = c.bins[start:len(c.bins):len(c.bins)]
	}
	// The bins fill the budget exactly when every shard is full, and the
	// smallest count is then the least of the shards' first bins.
	if len(c.bins) >= s.m {
		c.minCount = math.Inf(1)
		for _, l := range c.lists {
			c.minCount = min(c.minCount, l[0].Count)
		}
	}
	s.snap.Store(c)
	return c
}

// topSorted returns the snapshot's bins in descending rank order (count
// descending, ties by item), building them at most once per snapshot.
func (c *shardSnapshot) topSorted() []Bin {
	if p := c.sorted.Load(); p != nil {
		return *p
	}
	sorted := core.SelectTop(c.bins, len(c.bins))
	c.sorted.CompareAndSwap(nil, &sorted)
	return *c.sorted.Load()
}

// labelIndex returns the snapshot's columnar label index, building it at
// most once per snapshot.
func (c *shardSnapshot) labelIndex() *labelidx.Index {
	if p := c.idx.Load(); p != nil {
		return p
	}
	idx := labelidx.New(c.bins)
	c.idx.CompareAndSwap(nil, idx)
	return c.idx.Load()
}

// shardedBinner adapts the cached snapshot to the query engine's source
// interface. QuerySnapshot hands the engine one snapshot's bins, label
// index and min count together, so a query never mixes epochs even while
// shards ingest concurrently; the engine revalidates by label-index
// identity, which changes exactly when a shard version moves.
type shardedBinner struct{ s *ShardedSketch }

func (b shardedBinner) Bins() []Bin       { return b.s.snapshot().bins }
func (b shardedBinner) MinCount() float64 { return b.s.snapshot().minCount }

func (b shardedBinner) QuerySnapshot() ([]Bin, *labelidx.Index, float64) {
	c := b.s.snapshot()
	return c.bins, c.labelIndex(), c.minCount
}

// SnapshotBins returns the bins of all shards from the cached snapshot
// (shard order, each shard's bins ascending by count; no reduction)
// together with the per-shard versions that snapshot was cut at. Both
// slices are read-only views shared with every other reader. Equal
// version lists from one sketch mean equal bins, so the pair is a cheap
// change check for callers that ship the bins elsewhere; on a quiescent
// sketch the call takes no locks and allocates nothing.
func (s *ShardedSketch) SnapshotBins() ([]Bin, []uint64) {
	c := s.snapshot()
	return c.bins, c.versions
}

// Snapshot merges the shards into one weighted sketch of m bins (defaults
// to the sharded sketch's total bin budget when m ≤ 0) for top-k queries,
// serialization or further merging, reducing with Pairwise when m is
// below the merged size. The shards' bins come from the versioned
// snapshot cache: on a quiescent sketch no shard is locked, and only the
// merge of their runs and the returned sketch are built.
func (s *ShardedSketch) Snapshot(m int) *WeightedSketch {
	return s.SnapshotWith(m, Pairwise)
}

// SnapshotWith is Snapshot with an explicit reduction for the case where
// the merged bins must shrink to m (Pairwise and Pivotal keep the
// snapshot unbiased; MisraGries trades bias for the deterministic bound).
//
// It is the one reader that needs the shards' runs as one list in
// ascending count order — the reductions and the loaded sketch's bin
// order depend on it — so it k-way merges them itself, off the cached
// read path.
func (s *ShardedSketch) SnapshotWith(m int, red Reduction) *WeightedSketch {
	if m <= 0 {
		m = s.m
	}
	bins := core.SumDisjointAscending(s.snapshot().lists...)
	cfg := buildConfig(nil)
	if len(bins) > m {
		switch red {
		case Pivotal:
			bins = core.ReducePivotal(bins, m, cfg.rng)
		case MisraGries:
			bins = core.ReduceMisraGries(bins, m)
		default:
			bins = core.ReducePairwise(bins, m, cfg.rng)
		}
	}
	return &WeightedSketch{core: core.SketchFromBins(m, cfg.rng, bins)}
}

// TopK returns the k heaviest items across shards in descending count
// order (ties by item), served from the cached snapshot: on a quiescent
// sketch repeat calls take no locks and allocate nothing. The returned
// slice is a read-only view into the cache, valid indefinitely (snapshots
// are immutable; later updates publish new ones) — callers that want to
// mutate the bins must copy.
func (s *ShardedSketch) TopK(k int) []Bin {
	sorted := s.snapshot().topSorted()
	if k > len(sorted) {
		k = len(sorted)
	}
	if k < 0 {
		k = 0
	}
	return sorted[:k:k]
}

// RunQuery evaluates the §2 query template against the merged snapshot,
// exactly as RunQuery(sketch.Snapshot(0), q) would, but served from the
// versioned snapshot cache: on a quiescent sketch no shard is locked and
// no label is re-parsed. Safe for concurrent use (queries serialize on an
// internal mutex; the heavy state is the shared immutable snapshot). For
// lock-free concurrent querying, give each goroutine its own QueryEngine.
func (s *ShardedSketch) RunQuery(q QuerySpec) (groups []QueryGroup, skipped int, err error) {
	s.queryMu.Lock()
	defer s.queryMu.Unlock()
	if s.qe == nil {
		s.qe = query.NewEngine(shardedBinner{s})
	}
	g, skipped, err := s.qe.Run(q)
	return copyGroups(g), skipped, err
}

// QueryEngine returns a fresh engine over the sharded sketch's cached
// snapshot for repeated or prepared queries. Engines are single-goroutine
// owners of their buffers, but any number of them share the underlying
// snapshot and label index, so per-goroutine engines are cheap.
func (s *ShardedSketch) QueryEngine() *QueryEngine {
	return &QueryEngine{eng: query.NewEngine(shardedBinner{s})}
}

// Shards returns the shard count.
func (s *ShardedSketch) Shards() int { return len(s.shards) }

// AppendShards appends every shard's exact state to dst as one wire-v2
// frame per shard, in shard order, and returns the extended buffer —
// the durability checkpoint encoding. Unlike Snapshot, nothing is merged
// or reduced: RestoreShards rebuilds a sketch with identical per-shard
// state, so item routing and every count round-trip bit for bit. Each
// shard is encoded under its own lock; callers that need the frames to
// be one consistent cut across shards must quiesce writers for the call.
func (s *ShardedSketch) AppendShards(dst []byte) ([]byte, error) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		var err error
		dst, err = sh.sk.AppendBinary(dst)
		sh.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("uss: encode shard %d: %w", i, err)
		}
	}
	return dst, nil
}

// RestoreShards replaces every shard's state from an AppendShards
// encoding. The frame count must match the shard count and each frame's
// capacity must match the shard's bin budget — restoring into a sketch
// with different geometry would silently re-route items. All frames are
// decoded before any shard is touched, so a decode error leaves the
// sketch unchanged. Safe for concurrent use; the cached merged snapshot
// is invalidated.
func (s *ShardedSketch) RestoreShards(data []byte) error {
	restored := make([]*Sketch, 0, len(s.shards))
	for len(data) > 0 {
		n, err := wire.FrameLen(data)
		if err != nil {
			return fmt.Errorf("uss: restore shards: frame %d: %w", len(restored), err)
		}
		if n > len(data) {
			return fmt.Errorf("uss: restore shards: frame %d truncated (%d of %d bytes)", len(restored), len(data), n)
		}
		if len(restored) >= len(s.shards) {
			return fmt.Errorf("uss: restore shards: more frames than the %d shards", len(s.shards))
		}
		var sk Sketch
		if err := sk.UnmarshalBinary(data[:n]); err != nil {
			return fmt.Errorf("uss: restore shard %d: %w", len(restored), err)
		}
		if want := s.shards[len(restored)].sk.Capacity(); sk.Capacity() != want {
			return fmt.Errorf("uss: restore shard %d: capacity %d, want %d", len(restored), sk.Capacity(), want)
		}
		restored = append(restored, &sk)
		data = data[n:]
	}
	if len(restored) != len(s.shards) {
		return fmt.Errorf("uss: restore shards: %d frames for %d shards", len(restored), len(s.shards))
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.sk = restored[i]
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	return nil
}
