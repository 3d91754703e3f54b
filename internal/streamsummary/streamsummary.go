// Package streamsummary implements the Stream-Summary data structure of
// Metwally, Agrawal and El Abbadi ("Efficient computation of frequent and
// top-k elements in data streams", ICDT 2005).
//
// A Summary maintains a set of (item, integer count) pairs supporting all the
// operations a Space-Saving sketch needs in O(1) time per stream row:
//
//   - test whether an item is present and increment its counter,
//   - find the minimum counter value,
//   - pick a uniformly random bin among those with the minimum value
//     (the random tie-breaking required by the consistency analysis of
//     Unbiased Space Saving, Ting 2018 §6.1),
//   - increment a minimum bin with or without replacing its label.
//
// A Summary is single-owner and unsynchronized; the slabs below are
// reused in place across operations, so nothing a caller receives aliases
// them — lookups return values, not slab references.
//
// Logically the structure is the classic one: buckets in strictly
// increasing count order, each owning the set of items whose counter equals
// the bucket's count. Incrementing an item moves it to the adjacent
// count+1 bucket, creating or retiring buckets as needed; all O(1) because
// counts only ever grow by exactly one.
//
// Storage layout (the part that differs from the textbook presentation):
// everything lives in flat slabs addressed by int32 — four of them,
// plus the open-addressing table that finds a label's node —
//
//   - nodes:   one (item, bucket, pos) record per bin, with an intrusive
//     free-list threading vacant slots through the bucket field;
//   - heads:   parallel to nodes, each label's first 8 bytes packed
//     big-endian, so a prefix sum tests one word per bin instead of
//     reading label bytes, and the node records stay 24 bytes for every
//     other walk;
//   - perm:    a permutation of the live node indices, grouped by bucket in
//     descending count order (maximum bucket first), so a bucket's members
//     are the contiguous range perm[start:end], the minimum bucket is the
//     final range, and a uniformly random minimum bin is one
//     bounds-checked load away — no pointer chase. Descending order puts
//     new minimums at the array's end, which keeps fill-phase inserts O(1);
//   - buckets: one (count, start, end) range record per distinct count,
//     recycled through an intrusive free-list (linked through the start
//     field) when a count empties;
//   - table:   the item index, a power-of-two []uint64 probed linearly.
//     Each used slot packs node slot + 1 above the low 32 bits of the
//     label's seeded hash (its tag); 0 is empty. Deletion shifts the
//     rest of the probe chain back, so no tombstones build up under
//     eviction churn.
//
// Incrementing a bin is a swap to its bucket's boundary plus two range
// adjustments; no memory is written outside the slabs and the table.
// After the fill phase the ingest path therefore performs zero heap
// allocations per row — there is nothing to allocate: no per-bucket
// slices, no linked-list cells, just fixed-width slab entries — and the GC
// never scans interior pointers.
package streamsummary

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
)

// none marks an absent slab index (the nil of the int32-indexed layout).
const none = int32(-1)

// hashSeed keys every table's hash. Labels come from clients, so the
// hash must be one they cannot predict: with a fixed hash a client could
// send labels that share one probe chain. It is not the shard-routing
// hash either, under which every label of one shard already agrees
// modulo the shard count.
var hashSeed = maphash.MakeSeed()

// tagOf is item's table tag: the low 32 bits of its seeded hash. Its low
// bits also pick the item's home slot.
func tagOf(item string) uint32 { return uint32(maphash.String(hashSeed, item)) }

// entry packs node slot ni and its label's tag into one table slot.
func entry(ni int32, tag uint32) uint64 { return uint64(ni+1)<<32 | uint64(tag) }

// tableLen is the smallest power of two at least 2n (and at least 8), so
// n items fill at most half of it.
func tableLen(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// node is a single (item, count) bin stored in the node slab. Its count is
// implied by the bucket it currently belongs to. While a node is on the
// free-list, its bucket field holds the index of the next free node.
type node struct {
	item   string
	bucket int32 // owning bucket slab index; free-list link when vacant
	pos    int32 // position of this node in perm
}

// headOf packs the first 8 bytes of s big-endian, zero-padded when s is
// shorter. Comparing heads under a mask therefore compares label
// prefixes of up to 8 bytes; the zero padding is ambiguous with NUL
// bytes, which is why PrefixSum also checks the label length.
func headOf(s string) uint64 {
	if len(s) >= 8 {
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var h uint64
	for i := 0; i < len(s); i++ {
		h |= uint64(s[i]) << (56 - 8*i)
	}
	return h
}

// bucket is one distinct counter value: the nodes holding it are
// perm[start:end]; ranges partition perm with counts strictly descending
// left to right. While a bucket is on the free-list, its start field holds
// the index of the next free bucket.
type bucket struct {
	count      int64
	start, end int32
}

// Summary is a Stream-Summary structure. The zero value is not usable; call
// New.
type Summary struct {
	table      []uint64 // item index: entry(node slot, tag), 0 when empty
	nodes      []node
	heads      []uint64 // headOf(nodes[i].item), 0 for a vacant slot
	perm       []int32  // live node indices grouped by bucket, counts descending
	buckets    []bucket
	freeNode   int32 // head of the vacant-node free-list, none when empty
	freeBucket int32 // head of the vacant-bucket free-list, none when empty
	total      int64 // sum of all counters
}

// New returns an empty Summary with capacity hint cap (the expected number of
// bins; the structure itself does not enforce a maximum size — the sketch
// layered on top does). All the slabs are pre-sized so a summary that
// stays within the hint reaches steady state without any slab growth: the
// bucket slab gets one extra slot because bump allocates the count+1 bucket
// before retiring the emptied one, and the table holds the hint at load
// ½ or less.
func New(cap int) *Summary {
	if cap < 0 {
		cap = 0
	}
	return &Summary{
		table:      make([]uint64, tableLen(cap)),
		nodes:      make([]node, 0, cap),
		heads:      make([]uint64, 0, cap),
		perm:       make([]int32, 0, cap),
		buckets:    make([]bucket, 0, cap+1),
		freeNode:   none,
		freeBucket: none,
	}
}

// allocNode pops a vacant slot off the free-list or grows the slab.
func (s *Summary) allocNode(item string) int32 {
	if ni := s.freeNode; ni != none {
		s.freeNode = s.nodes[ni].bucket
		s.nodes[ni] = node{item: item}
		s.heads[ni] = headOf(item)
		return ni
	}
	s.nodes = append(s.nodes, node{item: item})
	s.heads = append(s.heads, headOf(item))
	return int32(len(s.nodes) - 1)
}

// lookup returns item's table position and node slot, or, when item is
// absent, the first empty position on its probe chain and none. A tag
// match costs one label comparison; any other slot costs nothing more.
func (s *Summary) lookup(item string, tag uint32) (pos uint32, ni int32) {
	table := s.table
	mask := uint32(len(table) - 1)
	for pos = tag & mask; ; pos = (pos + 1) & mask {
		e := table[pos]
		if e == 0 {
			return pos, none
		}
		if uint32(e) == tag {
			if ni := int32(e>>32) - 1; s.nodes[ni].item == item {
				return pos, ni
			}
		}
	}
}

// find returns item's node slot, or none when item is absent.
func (s *Summary) find(item string) int32 {
	_, ni := s.lookup(item, tagOf(item))
	return ni
}

// place stores e in the first empty slot of its probe chain. The caller
// knows e's label is absent.
func (s *Summary) place(e uint64) {
	table := s.table
	mask := uint32(len(table) - 1)
	pos := uint32(e) & mask
	for table[pos] != 0 {
		pos = (pos + 1) & mask
	}
	table[pos] = e
}

// unplace empties the slot at pos by backward-shift deletion: each later
// entry of the probe chain whose home lies at or before the hole moves
// into it, so no lookup ever meets an empty slot before its item.
func (s *Summary) unplace(pos uint32) {
	table := s.table
	mask := uint32(len(table) - 1)
	for j := (pos + 1) & mask; table[j] != 0; j = (j + 1) & mask {
		// (j - tag) & mask is the entry's distance from its home.
		if (j-uint32(table[j]))&mask >= (j-pos)&mask {
			table[pos] = table[j]
			pos = j
		}
	}
	table[pos] = 0
}

// reserve doubles the table until n items fill at most half of it. The
// tags in the entries give each one's new home, so no label is rehashed.
func (s *Summary) reserve(n int) {
	if 2*n <= len(s.table) {
		return
	}
	old := s.table
	s.table = make([]uint64, tableLen(n))
	for _, e := range old {
		if e != 0 {
			s.place(e)
		}
	}
}

// LoadDescending bulk-loads (item, count) pairs — counts non-increasing,
// all positive — into an empty summary in one pass: nodes and perm slots
// are appended in order, each run of equal counts becomes one bucket, and
// each item costs exactly one table probe. A probe that finds its item
// already loaded adds no entry, so a duplicate is detected after the fact
// by the table holding fewer entries than the node slab. On error the
// summary is left partially loaded and must be discarded.
func (s *Summary) LoadDescending(bins []Bin) error {
	if len(s.perm) != 0 || len(s.nodes) != 0 {
		return fmt.Errorf("streamsummary: load into non-empty summary")
	}
	s.reserve(len(bins))
	entries := 0
	prev := int64(math.MaxInt64)
	bi := none
	for _, b := range bins {
		if b.Count <= 0 {
			return fmt.Errorf("streamsummary: load count %d for %q, want > 0", b.Count, b.Item)
		}
		if b.Count > prev {
			return fmt.Errorf("streamsummary: load input not in descending count order")
		}
		ni := int32(len(s.nodes))
		pos := int32(len(s.perm))
		// bi == none guards the first bin: a count of MaxInt64 collides
		// with prev's sentinel but still needs its bucket.
		if bi == none || b.Count < prev {
			bi = s.allocBucket(b.Count, pos, pos)
			prev = b.Count
		}
		s.nodes = append(s.nodes, node{item: b.Item, bucket: bi, pos: pos})
		s.heads = append(s.heads, headOf(b.Item))
		s.perm = append(s.perm, ni)
		s.buckets[bi].end++
		tag := tagOf(b.Item)
		if pos, dup := s.lookup(b.Item, tag); dup == none {
			s.table[pos] = entry(ni, tag)
			entries++
		}
		s.total += b.Count
	}
	if entries != len(s.perm) {
		// Size mismatch proves a duplicate exists; rescan (error path
		// only) to name it for the caller's diagnostics.
		seen := make(map[string]struct{}, len(bins))
		for _, b := range bins {
			if _, dup := seen[b.Item]; dup {
				return fmt.Errorf("streamsummary: load lists %q twice", b.Item)
			}
			seen[b.Item] = struct{}{}
		}
		return fmt.Errorf("streamsummary: duplicate item in load")
	}
	return nil
}

// releaseNode pushes a node slot onto the free-list, clearing its item (so
// the slab does not pin the string) and its head.
func (s *Summary) releaseNode(ni int32) {
	s.nodes[ni] = node{bucket: s.freeNode}
	s.heads[ni] = 0
	s.freeNode = ni
}

// allocBucket pops a recycled bucket record or grows the bucket slab.
func (s *Summary) allocBucket(count int64, start, end int32) int32 {
	if bi := s.freeBucket; bi != none {
		s.freeBucket = s.buckets[bi].start
		s.buckets[bi] = bucket{count: count, start: start, end: end}
		return bi
	}
	s.buckets = append(s.buckets, bucket{count: count, start: start, end: end})
	return int32(len(s.buckets) - 1)
}

// releaseBucket pushes an empty bucket record onto the free-list, linking
// through the start field.
func (s *Summary) releaseBucket(bi int32) {
	s.buckets[bi] = bucket{start: s.freeBucket}
	s.freeBucket = bi
}

// Len returns the number of bins currently stored.
func (s *Summary) Len() int { return len(s.perm) }

// Total returns the sum of all counters.
func (s *Summary) Total() int64 { return s.total }

// Count returns item's counter and whether the item is present.
func (s *Summary) Count(item string) (int64, bool) {
	ni := s.find(item)
	if ni == none {
		return 0, false
	}
	return s.buckets[s.nodes[ni].bucket].count, true
}

// Contains reports whether item labels one of the bins.
func (s *Summary) Contains(item string) bool { return s.find(item) != none }

// MinCount returns the smallest counter value, or 0 when the summary is
// empty.
func (s *Summary) MinCount() int64 {
	if len(s.perm) == 0 {
		return 0
	}
	return s.buckets[s.nodes[s.perm[len(s.perm)-1]].bucket].count
}

// MaxCount returns the largest counter value, or 0 when the summary is empty.
func (s *Summary) MaxCount() int64 {
	if len(s.perm) == 0 {
		return 0
	}
	return s.buckets[s.nodes[s.perm[0]].bucket].count
}

// NumMin returns how many bins share the minimum counter value.
func (s *Summary) NumMin() int {
	L := int32(len(s.perm))
	if L == 0 {
		return 0
	}
	// The minimum bucket's range always ends at L.
	return int(L - s.buckets[s.nodes[s.perm[L-1]].bucket].start)
}

// Insert adds a new bin (item, count). It panics if the item is already
// present; use Increment for existing items. Insert is O(1) when count is
// <= the current minimum — the only case Space-Saving's fill phase feeds
// (fresh bins start at 0 or 1 while tracked bins are >= 1), and the order
// RestoreUnit feeds (descending) — and O(#buckets with a smaller count)
// otherwise: each such bucket rotates one element to open the slot.
func (s *Summary) Insert(item string, count int64) {
	s.reserve(len(s.perm) + 1)
	tag := tagOf(item)
	pos, dup := s.lookup(item, tag)
	if dup != none {
		panic(fmt.Sprintf("streamsummary: duplicate insert of %q", item))
	}
	ni := s.allocNode(item)
	s.table[pos] = entry(ni, tag)
	s.total += count

	hole := int32(len(s.perm))
	s.perm = append(s.perm, ni)
	// Rotate every bucket with a smaller count one slot right: its first
	// element moves into the hole past its end, and its range shifts.
	// The hole climbs to the insertion point; a new minimum stops at once.
	for hole > 0 {
		gi := s.nodes[s.perm[hole-1]].bucket
		g := &s.buckets[gi]
		if g.count >= count {
			break
		}
		first := s.perm[g.start]
		s.perm[hole] = first
		s.nodes[first].pos = hole
		hole = g.start
		g.start++
		g.end++
	}
	var bi int32
	if hole > 0 {
		if above := s.nodes[s.perm[hole-1]].bucket; s.buckets[above].count == count {
			bi = above
			s.buckets[bi].end++
		} else {
			bi = s.allocBucket(count, hole, hole+1)
		}
	} else {
		bi = s.allocBucket(count, 0, 1)
	}
	s.perm[hole] = ni
	s.nodes[ni].pos = hole
	s.nodes[ni].bucket = bi
}

// Remove deletes item's bin entirely, returning its counter value. The
// vacated node (and bucket, if it emptied) go onto the free-lists for
// reuse. O(#buckets with a smaller count): each rotates one element left
// to close the gap.
//
// Space-Saving itself never removes bins (evictions relabel in place), so
// no sketch path calls this; it exists for dynamic-universe maintenance
// layered on top — expiring decayed bins, dropping blocklisted keys — and
// it is what exercises the node free-list (see FuzzStreamSummaryOps).
func (s *Summary) Remove(item string) (count int64, ok bool) {
	pos, ni := s.lookup(item, tagOf(item))
	if ni == none {
		return 0, false
	}
	bi := s.nodes[ni].bucket
	b := &s.buckets[bi]
	count = b.count
	// Swap the node to the last slot of its bucket's range, shrink the
	// range, then rotate every later bucket one slot left over the hole.
	last := b.end - 1
	if p := s.nodes[ni].pos; p != last {
		other := s.perm[last]
		s.perm[p] = other
		s.nodes[other].pos = p
	}
	hole := last
	b.end--
	emptied := b.start == b.end
	top := int32(len(s.perm)) - 1
	for hole < top {
		gi := s.nodes[s.perm[hole+1]].bucket
		g := &s.buckets[gi]
		moved := s.perm[g.end-1]
		s.perm[hole] = moved
		s.nodes[moved].pos = hole
		hole = g.end - 1
		g.start--
		g.end--
	}
	s.perm = s.perm[:top]
	if emptied {
		s.releaseBucket(bi)
	}
	s.unplace(pos)
	s.releaseNode(ni)
	s.total -= count
	return count, true
}

// Increment adds 1 to item's counter, moving it to the adjacent bucket.
// It reports whether the item was present.
func (s *Summary) Increment(item string) bool {
	ni := s.find(item)
	if ni == none {
		return false
	}
	s.bump(ni)
	return true
}

// bump moves ni from its bucket to the count+1 bucket — the adjacent
// range to the left: one swap to the bucket's first slot plus two range
// adjustments. A needed bucket record is recycled off the free-list and
// an emptied one retired to it, so the operation is O(1) and
// allocation-free in steady state.
func (s *Summary) bump(ni int32) {
	// Slab headers don't change during a bump (only allocBucket can grow a
	// slab, and only the bucket one), so hoist them out of the indexing.
	nodes, perm := s.nodes, s.perm
	n := &nodes[ni]
	bi := n.bucket
	b := &s.buckets[bi]
	target := b.count + 1
	first := b.start
	if p := n.pos; p != first {
		other := perm[first]
		perm[p] = other
		nodes[other].pos = p
		perm[first] = ni
		n.pos = first
	}
	if first > 0 {
		if nbi := nodes[perm[first-1]].bucket; s.buckets[nbi].count == target {
			// Adjacent bucket already holds count+1: shift the boundary.
			b.start = first + 1
			s.buckets[nbi].end = first + 1
			n.bucket = nbi
			if b.start == b.end {
				s.releaseBucket(bi)
			}
			s.total++
			return
		}
	}
	// Splice a single-slot bucket at the boundary. allocBucket may grow the
	// bucket slab, so finish all reads/writes through b first.
	b.start = first + 1
	emptied := b.start == b.end
	nbi := s.allocBucket(target, first, first+1)
	n.bucket = nbi
	if emptied {
		s.releaseBucket(bi)
	}
	s.total++
}

// IntN is the source of randomness used for tie-breaking: it must return a
// uniform integer in [0, n). math/rand.Rand.Intn satisfies it.
type IntN interface {
	Intn(n int) int
}

// randomMin returns a uniformly random node index among the minimum-count
// bins, or none when empty. The minimum bucket is the final range
// perm[start:len(perm)], so the pick is a single indexed load.
func (s *Summary) randomMin(rng IntN) int32 {
	L := int32(len(s.perm))
	if L == 0 {
		return none
	}
	start := s.buckets[s.nodes[s.perm[L-1]].bucket].start
	if start == L-1 {
		return s.perm[L-1]
	}
	return s.perm[start+int32(rng.Intn(int(L-start)))]
}

// IncrementRandomMin picks a uniformly random minimum bin and increments it,
// keeping its current label. It returns the previous minimum count, or false
// when the summary is empty.
func (s *Summary) IncrementRandomMin(rng IntN) (prevMin int64, ok bool) {
	ni := s.randomMin(rng)
	if ni == none {
		return 0, false
	}
	prevMin = s.buckets[s.nodes[ni].bucket].count
	s.bump(ni)
	return prevMin, true
}

// ReplaceRandomMin picks a uniformly random minimum bin, increments it and
// relabels it to newItem. It returns the previous minimum count and the
// evicted label. It panics if newItem is already present.
func (s *Summary) ReplaceRandomMin(newItem string, rng IntN) (prevMin int64, evicted string, ok bool) {
	tag := tagOf(newItem)
	if _, dup := s.lookup(newItem, tag); dup != none {
		panic(fmt.Sprintf("streamsummary: ReplaceRandomMin with existing item %q", newItem))
	}
	ni := s.randomMin(rng)
	if ni == none {
		return 0, "", false
	}
	n := &s.nodes[ni]
	prevMin = s.buckets[n.bucket].count
	evicted = n.item
	pos, _ := s.lookup(evicted, tagOf(evicted))
	s.unplace(pos)
	// The shift may have emptied a slot on newItem's chain ahead of the
	// one the duplicate check ended at, so place probes afresh.
	s.place(entry(ni, tag))
	n.item = newItem
	s.heads[ni] = headOf(newItem)
	s.bump(ni)
	return prevMin, evicted, true
}

// Bin is one (item, count) pair exported from the summary.
type Bin struct {
	Item  string
	Count int64
}

// Bins returns all bins in ascending count order (perm stores counts
// descending, so this walks it backward). The slice is freshly allocated.
func (s *Summary) Bins() []Bin {
	out := make([]Bin, 0, len(s.perm))
	for i := len(s.perm) - 1; i >= 0; i-- {
		n := &s.nodes[s.perm[i]]
		out = append(out, Bin{Item: n.item, Count: s.buckets[n.bucket].count})
	}
	return out
}

// Each calls fn for every bin in ascending count order; it stops early if fn
// returns false.
func (s *Summary) Each(fn func(item string, count int64) bool) {
	for i := len(s.perm) - 1; i >= 0; i-- {
		n := &s.nodes[s.perm[i]]
		if !fn(n.item, s.buckets[n.bucket].count) {
			return
		}
	}
}

// PrefixSum returns the summed count and the number of bins whose label
// begins with prefix — the subset sum of strings.HasPrefix without
// reading every label. It walks perm once and tests each bin's head word
// under a mask of the prefix's first 8 bytes; only on a head match does
// it read the node, for the label length (the head's zero padding cannot
// tell a short label from one with NUL bytes) and, for prefixes longer
// than 8 bytes, the label bytes past the head. Counts are added as
// float64 in the order Each visits bins, so the sum is bit-identical to
// a predicate scan's.
func (s *Summary) PrefixSum(prefix string) (sum float64, hits int) {
	n := len(prefix)
	want := headOf(prefix)
	mask := ^uint64(0)
	if n < 8 {
		mask = ^(mask >> (8 * n))
	}
	tail := ""
	if n > 8 {
		tail = prefix[8:]
	}
	perm, heads, nodes := s.perm, s.heads, s.nodes
	for i := len(perm) - 1; i >= 0; i-- {
		ni := perm[i]
		if heads[ni]&mask != want {
			continue
		}
		nd := &nodes[ni]
		if len(nd.item) < n || tail != "" && nd.item[8:n] != tail {
			continue
		}
		sum += float64(s.buckets[nd.bucket].count)
		hits++
	}
	return sum, hits
}

// ItemsSum returns the summed count and the number of bins labelled by
// one of items, counting each bin once however often its label is
// listed. It costs one index probe per listed item, not a walk of the
// bins, and allocates nothing for up to 32 matched items. Like PrefixSum
// it adds counts in Each's order, so the sum is bit-identical to a
// predicate scan's.
func (s *Summary) ItemsSum(items []string) (sum float64, hits int) {
	var buf [32]int32
	found := buf[:0]
	for _, it := range items {
		if ni := s.find(it); ni != none {
			found = append(found, s.nodes[ni].pos)
		}
	}
	// Each visits perm positions in descending order. Sorting the matched
	// positions gives that order and puts a repeated label's (equal)
	// positions side by side.
	slices.Sort(found)
	prev := none
	for i := len(found) - 1; i >= 0; i-- {
		p := found[i]
		if p == prev {
			continue
		}
		prev = p
		sum += float64(s.buckets[s.nodes[s.perm[p]].bucket].count)
		hits++
	}
	return sum, hits
}

// CheckInvariants validates internal consistency: the perm array is a
// permutation of the live nodes, partitioned into contiguous bucket ranges
// with strictly ascending counts; positions, back-references, the table
// (see checkTable) and total mass agree; every live node's head word
// matches its label; and every slab slot is either live or on exactly one
// free-list, with free slots properly scrubbed (no item, zero head). It is
// exported for tests and returns a descriptive error on the first
// violation found.
func (s *Summary) CheckInvariants() error {
	L := int32(len(s.perm))
	if len(s.heads) != len(s.nodes) {
		return fmt.Errorf("head slab holds %d slots, node slab %d", len(s.heads), len(s.nodes))
	}
	seenNode := make([]bool, len(s.nodes))
	seenBucket := make([]bool, len(s.buckets))
	liveBuckets := 0
	var sum int64
	cur := none // bucket whose range we are inside
	var curEnd int32
	var prevCount int64
	for i := int32(0); i < L; i++ {
		ni := s.perm[i]
		if ni < 0 || int(ni) >= len(s.nodes) {
			return fmt.Errorf("perm[%d] = %d out of node slab range %d", i, ni, len(s.nodes))
		}
		if seenNode[ni] {
			return fmt.Errorf("node %d appears twice in perm", ni)
		}
		seenNode[ni] = true
		n := &s.nodes[ni]
		if n.pos != i {
			return fmt.Errorf("node %q has pos %d, want %d", n.item, n.pos, i)
		}
		if got := s.find(n.item); got != ni {
			return fmt.Errorf("table finds node %d for %q, want %d", got, n.item, ni)
		}
		if want := headOf(n.item); s.heads[ni] != want {
			return fmt.Errorf("node %q has head %#016x, want %#016x", n.item, s.heads[ni], want)
		}
		bi := n.bucket
		if bi < 0 || int(bi) >= len(s.buckets) {
			return fmt.Errorf("node %q has bucket %d out of slab range %d", n.item, bi, len(s.buckets))
		}
		if i == curEnd {
			// A new bucket range must begin exactly here.
			b := &s.buckets[bi]
			if seenBucket[bi] {
				return fmt.Errorf("bucket %d owns two ranges", bi)
			}
			seenBucket[bi] = true
			liveBuckets++
			if b.start != i {
				return fmt.Errorf("bucket %d starts at %d, but its range begins at %d", bi, b.start, i)
			}
			if b.end <= b.start || b.end > L {
				return fmt.Errorf("bucket %d has bad range [%d,%d) with %d live", bi, b.start, b.end, L)
			}
			if cur != none && b.count >= prevCount {
				return fmt.Errorf("bucket counts not strictly descending: %d then %d", prevCount, b.count)
			}
			cur, curEnd, prevCount = bi, b.end, b.count
		} else if bi != cur {
			return fmt.Errorf("node %q sits inside bucket %d's range but claims bucket %d", n.item, cur, bi)
		}
		sum += prevCount
	}
	if curEnd != L {
		return fmt.Errorf("last bucket range ends at %d, want %d", curEnd, L)
	}
	if sum != s.total {
		return fmt.Errorf("total %d, want %d", s.total, sum)
	}
	// Before the free-list walk seenNode marks exactly the live nodes.
	if err := s.checkTable(seenNode); err != nil {
		return err
	}
	// Free-list accounting: walk each free-list; the seen arrays double as
	// cycle and live/free-overlap detectors.
	freeBuckets := 0
	for bi := s.freeBucket; bi != none; bi = s.buckets[bi].start {
		if bi < 0 || int(bi) >= len(s.buckets) {
			return fmt.Errorf("free bucket index %d out of slab range %d", bi, len(s.buckets))
		}
		if seenBucket[bi] {
			return fmt.Errorf("bucket %d is both live and free (or free-list cycle)", bi)
		}
		seenBucket[bi] = true
		freeBuckets++
	}
	if liveBuckets+freeBuckets != len(s.buckets) {
		return fmt.Errorf("bucket slab holds %d slots, %d live + %d free", len(s.buckets), liveBuckets, freeBuckets)
	}
	freeNodes := 0
	for ni := s.freeNode; ni != none; ni = s.nodes[ni].bucket {
		if ni < 0 || int(ni) >= len(s.nodes) {
			return fmt.Errorf("free node index %d out of slab range %d", ni, len(s.nodes))
		}
		if seenNode[ni] {
			return fmt.Errorf("node %d is both live and free (or free-list cycle)", ni)
		}
		seenNode[ni] = true
		if s.nodes[ni].item != "" {
			return fmt.Errorf("free node %d still pins item %q", ni, s.nodes[ni].item)
		}
		if s.heads[ni] != 0 {
			return fmt.Errorf("free node %d keeps head %#016x", ni, s.heads[ni])
		}
		freeNodes++
	}
	if int(L)+freeNodes != len(s.nodes) {
		return fmt.Errorf("node slab holds %d slots, %d live + %d free", len(s.nodes), L, freeNodes)
	}
	return nil
}

// checkTable audits the table slot by slot against the live nodes
// (live[ni] marks them): every used slot names a live node whose label
// hashes to the slot's tag, with no empty slot between the tag's home and
// the slot; no node has two slots and used slots number Len(), so every
// live node has exactly one; and the table is a power of two at most half
// full.
func (s *Summary) checkTable(live []bool) error {
	size := len(s.table)
	if size == 0 || size&(size-1) != 0 {
		return fmt.Errorf("table length %d is not a power of two", size)
	}
	mask := uint32(size - 1)
	indexed := make([]bool, len(s.nodes))
	used := 0
	for i, e := range s.table {
		if e == 0 {
			continue
		}
		used++
		ni := int32(e>>32) - 1
		if ni < 0 || int(ni) >= len(s.nodes) || !live[ni] {
			return fmt.Errorf("table slot %d names node %d, which is not live", i, ni)
		}
		if indexed[ni] {
			return fmt.Errorf("node %d has two table slots", ni)
		}
		indexed[ni] = true
		item, tag := s.nodes[ni].item, uint32(e)
		if want := tagOf(item); tag != want {
			return fmt.Errorf("table slot %d tags %q %#08x, want %#08x", i, item, tag, want)
		}
		for j := tag & mask; j != uint32(i); j = (j + 1) & mask {
			if s.table[j] == 0 {
				return fmt.Errorf("%q sits at table slot %d past empty slot %d of its probe chain", item, i, j)
			}
		}
	}
	if used != len(s.perm) {
		return fmt.Errorf("table holds %d entries, perm %d nodes", used, len(s.perm))
	}
	if 2*used > size {
		return fmt.Errorf("table holds %d entries in %d slots, over half full", used, size)
	}
	return nil
}
