// Package core implements the Space-Saving family of sketches from
// "Data Sketches for Disaggregated Subset Sum and Frequent Item Estimation"
// (Daniel Ting, SIGMOD 2018), together with the merge reductions, variance
// estimator and time-decay generalizations the paper derives.
//
// The central type is Sketch, which runs Algorithm 1 of the paper in either
// of two modes:
//
//   - Deterministic: the classic Space Saving sketch of Metwally et al.
//     A row whose item is not tracked always steals the minimum bin's label.
//   - Unbiased: the paper's contribution. The label is stolen only with
//     probability 1/(Nmin+1), which makes every per-item estimated count an
//     unbiased estimator (Theorem 1) and therefore makes any subset-sum
//     query over the sketch unbiased.
//
// Unit-weight updates run in O(1) via the Stream-Summary structure
// (internal/streamsummary). Real-valued and decayed updates are provided by
// WeightedSketch, which trades the O(1) bucket list for an O(log m) heap.
//
// # Ownership and concurrency contracts
//
// Sketches are single-writer and unsynchronized: callers serialize
// mutation externally (uss.ShardedSketch packages the standard pattern).
// Both Sketch and WeightedSketch expose a Version counter that advances
// on every mutation; the cached read paths (internal/query engines,
// uss.ShardedSketch's snapshot cache, internal/rollup's merge tree)
// revalidate derived state against it rather than re-reading the sketch.
// Query-style results (Bins, TopK, SelectTop, the merge kernels) return
// freshly allocated, caller-owned slices; the Append* variants
// (AppendBins) write into a caller-supplied buffer instead and are the
// allocation-free path. Item strings are shared, never copied: a bin's
// Item is the same string the caller passed to Update (or, after a
// restore, a slice of the decoded arena — see internal/wire).
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/streamsummary"
)

// Mode selects which Space-Saving variant a Sketch runs.
type Mode int

const (
	// Unbiased randomizes label replacement with probability 1/(Nmin+1)
	// (Ting 2018, Algorithm 1 with p = 1/(Nmin+1)).
	Unbiased Mode = iota
	// Deterministic always replaces the minimum bin's label (Metwally et
	// al. 2005; p = 1).
	Deterministic
)

func (m Mode) String() string {
	switch m {
	case Unbiased:
		return "unbiased"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Bin is one (item, estimated count) pair held by a sketch.
type Bin struct {
	Item  string
	Count float64
}

// Sketch is a Space-Saving sketch over unit-weight rows. It maintains at
// most m (item, count) bins; queries take the counts at face value
// (Estimate) or sum them under a predicate (SubsetSum).
//
// A Sketch is not safe for concurrent use; wrap it or shard streams and
// Merge the results.
type Sketch struct {
	mode    Mode
	m       int
	sum     *streamsummary.Summary
	rng     *rand.Rand
	rows    int64
	version uint64
}

// New returns a sketch with m bins running the given mode. rng supplies the
// randomization; it must be non-nil for Unbiased mode (Deterministic mode
// uses it only for tie-breaking among minimum bins and accepts nil, in which
// case ties break arbitrarily but deterministically).
func New(m int, mode Mode, rng *rand.Rand) *Sketch {
	if m <= 0 {
		panic(fmt.Sprintf("core: sketch size m = %d, want > 0", m))
	}
	if mode == Unbiased && rng == nil {
		panic("core: Unbiased sketch requires a random source")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Sketch{mode: mode, m: m, sum: streamsummary.New(m), rng: rng}
}

// Mode returns the sketch's variant.
func (s *Sketch) Mode() Mode { return s.mode }

// Capacity returns m, the maximum number of bins.
func (s *Sketch) Capacity() int { return s.m }

// Size returns the number of bins currently occupied (≤ Capacity).
func (s *Sketch) Size() int { return s.sum.Len() }

// Rows returns the number of rows processed, t in the paper's notation.
func (s *Sketch) Rows() int64 { return s.rows }

// Version returns a counter that advances on every mutation. Readers that
// cache derived structures (query indexes, merged snapshots) revalidate by
// comparing versions; an unchanged version guarantees unchanged bins. Like
// the sketch itself it is not synchronized — concurrent wrappers keep
// their own atomic counters.
func (s *Sketch) Version() uint64 { return s.version }

// Total returns the sum of all bin counts. For unit updates this equals
// Rows() exactly, in both modes — Space Saving never loses mass.
func (s *Sketch) Total() float64 { return float64(s.sum.Total()) }

// MinCount returns N̂min, the smallest bin count (0 while the sketch has
// spare capacity).
func (s *Sketch) MinCount() float64 {
	if s.sum.Len() < s.m {
		return 0
	}
	return float64(s.sum.MinCount())
}

// Update processes one row whose unit of analysis is item.
func (s *Sketch) Update(item string) {
	s.rows++
	s.version++
	if s.sum.Increment(item) {
		return
	}
	if s.sum.Len() < s.m {
		// Equivalent to incrementing one of the initial count-0 bins:
		// the replacement probability 1/(0+1) is 1 in both modes.
		s.sum.Insert(item, 1)
		return
	}
	if s.mode == Deterministic {
		s.sum.ReplaceRandomMin(item, s.rng)
		return
	}
	nmin := s.sum.MinCount()
	// Replace the label with probability 1/(Nmin+1); otherwise increment
	// a random minimum bin keeping its label. Both branches pick the bin
	// uniformly among ties, as required by the analysis in §6.1.
	if s.rng.Int63n(nmin+1) == 0 {
		s.sum.ReplaceRandomMin(item, s.rng)
	} else {
		s.sum.IncrementRandomMin(s.rng)
	}
}

// UpdateAll processes a batch of rows in order.
func (s *Sketch) UpdateAll(items []string) {
	for _, it := range items {
		s.Update(it)
	}
}

// UpdateGather processes the rows items[idx[0]], items[idx[1]], … in
// order: the scatter-free half of the sharded batch path. Callers group
// row indices by destination sketch and feed each group through the same
// per-row loop as UpdateAll without copying the row strings themselves.
func (s *Sketch) UpdateGather(items []string, idx []int32) {
	for _, j := range idx {
		s.Update(items[j])
	}
}

// Contains reports whether item currently labels a bin.
func (s *Sketch) Contains(item string) bool { return s.sum.Contains(item) }

// Estimate returns the estimated count N̂ᵢ for item: the bin count if the
// item is tracked and 0 otherwise. In Unbiased mode this is an unbiased
// estimate of the item's true count (Theorem 1). In Deterministic mode it
// overestimates by at most MinCount.
func (s *Sketch) Estimate(item string) float64 {
	c, ok := s.sum.Count(item)
	if !ok {
		return 0
	}
	return float64(c)
}

// Bounds returns deterministic lower and upper bounds for item's true count
// under Deterministic mode: count-Nmin ≤ nᵢ ≤ count. For untracked items
// the bounds are [0, Nmin]. (In Unbiased mode the same bounds hold only in
// expectation and Bounds is still reported for diagnostics.)
func (s *Sketch) Bounds(item string) (lo, hi float64) {
	nmin := s.MinCount()
	c, ok := s.sum.Count(item)
	if !ok {
		return 0, nmin
	}
	lo = float64(c) - nmin
	if lo < 0 {
		lo = 0
	}
	return lo, float64(c)
}

// Bins returns all bins in ascending count order.
func (s *Sketch) Bins() []Bin {
	raw := s.sum.Bins()
	out := make([]Bin, len(raw))
	for i, b := range raw {
		out[i] = Bin{Item: b.Item, Count: float64(b.Count)}
	}
	return out
}

// AppendBins appends all bins to dst in ascending count order and returns
// the extended slice. With a caller-reused dst this is the allocation-free
// variant of Bins, used by the steady-state wire encoder.
func (s *Sketch) AppendBins(dst []Bin) []Bin {
	s.sum.Each(func(item string, count int64) bool {
		dst = append(dst, Bin{Item: item, Count: float64(count)})
		return true
	})
	return dst
}

// TopK returns the k largest bins in descending count order (ties broken by
// item label for determinism). k larger than Size is truncated. The
// selection streams the bins through a bounded min-heap — O(m log k) and a
// single allocation, shared with every other top-k query (select.go).
func (s *Sketch) TopK(k int) []Bin {
	if k > s.Size() {
		k = s.Size()
	}
	sel := newTopSelector(k)
	s.sum.Each(func(item string, count int64) bool {
		sel.offer(Bin{Item: item, Count: float64(count)})
		return true
	})
	return sel.take()
}

// FrequentItems returns the bins whose estimated relative frequency
// count/Total exceeds phi, in descending count order. With Deterministic
// mode this is the classic heavy-hitters query; with Unbiased mode the
// counts are additionally unbiased. The threshold is applied during the
// scan, so only qualifying bins are sorted.
func (s *Sketch) FrequentItems(phi float64) []Bin {
	tot := s.Total()
	if tot == 0 {
		return nil
	}
	var out []Bin
	s.sum.Each(func(item string, count int64) bool {
		if float64(count)/tot > phi {
			out = append(out, Bin{Item: item, Count: float64(count)})
		}
		return true
	})
	sortBins(out)
	return out
}

// GuaranteedFrequent returns the bins whose deterministic lower bound
// count − N̂min already exceeds phi·Total — items that are certainly above
// the frequency threshold under Deterministic mode (Metwally et al.'s
// guaranteed top-k query). Under Unbiased mode the same bound holds in
// expectation and the returned set is a high-precision subset of
// FrequentItems. Results are in descending count order.
func (s *Sketch) GuaranteedFrequent(phi float64) []Bin {
	tot := s.Total()
	if tot == 0 {
		return nil
	}
	nmin := s.MinCount()
	var out []Bin
	s.sum.Each(func(item string, count int64) bool {
		if float64(count)-nmin > phi*tot {
			out = append(out, Bin{Item: item, Count: float64(count)})
		}
		return true
	})
	sortBins(out)
	return out
}

// SubsetSum estimates Σᵢ∈S nᵢ for the subset S defined by pred over item
// labels. The returned Estimate carries the paper's variance estimate
// (equation 5): V̂ar = N̂min² · C_S with C_S = max(1, #sketch items in S).
//
// In Unbiased mode the point estimate is unbiased for any S, even across
// pathological stream orders (Theorem 2); the variance estimate is upward
// biased by construction, so confidence intervals are conservative.
func (s *Sketch) SubsetSum(pred func(item string) bool) Estimate {
	var sum float64
	var hits int
	s.sum.Each(func(item string, count int64) bool {
		if pred(item) {
			sum += float64(count)
			hits++
		}
		return true
	})
	return newEstimate(sum, hits, s.MinCount())
}

// SubsetSumPrefix is SubsetSum over strings.HasPrefix(item, prefix),
// bit for bit, answered from the Stream-Summary's per-bin head words
// instead of a predicate call and a label read per bin.
func (s *Sketch) SubsetSumPrefix(prefix string) Estimate {
	sum, hits := s.sum.PrefixSum(prefix)
	return newEstimate(sum, hits, s.MinCount())
}

// SubsetSumItems is SubsetSum over the set of listed items, bit for bit,
// answered with one index probe per item instead of a scan of every bin;
// an item listed twice counts once.
func (s *Sketch) SubsetSumItems(items ...string) Estimate {
	sum, hits := s.sum.ItemsSum(items)
	return newEstimate(sum, hits, s.MinCount())
}

// EstimateWithSE returns item's count estimate together with the single-item
// standard error implied by equation 5 (C_S = 1).
func (s *Sketch) EstimateWithSE(item string) Estimate {
	c, ok := s.sum.Count(item)
	hits := 0
	if ok {
		hits = 1
	}
	return newEstimate(float64(c), hits, s.MinCount())
}

// CheckInvariants verifies internal consistency; exported for tests.
func (s *Sketch) CheckInvariants() error {
	if err := s.sum.CheckInvariants(); err != nil {
		return err
	}
	if s.sum.Len() > s.m {
		return fmt.Errorf("sketch holds %d bins, capacity %d", s.sum.Len(), s.m)
	}
	if got, want := s.sum.Total(), s.rows; got != want {
		return fmt.Errorf("total mass %d, want %d rows", got, want)
	}
	return nil
}
