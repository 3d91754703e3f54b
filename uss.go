// Package uss provides Unbiased Space Saving, a data sketch for
// disaggregated subset sum estimation and frequent item identification,
// implementing "Data Sketches for Disaggregated Subset Sum and Frequent
// Item Estimation" (Daniel Ting, SIGMOD 2018).
//
// A Sketch ingests a stream of rows — one item label per row, e.g. one ad
// click per row keyed by (user, ad) — using a fixed budget of m bins, and
// afterwards answers:
//
//   - SubsetSum: an unbiased estimate of the number of rows whose item
//     satisfies an arbitrary predicate, with a variance estimate and
//     conservative normal confidence intervals, even though the per-item
//     totals were never materialized;
//   - TopK / FrequentItems: the heavy hitters, with estimated counts that
//     are unbiased (unlike classic frequent-item sketches) and, on i.i.d.
//     streams, strongly consistent.
//
// The sketch is a one-line randomization of the Space Saving sketch of
// Metwally et al.: when a row's item is untracked, the minimum bin is
// incremented and its label is replaced with probability 1/(Nmin+1) rather
// than always. That single change makes every count estimate an unbiased
// martingale while the frequent-item behaviour is preserved.
//
// WeightedSketch generalizes to real-valued row weights, DecayedSketch to
// time-decayed aggregation, and Merge combines sketches built on disjoint
// shards of data (distributed ingestion, or rollups across time windows)
// without losing unbiasedness.
//
// For concurrent ingestion use ShardedSketch (batched locking on the
// write side, a lock-free cached snapshot on the read side); for windowed
// data use Rollup (per-window sketches with incremental range queries);
// for shipping sketch state between processes use the binary snapshot
// codec (MarshalBinary, AppendBinary, DecodeBins, MergeBins). RunQuery
// and the QueryEngine family evaluate SQL-template queries over labels
// that encode dimension tuples. cmd/ussd serves all of this over HTTP as
// a multi-tenant sketch service.
//
// Quick start:
//
//	sk := uss.New(1024, uss.WithSeed(42))
//	for _, click := range clicks {
//	    sk.Update(click.UserID)
//	}
//	est := sk.SubsetSum(func(user string) bool { return inCohort(user) })
//	lo, hi := est.ConfidenceInterval(0.95)
package uss

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
)

// Bin is one (item, estimated count) pair held by a sketch.
type Bin = core.Bin

// Estimate is a subset-sum estimate with attached standard error; see
// (Estimate).ConfidenceInterval.
type Estimate = core.Estimate

// config collects construction options.
type config struct {
	rng           *rand.Rand
	deterministic bool
}

// Option configures sketch construction.
type Option func(*config)

// WithSeed seeds the sketch's private random source. Two sketches built
// with the same seed and fed the same stream are identical; use distinct
// seeds (or WithRand) in production.
func WithSeed(seed int64) Option {
	return func(c *config) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithRand supplies a random source directly. The sketch assumes sole
// ownership; do not share one *rand.Rand across goroutines.
func WithRand(r *rand.Rand) Option {
	return func(c *config) { c.rng = r }
}

// WithDeterministic switches the sketch to classic (biased) Space Saving —
// always steal the minimum bin's label. Useful for comparisons and for
// pure heavy-hitter workloads with i.i.d. data; subset sums from a
// deterministic sketch can be arbitrarily wrong on non-i.i.d. streams (see
// the paper's §6.3).
func WithDeterministic() Option {
	return func(c *config) { c.deterministic = true }
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(rand.Int63()))
	}
	return c
}

// Sketch is an Unbiased (or, optionally, Deterministic) Space Saving sketch
// over unit-weight rows. Updates are O(1). Not safe for concurrent use:
// writes need external synchronization, and only the read paths documented
// as such (RunQuery) serialize internally. For concurrent ingestion use
// ShardedSketch, or shard streams across sketches and Merge them.
type Sketch struct {
	core *core.Sketch
	// qe lazily caches RunQuery's columnar engine; it revalidates
	// against the core sketch's version counter, so it never serves
	// stale results and is dropped whenever core is replaced. queryMu
	// serializes RunQuery so concurrent read-only querying stays safe
	// even though the engine mutates its caches.
	queryMu sync.Mutex
	qe      *query.Engine
	// enc is AppendBinary's reused bin scratch, so steady-state encoding
	// into a caller-owned buffer allocates nothing.
	enc []core.Bin
}

// New returns a sketch with m bins. Memory use is Θ(m); estimation error
// for subset sums scales as roughly Total/m·√|S∩sketch| (see
// Estimate.StdErr).
func New(m int, opts ...Option) *Sketch {
	c := buildConfig(opts)
	mode := core.Unbiased
	if c.deterministic {
		mode = core.Deterministic
	}
	return &Sketch{core: core.New(m, mode, c.rng)}
}

// Update processes one row whose unit of analysis is item.
func (s *Sketch) Update(item string) { s.core.Update(item) }

// UpdateAll processes rows in order.
func (s *Sketch) UpdateAll(items []string) { s.core.UpdateAll(items) }

// Estimate returns the estimated count for item (0 when untracked). For an
// Unbiased sketch this is unbiased for every item, tracked or not.
func (s *Sketch) Estimate(item string) float64 { return s.core.Estimate(item) }

// EstimateWithSE returns item's estimate with its standard error.
func (s *Sketch) EstimateWithSE(item string) Estimate { return s.core.EstimateWithSE(item) }

// SubsetSum estimates the number of rows whose item satisfies pred.
func (s *Sketch) SubsetSum(pred func(item string) bool) Estimate { return s.core.SubsetSum(pred) }

// SubsetSumPrefix estimates the number of rows whose item begins with
// prefix. It equals SubsetSum with a strings.HasPrefix predicate, bit for
// bit, but tests an 8-byte head word per bin instead of reading labels.
func (s *Sketch) SubsetSumPrefix(prefix string) Estimate { return s.core.SubsetSumPrefix(prefix) }

// SubsetSumItems estimates the number of rows whose item is one of items
// (a set: repeats count once). It equals SubsetSum with a set-membership
// predicate, bit for bit, at one index probe per item instead of a scan.
func (s *Sketch) SubsetSumItems(items ...string) Estimate { return s.core.SubsetSumItems(items...) }

// Contains reports whether item currently labels a bin.
func (s *Sketch) Contains(item string) bool { return s.core.Contains(item) }

// TopK returns the k largest bins in descending count order.
func (s *Sketch) TopK(k int) []Bin { return s.core.TopK(k) }

// FrequentItems returns bins with estimated frequency above phi.
func (s *Sketch) FrequentItems(phi float64) []Bin { return s.core.FrequentItems(phi) }

// Bins returns all bins in ascending count order.
func (s *Sketch) Bins() []Bin { return s.core.Bins() }

// Bounds returns deterministic bounds for item's true count (tight for
// Deterministic mode; diagnostic for Unbiased mode).
func (s *Sketch) Bounds(item string) (lo, hi float64) { return s.core.Bounds(item) }

// Size returns the number of occupied bins; Capacity returns m.
func (s *Sketch) Size() int { return s.core.Size() }

// Capacity returns the bin budget m.
func (s *Sketch) Capacity() int { return s.core.Capacity() }

// Rows returns the number of rows processed.
func (s *Sketch) Rows() int64 { return s.core.Rows() }

// Version returns a counter that advances on every mutation, so an
// unchanged version guarantees unchanged bins. Like the sketch itself it
// is not synchronized: read it under the lock that guards updates.
func (s *Sketch) Version() uint64 { return s.core.Version() }

// Total returns the total mass in the sketch (== Rows for unit updates).
func (s *Sketch) Total() float64 { return s.core.Total() }

// MinCount returns the smallest bin count N̂min, which drives both the
// replacement probability and the variance estimate.
func (s *Sketch) MinCount() float64 { return s.core.MinCount() }

// Deterministic reports whether the sketch runs classic Space Saving.
func (s *Sketch) Deterministic() bool { return s.core.Mode() == core.Deterministic }

// ToWeighted converts the sketch into an independent WeightedSketch with
// the same bins — the gateway to weighted updates, Shrink/Grow resizing
// and decayed scaling on history accumulated through unit updates.
func (s *Sketch) ToWeighted() *WeightedSketch {
	return &WeightedSketch{core: s.core.ToWeighted()}
}

// WeightedSketch is the real-valued-weight generalization (paper §5.3):
// rows carry arbitrary positive weights (bytes per packet, revenue per
// event). Updates are O(log m).
type WeightedSketch struct {
	core *core.WeightedSketch
	// qe lazily caches RunQueryWeighted's columnar engine; see Sketch.qe.
	queryMu sync.Mutex
	qe      *query.Engine
	// enc is AppendBinary's reused bin scratch; see Sketch.enc.
	enc []core.Bin
}

// NewWeighted returns a weighted Unbiased Space Saving sketch with m bins.
func NewWeighted(m int, opts ...Option) *WeightedSketch {
	c := buildConfig(opts)
	return &WeightedSketch{core: core.NewWeighted(m, c.rng)}
}

// NewWeightedFromBins builds a WeightedSketch of capacity m directly from a
// bin list — the load half of the DecodeBins → MergeBins pipeline, for
// callers (such as a sketch server) that aggregate shipped bins and then
// need a queryable sketch. The load is direct-state, not an Update replay:
// no randomness is drawn, zero-count bins keep their identity, and the
// result is exactly the sketch a snapshot restore of the same bins would
// produce. Counts must be non-negative and finite, items distinct, and
// len(bins) ≤ m. The bins slice is not retained; the item strings are.
func NewWeightedFromBins(m int, bins []Bin, opts ...Option) (*WeightedSketch, error) {
	c := buildConfig(opts)
	w := core.NewWeighted(m, c.rng)
	if err := core.RestoreWeighted(w, bins, 0); err != nil {
		return nil, fmt.Errorf("uss: sketch from bins: %w", err)
	}
	return &WeightedSketch{core: w}, nil
}

// Update processes a row carrying weight w > 0 for item.
func (s *WeightedSketch) Update(item string, w float64) { s.core.Update(item, w) }

// UpdateSigned applies a signed weight; see the paper's signed-update
// extension. It reports false (no-op) for a negative update to an
// untracked item.
func (s *WeightedSketch) UpdateSigned(item string, w float64) bool {
	return s.core.UpdateSigned(item, w)
}

// Estimate returns item's estimated total weight.
func (s *WeightedSketch) Estimate(item string) float64 { return s.core.Estimate(item) }

// SubsetSum estimates the total weight of items satisfying pred.
func (s *WeightedSketch) SubsetSum(pred func(item string) bool) Estimate {
	return s.core.SubsetSum(pred)
}

// Contains reports whether item labels a bin.
func (s *WeightedSketch) Contains(item string) bool { return s.core.Contains(item) }

// Bins returns the bins (arbitrary order).
func (s *WeightedSketch) Bins() []Bin { return s.core.Bins() }

// TopK returns the k largest bins in descending count order (ties broken
// by ascending item label), selected with the shared O(n log k) heap used
// by every other top-k path. The returned slice is freshly allocated and
// caller-owned.
func (s *WeightedSketch) TopK(k int) []Bin { return core.SelectTop(s.core.Bins(), k) }

// Size returns the number of occupied bins; Capacity returns m.
func (s *WeightedSketch) Size() int { return s.core.Size() }

// Capacity returns the bin budget m.
func (s *WeightedSketch) Capacity() int { return s.core.Capacity() }

// Total returns the total weight ingested.
func (s *WeightedSketch) Total() float64 { return s.core.Total() }

// Version returns a counter that advances on every mutation; see
// (*Sketch).Version.
func (s *WeightedSketch) Version() uint64 { return s.core.Version() }

// MinCount returns the smallest bin count.
func (s *WeightedSketch) MinCount() float64 { return s.core.MinCount() }

// Shrink reduces the sketch in place to at most m bins with the given
// reduction and lowers its capacity (paper §5.3: adaptively varying the
// sketch size). With Pairwise or Pivotal, post-shrink estimates remain
// unbiased.
func (s *WeightedSketch) Shrink(m int, red Reduction) { s.core.Shrink(m, red.kind()) }

// Grow raises the sketch's capacity (no-op when m is not larger); existing
// bins are untouched and future reductions simply start later.
func (s *WeightedSketch) Grow(m int) { s.core.Grow(m) }

// DecayedSketch maintains forward-exponentially-decayed counts: a row at
// time a contributes weight exp(−λ(t−a)) to queries at time t. See paper
// §5.3 and Cormode et al. (2009).
type DecayedSketch struct {
	core *core.DecayedSketch
}

// NewDecayed returns a decayed sketch with m bins and decay rate lambda per
// unit time.
func NewDecayed(m int, lambda float64, opts ...Option) *DecayedSketch {
	c := buildConfig(opts)
	return &DecayedSketch{core: core.NewDecayed(m, lambda, c.rng)}
}

// Update processes a row for item at the given arrival time with undecayed
// weight w (1 for plain counting).
func (s *DecayedSketch) Update(item string, at, w float64) { s.core.Update(item, at, w) }

// Estimate returns item's decayed weight as of the latest arrival.
func (s *DecayedSketch) Estimate(item string) float64 { return s.core.Estimate(item) }

// SubsetSum estimates the decayed weight of items satisfying pred.
func (s *DecayedSketch) SubsetSum(pred func(item string) bool) Estimate {
	return s.core.SubsetSum(pred)
}

// Bins returns the bins with decayed counts.
func (s *DecayedSketch) Bins() []Bin { return s.core.Bins() }

// Total returns the decayed total mass.
func (s *DecayedSketch) Total() float64 { return s.core.Total() }

// Size returns the number of occupied bins.
func (s *DecayedSketch) Size() int { return s.core.Size() }
