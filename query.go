package uss

import (
	"maps"

	"repro/internal/query"
)

// This file exposes the SQL-template evaluator of §2 of the paper:
//
//	SELECT sum(1), dimensions FROM sketch WHERE filters GROUP BY dimensions
//
// over sketches whose item labels encode dimension tuples as
// "dim=value|dim=value" (the natural encoding for composite units of
// analysis such as (advertiser, ad) or (src, dst)).
//
// Evaluation is columnar (internal/labelidx): labels are parsed once per
// sketch epoch into dictionary-encoded integer columns, revalidated by
// sketch version counters, so repeated queries against an unchanged
// sketch never re-parse. One-shot helpers (RunQuery, RunQueryWeighted,
// ShardedSketch.RunQuery) return fresh result slices; the QueryEngine /
// PreparedQuery API additionally amortizes per-query compilation and
// output buffers, making repeat evaluation allocation-free.

// QueryFilter is one WHERE condition: the dimension must take one of the
// listed values. Filters AND together; values within a filter OR.
type QueryFilter = query.Filter

// QueryGroup is one output row of RunQuery.
type QueryGroup = query.Group

// QuerySpec describes a query: optional filters and optional group-by
// dimensions (empty group-by returns one global aggregate).
type QuerySpec = query.Query

// WhereEq builds a single-value equality filter.
func WhereEq(dim, value string) QueryFilter { return query.Eq(dim, value) }

// copyGroups detaches engine-owned result buffers — the slice and each
// group's Key map — before they cross an API boundary whose callers may
// retain or mutate results across queries.
func copyGroups(groups []QueryGroup) []QueryGroup {
	if len(groups) == 0 {
		return nil
	}
	out := append([]QueryGroup(nil), groups...)
	for i := range out {
		out[i].Key = maps.Clone(out[i].Key)
	}
	return out
}

// RunQuery evaluates the query against a unit sketch. Labels that do not
// parse as dimension tuples are skipped and tallied in skipped. Groups
// carry unbiased estimated sums with equation-5 standard errors and are
// sorted by descending estimate.
//
// The sketch's label index is cached and revalidated by version, so
// repeated queries against an unchanged sketch skip all label parsing.
// Concurrent RunQuery calls on one sketch serialize on an internal mutex
// and are safe with each other (though not with concurrent updates —
// the sketch itself is single-writer).
func RunQuery(s *Sketch, q QuerySpec) (groups []QueryGroup, skipped int, err error) {
	s.queryMu.Lock()
	defer s.queryMu.Unlock()
	if s.qe == nil {
		s.qe = query.NewEngine(s.core)
	}
	g, skipped, err := s.qe.Run(q)
	return copyGroups(g), skipped, err
}

// RunQueryWeighted evaluates the query against a weighted sketch, with
// the same caching and concurrency behaviour as RunQuery.
func RunQueryWeighted(s *WeightedSketch, q QuerySpec) (groups []QueryGroup, skipped int, err error) {
	s.queryMu.Lock()
	defer s.queryMu.Unlock()
	if s.qe == nil {
		s.qe = query.NewEngine(s.core)
	}
	g, skipped, err := s.qe.Run(q)
	return copyGroups(g), skipped, err
}

// QueryEngine amortizes the columnar label index over many queries
// against one sketch. The index rebuilds only when the sketch's version
// counter moves (for ShardedSketch, when a shard mutates); on a quiescent
// sketch every query runs on already-parsed integer columns.
//
// A QueryEngine is owned by one goroutine at a time. Concurrent readers
// of a ShardedSketch should each hold their own engine — the underlying
// snapshot and index are shared, so extra engines cost almost nothing.
type QueryEngine struct {
	eng *query.Engine
}

// QueryEngine returns an engine over this sketch. The engine reads the
// sketch's live state on every query (revalidated by version); it must
// only be used by one goroutine at a time, like the sketch itself.
func (s *Sketch) QueryEngine() *QueryEngine {
	return &QueryEngine{eng: query.NewEngine(s.core)}
}

// QueryEngine returns an engine over this weighted sketch.
func (s *WeightedSketch) QueryEngine() *QueryEngine {
	return &QueryEngine{eng: query.NewEngine(s.core)}
}

// Run evaluates q through the engine, returning a fresh result slice.
func (e *QueryEngine) Run(q QuerySpec) (groups []QueryGroup, skipped int, err error) {
	g, skipped, err := e.eng.Run(q)
	return copyGroups(g), skipped, err
}

// Prepare compiles q against the engine for repeated evaluation. The
// compilation (filter bitmaps, packed group-by layout, output buffers) is
// reused across runs and recompiled automatically if the sketch changes.
func (e *QueryEngine) Prepare(q QuerySpec) *PreparedQuery {
	return &PreparedQuery{p: e.eng.Prepare(q)}
}

// PreparedQuery is a compiled query bound to one engine. Repeated Run
// calls against an unchanged sketch return the groups the last
// evaluation sorted, without scanning again, and allocate nothing: the
// result slice, its Key maps and KeyPairs are owned by the PreparedQuery,
// so callers must not modify them and must copy results they retain
// across runs.
type PreparedQuery struct {
	p *query.Prepared
}

// Run evaluates the prepared query against the sketch's current state.
func (p *PreparedQuery) Run() (groups []QueryGroup, skipped int, err error) {
	return p.p.Run()
}

// GuaranteedFrequent returns the bins certainly above frequency phi: their
// deterministic lower bound count − MinCount exceeds phi·Total. See
// FrequentItems for the inclusive (recall-oriented) variant.
func (s *Sketch) GuaranteedFrequent(phi float64) []Bin { return s.core.GuaranteedFrequent(phi) }
