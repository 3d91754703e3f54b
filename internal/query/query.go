// Package query evaluates the paper's motivating query template (§2)
//
//	SELECT sum(metric), dimensions
//	FROM table
//	WHERE filters
//	GROUP BY dimensions
//
// against a Space-Saving sketch instead of the raw table. Item labels are
// expected to encode dimension tuples as "dim=value" pairs joined by "|"
// (the encoding produced by workload.Impression.Key and common for
// composite units of analysis). Filters are arbitrary equality or set
// conditions on dimensions, chosen at query time; group-by emits one
// unbiased estimated sum per observed group, each with the equation-5
// standard error.
//
// Evaluation is columnar: an Engine parses a snapshot's labels once into
// a dictionary-encoded index (internal/labelidx) and revalidates it
// against the sketch's version counter, so filters run as integer
// comparisons and group keys pack into a uint64. A Prepared query reuses
// its compiled program and output buffers across runs, and keeps its
// last answer until the engine's index moves: a repeated evaluation
// against an unchanged sketch re-scans nothing and allocates nothing.
//
// Ownership: an Engine (and every Prepared compiled from it) is a
// single-goroutine owner of its caches and scratch; concurrent use needs
// one engine per goroutine (the underlying index is immutable and shared
// safely). Run results — the group slice, each Group's Key map and its
// KeyPairs — are engine-owned buffers reused by the next run on that
// engine: callers must not modify them, and callers that retain results
// across runs, or hand them across an API boundary, must deep-copy them
// (uss.RunQuery does exactly that).
package query

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/labelidx"
)

// Row is a parsed item label: dimension → value.
type Row map[string]string

// ParseRow splits an item label like "country=us|device=ios" into a Row.
// Malformed components are reported as errors.
func ParseRow(label string) (Row, error) {
	parts := strings.Split(label, "|")
	row := make(Row, len(parts))
	for _, p := range parts {
		eq := strings.IndexByte(p, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("query: malformed label component %q in %q", p, label)
		}
		row[p[:eq]] = p[eq+1:]
	}
	return row, nil
}

// Filter is one WHERE condition.
type Filter struct {
	// Dim is the dimension name.
	Dim string
	// In is the set of accepted values (OR within a filter; filters AND
	// together).
	In []string
}

// matches reports whether row passes the filter. A row lacking the
// dimension fails it.
func (f Filter) matches(row Row) bool {
	v, ok := row[f.Dim]
	if !ok {
		return false
	}
	for _, want := range f.In {
		if v == want {
			return true
		}
	}
	return false
}

// Eq is shorthand for a single-value equality filter.
func Eq(dim, value string) Filter { return Filter{Dim: dim, In: []string{value}} }

// Query is one SELECT over a sketch.
type Query struct {
	// Where filters AND together; empty means all rows.
	Where []Filter
	// GroupBy lists the dimensions to group on; empty means one global
	// aggregate.
	GroupBy []string
}

// Group is one output row.
type Group struct {
	// Key maps group-by dimensions to values; nil for the global group.
	Key map[string]string
	// Sum is the estimated total with its standard error.
	Sum core.Estimate

	// ks is the pre-rendered KeyString (dimensions in sorted order) and
	// pairs the same key as sorted (dim, value) pairs, both filled in by
	// the columnar evaluator so KeyString, KeyPairs and result ordering
	// are O(1) per call instead of re-sorting dimensions each time.
	ks    string
	pairs []KeyPair
}

// KeyPair is one dimension of a group key.
type KeyPair struct {
	Dim, Value string
}

// KeyPairs returns the group key as (dim, value) pairs in dimension
// order, the order KeyString renders. Groups from a Prepared query share
// one cached slice per distinct group, which the caller must not modify;
// other groups build it from the Key map.
func (g Group) KeyPairs() []KeyPair {
	if g.pairs != nil || len(g.Key) == 0 {
		return g.pairs
	}
	pairs := make([]KeyPair, 0, len(g.Key))
	for d, v := range g.Key {
		pairs = append(pairs, KeyPair{d, v})
	}
	slices.SortFunc(pairs, func(a, b KeyPair) int { return strings.Compare(a.Dim, b.Dim) })
	return pairs
}

// KeyString renders the group key deterministically ("country=us|device=ios",
// dimensions in sorted order). Groups produced by Run or a Prepared query
// return a string rendered once at aggregation time; hand-built Groups
// fall back to rendering from the Key map.
func (g Group) KeyString() string {
	if g.ks != "" {
		return g.ks
	}
	if len(g.Key) == 0 {
		return "*"
	}
	return renderKeySorted(g.Key)
}

// renderKeySorted is the fallback KeyString path for Groups not built by
// the evaluator: dimensions sorted, one pass to render.
func renderKeySorted(key map[string]string) string {
	dims := make([]string, 0, len(key))
	for d := range key {
		dims = append(dims, d)
	}
	sort.Strings(dims)
	var b strings.Builder
	for i, d := range dims {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(d)
		b.WriteByte('=')
		b.WriteString(key[d])
	}
	return b.String()
}

// Binner is the sketch-side interface the evaluator needs; both
// core.Sketch and core.WeightedSketch satisfy it.
type Binner interface {
	Bins() []core.Bin
	MinCount() float64
}

// Versioned is implemented by sources whose mutations advance a counter
// (core.Sketch, core.WeightedSketch). An Engine over a Versioned source
// reuses its label index as long as the version stands still.
type Versioned interface {
	Version() uint64
}

// Snapshotter is implemented by sources that maintain an immutable cached
// snapshot of their state (the sharded sketch's versioned merge). One call
// returns a mutually consistent triple — bins, columnar index and min
// count all from the same snapshot — so a query can never mix counts from
// one epoch with the standard-error scale of another, even while the
// source ingests concurrently. An Engine over a Snapshotter adopts the
// index by pointer identity instead of building and versioning its own.
type Snapshotter interface {
	QuerySnapshot() (bins []core.Bin, idx *labelidx.Index, minCount float64)
}

// Run evaluates q against the sketch's bins. Labels that fail to parse are
// skipped and counted in the returned skipped tally (foreign labels in a
// mixed sketch are not an error). Groups are returned sorted by descending
// estimate, ties broken by key.
//
// Run builds a fresh columnar index per call; callers issuing repeated
// queries against the same sketch should hold an Engine, which amortizes
// the index across queries and revalidates it by sketch version.
func Run(s Binner, q Query) (groups []Group, skipped int, err error) {
	return NewEngine(s).Run(q)
}

// Engine amortizes the columnar label index across queries against one
// sketch. The index is rebuilt lazily whenever the source's version moves
// (or adopted from the source itself when it maintains one); against a
// quiescent sketch every query runs on the already-parsed columns. An
// Engine is not safe for concurrent use — concurrent readers should each
// hold their own engine (cheap when the source is Indexed, since the
// underlying index is shared).
type Engine struct {
	src   Binner
	idx   *labelidx.Index
	ver   uint64
	gen   uint64 // bumped whenever idx is replaced; Prepared recompiles
	built bool
	last  *Prepared // Run's cache for back-to-back identical specs

	// Snapshotter sources: bins and min count of the snapshot e.idx was
	// adopted from, refreshed together by ensure so every evaluation
	// reads one consistent epoch.
	snapshotted bool
	snapBins    []core.Bin
	snapNmin    float64
}

// NewEngine returns an engine over the sketch. The index is built on
// first use.
func NewEngine(src Binner) *Engine { return &Engine{src: src} }

// ensure makes e.idx current, rebuilding (or re-adopting) it when the
// source has moved. Allocation-free when the source is unchanged.
func (e *Engine) ensure() {
	if ss, ok := e.src.(Snapshotter); ok {
		bins, idx, nmin := ss.QuerySnapshot()
		e.snapshotted = true
		e.snapBins, e.snapNmin = bins, nmin
		if idx != e.idx {
			e.idx = idx
			e.gen++
		}
		e.built = true
		return
	}
	if v, ok := e.src.(Versioned); ok {
		// Read the version before the bins: if a mutation lands between
		// the two reads the index is stamped with the older version and
		// simply rebuilds on the next query.
		ver := v.Version()
		if e.built && ver == e.ver {
			return
		}
		e.ver = ver
	}
	e.idx = labelidx.New(e.src.Bins())
	e.built = true
	e.gen++
}

// Run evaluates q, preparing it on the fly. Back-to-back calls with an
// identical spec reuse the previous compilation, so a caller looping on
// one query gets Prepared-level performance without holding a Prepared.
func (e *Engine) Run(q Query) ([]Group, int, error) {
	if e.last == nil || !specEqual(e.last.q, q) {
		e.last = e.Prepare(q)
	}
	return e.last.Run()
}

// Prepare compiles q against the engine's index. The returned Prepared
// revalidates (and recompiles) automatically when the engine's source
// moves; repeated Runs against an unchanged source allocate nothing.
func (e *Engine) Prepare(q Query) *Prepared {
	p := &Prepared{e: e, q: copySpec(q)}
	// Render-order: group dimensions sorted once here, so each group's
	// KeyString is a single pass at aggregation time. Duplicate group-by
	// dimensions collapse, matching the map semantics of the legacy path.
	seen := make(map[string]bool, len(p.q.GroupBy))
	for i, d := range p.q.GroupBy {
		if !seen[d] {
			seen[d] = true
			p.renderIdx = append(p.renderIdx, i)
		}
	}
	slices.SortFunc(p.renderIdx, func(a, b int) int {
		return strings.Compare(p.q.GroupBy[a], p.q.GroupBy[b])
	})
	return p
}

// copySpec deep-copies a query spec so later caller-side mutation of the
// slices cannot desynchronize a compiled program from its spec.
func copySpec(q Query) Query {
	out := Query{GroupBy: slices.Clone(q.GroupBy)}
	if q.Where != nil {
		out.Where = make([]Filter, len(q.Where))
		for i, f := range q.Where {
			out.Where[i] = Filter{Dim: f.Dim, In: slices.Clone(f.In)}
		}
	}
	return out
}

// specEqual reports whether two query specs are semantically identical.
func specEqual(a, b Query) bool {
	if !slices.Equal(a.GroupBy, b.GroupBy) || len(a.Where) != len(b.Where) {
		return false
	}
	for i := range a.Where {
		if a.Where[i].Dim != b.Where[i].Dim || !slices.Equal(a.Where[i].In, b.Where[i].In) {
			return false
		}
	}
	return true
}

// Prepared is a query compiled against an Engine's index, carrying its
// own output buffers and per-group render cache. Not safe for concurrent
// use. The slice returned by Run is reused by the next Run on the same
// Prepared; callers that retain results across runs must copy.
type Prepared struct {
	e   *Engine
	q   Query
	gen uint64

	prog     *labelidx.Program
	fallback bool // group key exceeds 64 packed bits: evaluate via maps

	renderIdx []int // indices into q.GroupBy, name-sorted, deduped
	cache     map[uint64]groupEntry
	out       []Group
	sb        []byte

	// evaluated reports that out holds the answer at gen. compile, run
	// exactly when the engine's generation moves, clears it.
	evaluated bool
}

// groupEntry is the per-distinct-group render cache: the Key map, the
// sorted-order key string and the sorted key pairs are built once per
// group, then reused by every subsequent Run.
type groupEntry struct {
	key   map[string]string
	ks    string
	pairs []KeyPair
}

// compile (re)compiles the prepared query against the engine's current
// index and resets caches that depend on the old dictionaries.
func (p *Prepared) compile() {
	p.gen = p.e.gen
	p.evaluated = false
	p.cache = make(map[uint64]groupEntry)
	var filters []labelidx.Filter
	if len(p.q.Where) > 0 {
		filters = make([]labelidx.Filter, len(p.q.Where))
		for i, f := range p.q.Where {
			filters[i] = labelidx.Filter{Dim: f.Dim, In: f.In}
		}
	}
	prog, ok := p.e.idx.Compile(filters, p.q.GroupBy)
	if !ok {
		p.fallback = true
		p.prog = nil
		return
	}
	p.fallback = false
	p.prog = prog
}

// Run evaluates the prepared query against the engine's source, first
// revalidating the index and compilation. Groups are sorted by descending
// estimate, ties broken by KeyString. The returned slice and its Key maps
// are reused across Runs of this Prepared; they are valid until the next
// Run.
//
// The answer is memoized per engine generation: while the index stands
// still (no new sharded snapshot, no Version move, always moving for a
// plain Binner) Run returns the groups it last computed without scanning
// or sorting again. The map fallback is re-evaluated on every call.
func (p *Prepared) Run() ([]Group, int, error) {
	p.e.ensure()
	if p.gen != p.e.gen {
		p.compile()
	}
	if p.fallback {
		return runMaps(p.e.evalBins(), p.e.evalMinCount(), p.q, p.e.idx.Skipped())
	}
	if !p.evaluated {
		p.evaluate()
	}
	if len(p.out) == 0 {
		return nil, p.e.idx.Skipped(), nil
	}
	return p.out, p.e.idx.Skipped(), nil
}

// evaluate scans the index with the compiled program and leaves the
// sorted groups in p.out.
func (p *Prepared) evaluate() {
	aggs := p.prog.Run()
	nmin := p.e.evalMinCount()
	out := p.out[:0]
	for i := range aggs {
		a := &aggs[i]
		ent, ok := p.cache[a.Key]
		if !ok {
			ent = p.newEntry(a.Key)
			p.cache[a.Key] = ent
		}
		out = append(out, Group{
			Key:   ent.key,
			ks:    ent.ks,
			pairs: ent.pairs,
			Sum: core.Estimate{
				Value:      a.Sum,
				StdErr:     nmin * math.Sqrt(float64(a.Hits)),
				SampleBins: int(a.Hits),
			},
		})
	}
	sortGroups(out)
	p.out = out
	p.evaluated = true
}

// evalMinCount and evalBins return the state to evaluate against: the
// epoch captured by ensure for Snapshotter sources (so counts, min count
// and bins all come from one snapshot even under concurrent ingest), the
// live source for plain single-owner sources.
func (e *Engine) evalMinCount() float64 {
	if e.snapshotted {
		return e.snapNmin
	}
	return e.src.MinCount()
}

func (e *Engine) evalBins() []core.Bin {
	if e.snapshotted {
		return e.snapBins
	}
	return e.src.Bins()
}

// newEntry materializes the Key map, sorted key pairs and sorted-order
// key string for one packed group key — once per distinct group, cached
// thereafter.
func (p *Prepared) newEntry(key uint64) groupEntry {
	if len(p.q.GroupBy) == 0 {
		return groupEntry{ks: "*"}
	}
	m := make(map[string]string, len(p.q.GroupBy))
	for gi, dim := range p.q.GroupBy {
		m[dim] = p.prog.GroupValue(key, gi)
	}
	pairs := make([]KeyPair, len(p.renderIdx))
	buf := p.sb[:0]
	for i, gi := range p.renderIdx {
		if i > 0 {
			buf = append(buf, '|')
		}
		dim := p.q.GroupBy[gi]
		pairs[i] = KeyPair{dim, m[dim]}
		buf = append(buf, dim...)
		buf = append(buf, '=')
		buf = append(buf, m[dim]...)
	}
	p.sb = buf
	return groupEntry{key: m, ks: string(buf), pairs: pairs}
}

// sortGroups orders results by descending estimate, ties by key string.
func sortGroups(groups []Group) {
	slices.SortFunc(groups, func(a, b Group) int {
		if a.Sum.Value != b.Sum.Value {
			if a.Sum.Value > b.Sum.Value {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ks, b.ks)
	})
}

// runMaps is the row-at-a-time fallback evaluator, used only when a
// group-by key cannot be packed into 64 bits (astronomically wide
// group-bys). It re-parses every label per call. bins may be nil, in
// which case they come straight from the engine's source.
func runMaps(bins []core.Bin, nmin float64, q Query, skipped int) ([]Group, int, error) {
	type agg struct {
		sum  float64
		hits int
		key  map[string]string
	}
	byKey := map[string]*agg{}

bins:
	for _, b := range bins {
		row, perr := ParseRow(b.Item)
		if perr != nil {
			continue
		}
		for _, f := range q.Where {
			if !f.matches(row) {
				continue bins
			}
		}
		key := make(map[string]string, len(q.GroupBy))
		var sb strings.Builder
		for _, d := range q.GroupBy {
			v, ok := row[d]
			if !ok {
				continue bins
			}
			key[d] = v
			sb.WriteString(d)
			sb.WriteByte('=')
			sb.WriteString(v)
			sb.WriteByte('|')
		}
		ks := sb.String()
		a, ok := byKey[ks]
		if !ok {
			a = &agg{key: key}
			byKey[ks] = a
		}
		a.sum += b.Count
		a.hits++
	}

	var groups []Group
	for _, a := range byKey {
		ks := "*"
		if len(a.key) > 0 {
			ks = renderKeySorted(a.key)
		}
		groups = append(groups, Group{
			Key: a.key,
			ks:  ks,
			Sum: core.Estimate{
				Value:      a.sum,
				StdErr:     nmin * math.Sqrt(float64(a.hits)),
				SampleBins: a.hits,
			},
		})
	}
	sortGroups(groups)
	return groups, skipped, nil
}
