package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	uss "repro"
	"repro/internal/store"
)

// ErrExists reports a create for a name the registry already holds —
// including names restored by durable recovery. Detect it with
// errors.Is.
var ErrExists = errors.New("sketch already exists")

// ErrNotFound reports a lookup for a name the registry does not hold.
// Every handler maps it to 404 through statusFor; detect it with
// errors.Is.
var ErrNotFound = errors.New("no such sketch")

// Kind names a sketch flavour the registry can host.
type Kind string

// The four hosted kinds. Unit and Weighted are single sketches behind the
// entry mutex; Sharded is internally synchronized, so its cached reads
// skip the entry lock, and so does its ingest on an in-memory server;
// Rollup is windowed and adds the range-query endpoints.
const (
	KindUnit     Kind = "unit"
	KindWeighted Kind = "weighted"
	KindSharded  Kind = "sharded"
	KindRollup   Kind = "rollup"
)

// SketchConfig declares one named sketch. It is the create-request body
// and is echoed back by the list and info endpoints.
type SketchConfig struct {
	// Name is the registry key, non-empty, unique.
	Name string `json:"name"`
	// Kind selects the sketch flavour; defaults to "sharded".
	Kind Kind `json:"kind"`
	// Bins is the bin budget: total for unit/weighted, per shard for
	// sharded, per window for rollup.
	Bins int `json:"bins"`
	// Shards is the shard count for KindSharded (default 8, ignored
	// otherwise).
	Shards int `json:"shards,omitempty"`
	// Seed fixes the sketch randomness for reproducible tests (0 = draw a
	// random seed; always use 0 or distinct seeds in production).
	Seed int64 `json:"seed,omitempty"`
	// WindowLength is the rollup window duration in the caller's time
	// unit (required for KindRollup, ignored otherwise).
	WindowLength int64 `json:"window_length,omitempty"`
	// Retain keeps only the most recent rollup windows (0 = keep all).
	Retain int `json:"retain,omitempty"`
}

// validate normalizes defaults in place and rejects unusable configs.
func (c *SketchConfig) validate() error {
	if c.Name == "" {
		return fmt.Errorf("sketch name must be non-empty")
	}
	if c.Kind == "" {
		c.Kind = KindSharded
	}
	if c.Bins <= 0 {
		return fmt.Errorf("sketch %q: bins must be positive, got %d", c.Name, c.Bins)
	}
	switch c.Kind {
	case KindUnit, KindWeighted:
	case KindSharded:
		if c.Shards == 0 {
			c.Shards = 8
		}
		if c.Shards < 0 {
			return fmt.Errorf("sketch %q: shards must be positive, got %d", c.Name, c.Shards)
		}
	case KindRollup:
		if c.WindowLength <= 0 {
			return fmt.Errorf("sketch %q: rollup needs a positive window_length", c.Name)
		}
		if c.Retain < 0 {
			return fmt.Errorf("sketch %q: retain must be non-negative, got %d", c.Name, c.Retain)
		}
	default:
		return fmt.Errorf("sketch %q: unknown kind %q (want unit, weighted, sharded or rollup)", c.Name, c.Kind)
	}
	return nil
}

// entry is one hosted sketch: its config and its live state, sk, the
// store.RebuiltSketch that also rebuilds sketches in recovery. Every
// construction, restore, encoding, update and merge of the state goes
// through sk's methods; the read handlers use its per-kind fields.
//
// Locking: mu guards writes of sk, the state of unit, weighted and
// rollup sketches, the pull encode buffer, and the query engine +
// prepared-query cache of every kind. Sharded entries serve cached reads
// (TopK) without mu, and on an in-memory server take ingest without it
// too — the ShardedSketch is internally synchronized and its snapshot
// cache is lock-free — but their query engine still lives behind mu
// because engines are single-goroutine owners of their buffers. Counters
// are atomics so the metrics endpoint never contends with ingest.
type entry struct {
	cfg SketchConfig

	mu sync.Mutex
	// sk is the live sketch, nil while the entry is demoted (its exact
	// state is then the blob at coldPath). Written under mu, loaded
	// atomically. A request reads through the sketch ensureLive returned
	// to it, not through sk: a demotion only drops this reference, so the
	// object a reader holds stays whole, and unchanged, since a write
	// revives a new one.
	sk atomic.Pointer[store.RebuiltSketch]

	// qe + prep are the PR 2 cached read path: one engine per entry, one
	// prepared query per distinct spec, revalidated against sketch
	// versions internally so ingest between queries only costs the delta.
	// Both are dropped when push replaces the weighted sketch.
	qe   *uss.QueryEngine
	prep map[string]*uss.PreparedQuery

	// enc is the pull endpoint's reused snapshot encode buffer.
	enc []byte

	// gen is the sketch object's generation: drawn when the entry is
	// built and redrawn wherever the sketch object is replaced (cluster
	// restore, cold revive, push), whose version counters restart. It is
	// part of every partial token (PartialBins), so a token names one
	// state of one sketch object. Written under mu or before the entry
	// is shared.
	gen uint64

	rows    atomic.Int64 // rows applied (ingest)
	pushes  atomic.Int64 // snapshots merged in
	dropped atomic.Int64 // rollup rows past the retention horizon

	// appliedLSN is the durable-mode watermark: the highest WAL record
	// applied to this entry's sketch. Because a durable server routes an
	// entry's mutations to one worker in LSN order, the sketch state
	// holds exactly the records at or below it — the invariant
	// checkpoints and recovery are built on. Written under mu; read
	// atomically by the checkpointer (also under mu) and metrics.
	appliedLSN atomic.Uint64
	// appendedLSN is the highest WAL record appended for this entry
	// (written under the durability walMu at append time). When it
	// equals appliedLSN the entry has nothing in flight, which lets a
	// checkpoint advance the entry's replay gate to the checkpoint's
	// base LSN — otherwise an idle sketch would pin the truncation
	// cutoff at its last write forever.
	appendedLSN atomic.Uint64

	// Per-sketch ingest token bucket (admission.go). Its own mutex: the
	// bucket is consulted before the batch is queued, never under e.mu.
	tbMu     sync.Mutex
	tbTokens float64
	tbLast   int64

	// Memory-watermark demotion state (admission.go). lastAccess is
	// stamped by ensureLive on every path that touches the sketch
	// state. While sk is nil the entry's exact state lives in the blob
	// at coldPath; coldSize and coldTotal preserve the stats snapshot so
	// list/info and anti-entropy digests answer without reviving.
	lastAccess atomic.Int64
	coldPath   string
	coldSize   int
	coldTotal  float64
}

// newEntry wraps a sketch in an entry with a fresh generation.
func newEntry(cfg SketchConfig, sk *store.RebuiltSketch) *entry {
	e := &entry{cfg: cfg, gen: rand.Uint64()}
	e.sk.Store(sk)
	e.lastAccess.Store(time.Now().UnixNano())
	return e
}

// capacity returns the entry's total bin budget.
func (e *entry) capacity() int {
	switch e.cfg.Kind {
	case KindSharded:
		return e.cfg.Shards * e.cfg.Bins
	default:
		return e.cfg.Bins
	}
}

// Registry is the named-sketch table: a read-mostly map behind an RWMutex.
// Lookups on the hot ingest/query path take the read lock only long enough
// to fetch the entry pointer; all sketch work happens outside the registry
// lock, so creating or deleting one sketch never stalls traffic to others.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Create validates cfg, builds the sketch and registers it. It fails if
// the name is taken.
func (r *Registry) Create(cfg SketchConfig) (*entry, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sk, err := store.NewRebuilt(specFromConfig(cfg))
	if err != nil {
		return nil, err
	}
	e := newEntry(cfg, sk)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.entries[cfg.Name]; taken {
		return nil, fmt.Errorf("sketch %q: %w", cfg.Name, ErrExists)
	}
	r.entries[cfg.Name] = e
	return e, nil
}

// adopt registers an already-built entry — the recovery path, which
// restores sketch state instead of constructing it fresh.
func (r *Registry) adopt(e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.entries[e.cfg.Name]; taken {
		return fmt.Errorf("sketch %q: %w", e.cfg.Name, ErrExists)
	}
	r.entries[e.cfg.Name] = e
	return nil
}

// Get fetches an entry by name.
func (r *Registry) Get(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Delete unregisters a sketch. In-flight requests holding the entry
// pointer finish against the orphaned sketch; new lookups miss.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return false
	}
	delete(r.entries, name)
	return true
}

// List returns all entries sorted by name.
func (r *Registry) List() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}
