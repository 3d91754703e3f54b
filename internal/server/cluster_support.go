package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	uss "repro"
	"repro/internal/store"
)

// Cluster support: the exported surface internal/cluster drives a node
// through. A cluster agent needs six things from the server it wraps
// that the HTTP API does not expose directly: exact per-sketch state
// blobs (the checkpoint encoding, not a lossy snapshot), the inverse
// restore, a partial's flat bins with a version token, cheap divergence
// digests for anti-entropy, the ingest body parser so the proxy can
// partition rows without re-implementing the wire formats, and the
// point-read handlers bound to a gathered sketch.

// SketchStats is the exported counter snapshot that travels with a
// sketch state blob, so a restore lands the counters and the state as
// one consistent cut.
type SketchStats struct {
	// Rows is the applied ingest row count.
	Rows int64 `json:"rows"`
	// Pushes is the merged-snapshot count.
	Pushes int64 `json:"pushes"`
	// Dropped counts rollup rows past the retention horizon.
	Dropped int64 `json:"dropped"`
}

// SketchDigest is one sketch's anti-entropy fingerprint: enough to
// detect divergence between an owner's partial and a peer's copy of it
// without shipping state. Counters only — comparing (rows, pushes,
// total) is exact for the cluster's disjoint-substream partials, where
// equal history implies equal state.
type SketchDigest struct {
	// Name is the sketch name.
	Name string `json:"name"`
	// Kind is the sketch kind.
	Kind Kind `json:"kind"`
	// Rows is the applied ingest row count.
	Rows int64 `json:"rows"`
	// Pushes is the merged-snapshot count.
	Pushes int64 `json:"pushes"`
	// Total is the sketch's total mass (sum over windows for rollups).
	Total float64 `json:"total"`
}

// Covers reports whether d's history is at least as long as other's —
// the replace-if-ahead test anti-entropy uses. Counters are monotone,
// so a digest that leads on every axis strictly covers the other's
// history for the same substream.
func (d SketchDigest) Covers(other SketchDigest) bool {
	return d.Rows >= other.Rows && d.Pushes >= other.Pushes
}

// SketchState returns one sketch's config, counters and exact state
// blob — the checkpoint encoding (AppendBinary for unit/weighted,
// AppendShards for sharded, AppendWindows for rollup), cut under the
// entry lock so blob and counters describe the same instant. The blob
// restores through RestoreSketch; unit/weighted blobs also decode
// directly with uss.DecodeBins (see StateBins).
func (s *Server) SketchState(name string) (SketchConfig, SketchStats, []byte, error) {
	e, ok := s.reg.Get(name)
	if !ok {
		return SketchConfig{}, SketchStats{}, nil, fmt.Errorf("sketch %q: %w", name, ErrNotFound)
	}
	e.lastAccess.Store(time.Now().UnixNano())
	e.mu.Lock()
	blob, err := e.encodeState()
	st := SketchStats{Rows: e.rows.Load(), Pushes: e.pushes.Load(), Dropped: e.dropped.Load()}
	e.mu.Unlock()
	if err != nil {
		return SketchConfig{}, SketchStats{}, nil, fmt.Errorf("sketch %q: encode state: %w", name, err)
	}
	return e.cfg, st, blob, nil
}

// RestoreSketch installs a sketch from a peer-shipped (config, stats,
// state) triple: create-or-replace. A missing sketch is created (with a
// WAL create record on a durable server); an existing one with the same
// config has its state and counters replaced wholesale. Replacement is
// sound only because cluster partials are snapshots of one monotone
// substream — the caller must have checked that the incoming digest
// Covers the local one, or history is lost.
//
// Quiesced use only (boot repair, before the node serves traffic): the
// replace path moves the durable watermarks to the log's LastLSN so
// already-logged records do not replay on top of the restored state,
// which assumes nothing for this sketch is in flight. Durable callers
// must Checkpoint() after the last restore to make the adopted state
// the recovery baseline.
func (s *Server) RestoreSketch(cfg SketchConfig, stats SketchStats, blob []byte) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	rb, err := store.NewRebuilt(specFromConfig(cfg))
	if err != nil {
		return err
	}
	if len(blob) > 0 {
		if err := rb.RestoreState(blob); err != nil {
			return fmt.Errorf("sketch %q: restore state: %w", cfg.Name, err)
		}
	}
	if e, ok := s.reg.Get(cfg.Name); ok {
		if e.cfg != cfg {
			return fmt.Errorf("sketch %q: config mismatch: have %+v, restoring %+v", cfg.Name, e.cfg, cfg)
		}
		e.mu.Lock()
		e.unit, e.weighted, e.sharded, e.rollup = rb.Unit, rb.Weighted, rb.Sharded, rb.Rollup
		e.gen = rand.Uint64()
		e.qe, e.prep = nil, nil // engines are bound to the replaced sketch
		e.cold.Store(false)     // the restored state supersedes any cold blob
		e.rows.Store(stats.Rows)
		e.pushes.Store(stats.Pushes)
		e.dropped.Store(stats.Dropped)
		if s.dur != nil {
			lsn := s.dur.st.LastLSN()
			e.appliedLSN.Store(lsn)
			e.appendedLSN.Store(lsn)
		}
		e.mu.Unlock()
		return nil
	}
	ne := &entry{cfg: cfg, gen: rand.Uint64()}
	ne.unit, ne.weighted, ne.sharded, ne.rollup = rb.Unit, rb.Weighted, rb.Sharded, rb.Rollup
	ne.rows.Store(stats.Rows)
	ne.pushes.Store(stats.Pushes)
	ne.dropped.Store(stats.Dropped)
	d := s.dur
	if d == nil {
		return s.reg.adopt(ne)
	}
	spec, err := json.Marshal(specFromConfig(cfg))
	if err != nil {
		return err
	}
	d.walMu.Lock()
	lsn, err := d.st.AppendCreate(spec)
	if err == nil {
		ne.appliedLSN.Store(lsn)
		ne.appendedLSN.Store(lsn)
		err = s.reg.adopt(ne)
	}
	d.walMu.Unlock()
	if err != nil {
		return err
	}
	return d.waitDurable(context.Background(), lsn, "restore")
}

// bootNonce tells this process's partial tokens from an earlier
// process's: entry generations and sketch versions start over with the
// process, the nonce does not.
var bootNonce = rand.Uint64()

// PartialBins returns name's flat, mergeable bin list cut straight from
// its live state, with an opaque token naming that cut — the owner side
// of a scatter-gather read. Equal tokens mean equal bins: a token joins
// the process's boot nonce, the entry's generation (redrawn whenever the
// sketch object is replaced) and the version the bins were read at (for
// a sharded sketch, the per-shard versions of its cached snapshot). When
// have is the current token the bins are not read and nil is returned,
// since the caller's copy is current. Sharded bins are a read-only view
// shared with the sketch's snapshot cache; unit and weighted bins are a
// copy. Rollup state is windowed and has no flat bin view.
func (s *Server) PartialBins(name, have string) ([]uss.Bin, string, error) {
	e, ok := s.reg.Get(name)
	if !ok {
		return nil, "", fmt.Errorf("sketch %q: %w", name, ErrNotFound)
	}
	if err := s.ensureLive(e); err != nil {
		return nil, "", err
	}
	e.mu.Lock()
	switch e.cfg.Kind {
	case KindSharded:
		sh, gen := e.sharded, e.gen
		e.mu.Unlock()
		bins, versions := sh.SnapshotBins()
		if tok := partialToken(gen, versions...); tok != have {
			return bins, tok, nil
		}
		return nil, have, nil
	case KindUnit, KindWeighted:
		defer e.mu.Unlock()
		var sk binSource = e.weighted
		if e.cfg.Kind == KindUnit {
			sk = e.unit
		}
		if tok := partialToken(e.gen, sk.Version()); tok != have {
			return sk.Bins(), tok, nil
		}
		return nil, have, nil
	default:
		e.mu.Unlock()
		return nil, "", fmt.Errorf("sketch %q: %s state has no flat bin view", name, e.cfg.Kind)
	}
}

// binSource is what PartialBins reads from a unit or weighted sketch.
type binSource interface {
	Bins() []uss.Bin
	Version() uint64
}

// partialToken renders a partial's token: the boot nonce, the entry
// generation and the version list, in base 36.
func partialToken(gen uint64, versions ...uint64) string {
	b := make([]byte, 0, 28+8*len(versions))
	b = strconv.AppendUint(b, bootNonce, 36)
	b = append(b, '-')
	b = strconv.AppendUint(b, gen, 36)
	for i, v := range versions {
		if i == 0 {
			b = append(b, '-')
		} else {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, v, 36)
	}
	return string(b)
}

// StateBins flattens a SketchState blob into a mergeable bin list — the
// hedged copy read, whose source is an exact-state blob rather than a
// live sketch: unit and weighted blobs are wire-v2 snapshots and decode
// directly; sharded blobs are restored into a scratch ShardedSketch and
// collapsed through Snapshot (an exact merge when the union fits the
// combined shard capacity, as a faithful copy always does). Rollup state
// is windowed and has no flat bin view — range reads forward the query
// instead.
func StateBins(cfg SketchConfig, blob []byte) ([]uss.Bin, error) {
	switch cfg.Kind {
	case KindUnit, KindWeighted:
		return uss.DecodeBins(blob)
	case KindSharded:
		sh := uss.NewSharded(cfg.Shards, cfg.Bins, cfg.options()...)
		if err := sh.RestoreShards(blob); err != nil {
			return nil, err
		}
		return sh.Snapshot(0).Bins(), nil
	default:
		return nil, fmt.Errorf("sketch %q: %s state has no flat bin view", cfg.Name, cfg.Kind)
	}
}

// Digests fingerprints every hosted sketch for anti-entropy gossip,
// sorted by name.
func (s *Server) Digests() []SketchDigest {
	entries := s.reg.List()
	out := make([]SketchDigest, len(entries))
	for i, e := range entries {
		info := e.info()
		out[i] = SketchDigest{
			Name: e.cfg.Name, Kind: e.cfg.Kind,
			Rows: info.Rows, Pushes: info.Pushes, Total: info.Total,
		}
	}
	return out
}

// SketchConfigOf reports a hosted sketch's config.
func (s *Server) SketchConfigOf(name string) (SketchConfig, bool) {
	e, ok := s.reg.Get(name)
	if !ok {
		return SketchConfig{}, false
	}
	return e.cfg, true
}

// DeleteSketch drops a hosted sketch exactly as DELETE /v1/sketches
// does, including the WAL delete record on a durable server — the
// programmatic entry point the cluster delete broadcast uses. The bool
// reports whether the sketch existed.
func (s *Server) DeleteSketch(name string) (bool, error) {
	return s.deleteSketch(context.Background(), name)
}

// ReadHealth is what a gathered read adds to every answer: Degraded,
// whether it was assembled around a failure, and when it was, the
// per-owner detail in Peers. A node's own reads carry none.
type ReadHealth struct {
	Degraded bool `json:"degraded"`
	Peers    any  `json:"peers,omitempty"`
}

// add appends rh's fields to a map answer; a nil rh adds none.
func (rh *ReadHealth) add(m map[string]any) map[string]any {
	if rh != nil {
		m["degraded"] = rh.Degraded
		if rh.Peers != nil {
			m["peers"] = rh.Peers
		}
	}
	return m
}

// GatheredRead is the sketch a gathered point read answers from: an
// exact merge of owner partials held as a weighted entry, so the read
// handlers take the very path a node's weighted entry takes. It is
// read-only and safe to share, so a gatherer may keep one across reads
// while its partials are unchanged: repeat reads then share its lock,
// its label index and its prepared-query cache.
type GatheredRead struct{ e *entry }

// NewGatheredRead wraps bins, a merge of name's partials with distinct
// items, as a gathered read sized to hold them exactly.
func NewGatheredRead(name string, bins []uss.Bin) (*GatheredRead, error) {
	sk, err := uss.NewWeightedFromBins(max(len(bins), 1), bins)
	if err != nil {
		return nil, fmt.Errorf("sketch %q: gathered bins: %w", name, err)
	}
	return &GatheredRead{e: &entry{cfg: SketchConfig{Name: name, Kind: KindWeighted, Bins: sk.Capacity()}, weighted: sk}}, nil
}

// Gather builds the sketch a point read of name answers from when it
// does not live in this node's registry — a cluster agent's merged owner
// partials — with the read's health, or fails with the status to answer.
type Gather func(ctx context.Context, name string) (*GatheredRead, *ReadHealth, int, error)

// PointReads returns the topk, estimate, sum and query handlers keyed by
// route pattern: over the registry with a nil gather (the node's own
// routes), else over gather's sketch with its ReadHealth in each answer.
func (s *Server) PointReads(gather Gather) map[string]http.HandlerFunc {
	bind := func(h func(http.ResponseWriter, *http.Request, Gather)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { h(w, r, gather) }
	}
	return map[string]http.HandlerFunc{
		"GET /v1/sketches/{name}/topk":     bind(s.handleTopK),
		"GET /v1/sketches/{name}/estimate": bind(s.handleEstimate),
		"GET /v1/sketches/{name}/sum":      bind(s.handleSum),
		"POST /v1/sketches/{name}/query":   bind(s.handleQuery),
	}
}

// IngestRows is a decoded ingest body in columnar form: one item per
// row, with the weight column populated for weighted sketches and the
// timestamp column for rollups.
type IngestRows struct {
	// Items is the item label column.
	Items []string
	// Weights aligns with Items for weighted sketches (else empty).
	Weights []float64
	// Ats aligns with Items for rollups (else empty).
	Ats []int64
}

// ParseIngestBody decodes an ingest request body exactly as the ingest
// handler does — newline text unless contentType is application/json —
// into columnar rows. The cluster proxy uses it to partition a batch
// across owner nodes without re-implementing either wire format;
// rejected bodies fail here with the same errors the handler returns.
func ParseIngestBody(kind Kind, contentType string, body []byte) (IngestRows, error) {
	b := &ingestBatch{buf: body}
	if !strings.HasPrefix(contentType, "application/json") {
		if err := b.parseText(kind); err != nil {
			return IngestRows{}, err
		}
		return IngestRows{Items: b.items, Weights: b.ws, Ats: b.ats}, nil
	}
	var req ingestJSON
	if err := json.Unmarshal(body, &req); err != nil {
		return IngestRows{}, fmt.Errorf("decode ingest body: %w", err)
	}
	if err := b.appendJSONRows(kind, &req); err != nil {
		return IngestRows{}, err
	}
	return IngestRows{Items: b.items, Weights: b.ws, Ats: b.ats}, nil
}
