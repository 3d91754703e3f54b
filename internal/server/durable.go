package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"time"

	uss "repro"
	"repro/internal/store"
)

// durableState is the server's durability harness: the attached store,
// the mutex that orders WAL appends with queue insertion and registry
// mutation, and the periodic checkpoint loop.
//
// # Write-ahead protocol
//
// Every mutating operation is logged before it is acknowledged, and no
// append fsyncs by itself: each function that appends waits in
// store.WaitDurable after it releases walMu, so concurrent writers share
// one fsync (group commit) and no caller can skip the wait.
//
//   - create/delete append a manifest record under walMu before touching
//     the registry, so the log's manifest history always leads the map;
//   - ingest batches and snapshot pushes append their record and join
//     the worker queue inside one walMu critical section (write), so
//     queue order equals LSN order, and each entry's jobs are routed to a
//     single worker by name hash — per-entry application order is
//     exactly LSN order. Sync ingests and pushes ride the same queue and
//     wait on a completion channel, as they do in memory;
//   - a follower's replicated records take the same two routes
//     (ApplyReplicated), so one applier per entry sees its records in
//     LSN order before and after a promotion.
//
// Because applies per entry happen in LSN order under the entry lock,
// entry.appliedLSN is gap-free: the sketch state contains exactly the
// records with LSN ≤ appliedLSN. That is what lets a checkpoint record a
// per-sketch LSN and recovery replay exactly the records above it —
// nothing is double-applied and nothing acknowledged is lost. Recovery
// replays through the same store.RebuiltSketch methods the workers apply
// with.
type durableState struct {
	st    *store.Store
	walMu sync.Mutex

	// unapplied is the boot recovery's RecoverStats.Unapplied.
	unapplied uint64

	every time.Duration
	stop  chan struct{}
	wg    sync.WaitGroup
}

// specFromConfig converts the server's create-request config to the
// store's manifest spec (same JSON shape).
func specFromConfig(cfg SketchConfig) store.SketchSpec {
	return store.SketchSpec{
		Name: cfg.Name, Kind: string(cfg.Kind), Bins: cfg.Bins, Shards: cfg.Shards,
		Seed: cfg.Seed, WindowLength: cfg.WindowLength, Retain: cfg.Retain,
	}
}

// configFromSpec is the inverse of specFromConfig.
func configFromSpec(sp store.SketchSpec) SketchConfig {
	return SketchConfig{
		Name: sp.Name, Kind: Kind(sp.Kind), Bins: sp.Bins, Shards: sp.Shards,
		Seed: sp.Seed, WindowLength: sp.WindowLength, Retain: sp.Retain,
	}
}

// AttachStore makes the server durable: sketches rebuilt by
// store.Rebuild are adopted into the registry, every subsequent mutating
// request is written to st's WAL before it is acknowledged, and — when
// checkpointEvery is positive — a background loop checkpoints the live
// sketches and compacts the log. Shutdown takes a final checkpoint and
// closes the store.
//
// Attach before serving traffic: recovery installs registry entries
// non-atomically, and a durable server must see every mutation via its
// handlers (driving the Registry directly would bypass the log).
// rebuilt may be nil for a fresh data directory.
func (s *Server) AttachStore(st *store.Store, rebuilt *store.RebuildResult, checkpointEvery time.Duration) error {
	if s.dur != nil {
		return fmt.Errorf("server: store already attached")
	}
	if rebuilt != nil {
		for _, name := range sortedNames(rebuilt.Sketches) {
			e, err := entryFromRebuilt(rebuilt.Sketches[name])
			if err != nil {
				return fmt.Errorf("server: recover sketch %q: %w", name, err)
			}
			if err := s.reg.adopt(e); err != nil {
				return fmt.Errorf("server: recover sketch %q: %w", name, err)
			}
			s.met.rowsIngested.Add(e.rows.Load())
		}
	}
	st.WireObs(s.ob.FsyncHist, s.ob.GroupCommitHist, s.cfg.Log)
	d := &durableState{st: st, every: checkpointEvery, stop: make(chan struct{})}
	if rebuilt != nil {
		d.unapplied = rebuilt.Stats.Unapplied
	}
	s.dur = d
	// Adopt the data dir's replication timeline so a restarted node knows
	// which epoch its log belongs to (a dir that predates replication is
	// on the zero timeline).
	tl, err := store.LoadTimeline(st.Dir())
	if err != nil {
		return err
	}
	s.epoch.Store(tl.Epoch)
	s.promoteLSN.Store(tl.PromoteLSN)
	// The pressure loop always runs on a durable server: it answers disk
	// watermark trips with an emergency checkpoint (truncating the log is
	// how the server gives disk space back) and enforces the memory soft
	// watermark by demoting cold sketches.
	d.wg.Add(1)
	go s.pressureLoop()
	if checkpointEvery > 0 {
		d.wg.Add(1)
		go s.checkpointLoop()
	}
	return nil
}

// sortedNames returns the map's keys in sorted order for deterministic
// recovery.
func sortedNames(m map[string]*store.RebuiltSketch) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// entryFromRebuilt wraps a rebuilt sketch in a registry entry.
func entryFromRebuilt(rb *store.RebuiltSketch) (*entry, error) {
	cfg := configFromSpec(rb.Spec)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := newEntry(cfg, rb)
	e.rows.Store(rb.Rows)
	e.pushes.Store(rb.Pushes)
	e.dropped.Store(rb.Dropped)
	e.appliedLSN.Store(rb.LSN)
	e.appendedLSN.Store(rb.LSN) // recovery leaves nothing in flight
	return e, nil
}

// errNotDurable marks a mutation that was logged but that no fsync
// covered: it is not acknowledged, and answers 503.
var errNotDurable = errors.New("logged but not durable; not acknowledged")

// waitDurable waits until lsn is fsynced. Call it after releasing walMu.
// what names the mutation in the error.
func (d *durableState) waitDurable(ctx context.Context, lsn uint64, what string) error {
	if err := d.st.WaitDurable(ctx, lsn); err != nil {
		return fmt.Errorf("%s %w (%v)", what, errNotDurable, err)
	}
	return nil
}

// createSketch validates, logs (when durable) and registers a sketch,
// returning once its create record is durable.
func (s *Server) createSketch(ctx context.Context, cfg SketchConfig) (*entry, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := s.dur
	if d == nil {
		return s.reg.Create(cfg)
	}
	spec, err := json.Marshal(specFromConfig(cfg))
	if err != nil {
		return nil, err
	}
	d.walMu.Lock()
	if _, taken := s.reg.Get(cfg.Name); taken {
		d.walMu.Unlock()
		return nil, fmt.Errorf("sketch %q: %w", cfg.Name, ErrExists)
	}
	lsn, err := d.st.AppendCreate(spec)
	if err != nil {
		d.walMu.Unlock()
		return nil, err
	}
	e, err := s.reg.Create(cfg)
	if err == nil {
		// The empty sketch's state covers exactly the records through its
		// create record. Without this watermark a never-written sketch
		// would pin the checkpoint cutoff at 0 and disable log compaction.
		e.appliedLSN.Store(lsn)
		e.appendedLSN.Store(lsn)
	}
	d.walMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := d.waitDurable(ctx, lsn, "create"); err != nil {
		return nil, err
	}
	return e, nil
}

// CreateSketch creates a hosted sketch exactly as POST /v1/sketches
// does, including write-ahead logging on a durable server — the
// programmatic entry point for pre-creating sketches (the ussd -create
// flag). Use errors.Is with ErrExists to detect a name that recovery
// already restored.
func (s *Server) CreateSketch(cfg SketchConfig) error {
	_, err := s.createSketch(context.Background(), cfg)
	return err
}

// deleteSketch logs (when durable) and unregisters a sketch, reporting
// whether it existed, and returns once its delete record is durable.
func (s *Server) deleteSketch(ctx context.Context, name string) (bool, error) {
	d := s.dur
	if d == nil {
		return s.reg.Delete(name), nil
	}
	d.walMu.Lock()
	if _, ok := s.reg.Get(name); !ok {
		d.walMu.Unlock()
		return false, nil
	}
	lsn, err := d.st.AppendDelete(name)
	if err != nil {
		d.walMu.Unlock()
		return false, err
	}
	existed := s.reg.Delete(name)
	d.walMu.Unlock()
	return existed, d.waitDurable(ctx, lsn, "delete")
}

// encodeState serializes the entry's sketch for a checkpoint. Caller
// holds e.mu, which on a durable server excludes the entry's (single)
// applier, so the blob is one consistent cut.
func (e *entry) encodeState() ([]byte, error) {
	sk := e.sk.Load()
	if sk == nil {
		// A demoted entry's exact state is its cold blob (it was encoded
		// by this very function at demotion time), so checkpoints and
		// cluster state pulls stay correct without reviving it.
		return os.ReadFile(e.coldPath)
	}
	return sk.AppendState(nil)
}

// Checkpoint persists every live sketch's state and compacts the WAL.
// Safe to call concurrently with traffic: each sketch is encoded under
// its entry lock at its exact applied LSN, and the store only truncates
// segments every checkpointed sketch has outgrown. No-op without an
// attached store.
func (s *Server) Checkpoint() error {
	if s.dur == nil {
		return nil
	}
	// walMu orders the entry listing against creates: a sketch created
	// after this snapshot of the registry has its create record above
	// the checkpoint's base LSN, so truncation can never drop it.
	s.dur.walMu.Lock()
	entries := s.reg.List()
	cw, err := s.dur.st.BeginCheckpoint()
	s.dur.walMu.Unlock()
	if err != nil {
		return err
	}
	for _, e := range entries {
		e.mu.Lock()
		meta := store.CheckpointMeta{
			LSN:     e.appliedLSN.Load(),
			Rows:    e.rows.Load(),
			Pushes:  e.pushes.Load(),
			Dropped: e.dropped.Load(),
		}
		if e.appendedLSN.Load() == meta.LSN && cw.BaseLSN() > meta.LSN {
			// Nothing in flight for this entry: no record for it exists
			// in (appliedLSN, base], so its replay gate can sit at the
			// checkpoint base. Otherwise one idle sketch would pin the
			// truncation cutoff at its last write forever. A record
			// appended concurrently with this read lands above base and
			// replays regardless.
			meta.LSN = cw.BaseLSN()
		}
		state, serr := e.encodeState()
		e.mu.Unlock()
		if serr != nil {
			cw.Abort()
			return fmt.Errorf("server: checkpoint %q: %w", e.cfg.Name, serr)
		}
		if err := cw.Add(specFromConfig(e.cfg), meta, state); err != nil {
			cw.Abort()
			return err
		}
	}
	// A checkpoint must never cover records the log has not fsynced:
	// were the manifest committed first and the un-fsynced tail lost
	// with the machine, recovery would resume numbering below the
	// checkpoint's cutoff and the replay gate would skip the reused
	// LSNs. A worker may apply a record before its waiter's fsync runs,
	// so the state encoded above can lead the durable watermark.
	if err := s.dur.st.Sync(); err != nil {
		cw.Abort()
		return fmt.Errorf("server: checkpoint: sync wal: %w", err)
	}
	if err := cw.Commit(); err != nil {
		return err
	}
	s.met.checkpoints.Add(1)
	return nil
}

// checkpointLoop checkpoints on the configured interval until Shutdown.
func (s *Server) checkpointLoop() {
	defer s.dur.wg.Done()
	t := time.NewTicker(s.dur.every)
	defer t.Stop()
	for {
		select {
		case <-s.dur.stop:
			return
		case <-t.C:
			if err := s.Checkpoint(); err != nil {
				s.met.checkpointErrors.Add(1)
				s.log.Warn("interval checkpoint failed", "err", err)
			}
		}
	}
}

// appendIngestWAL logs an ingest batch for e, passing only the columns
// its kind uses, and returns the record's LSN. Caller holds walMu.
func (s *Server) appendIngestWAL(e *entry, b *ingestBatch) (uint64, error) {
	var ws []float64
	var ats []int64
	switch e.cfg.Kind {
	case KindWeighted:
		ws = b.ws
	case KindRollup:
		ats = b.ats
	}
	return s.dur.st.AppendIngest(e.cfg.Name, b.items, ws, ats)
}

// applyPush merges decoded pushed bins into a weighted entry through
// store.RebuiltSketch.MergePush and records the applied LSN (0 = not
// durable).
func (s *Server) applyPush(e *entry, pushed []uss.Bin, red uss.Reduction, lsn uint64) applyResult {
	sk, err := s.ensureLive(e)
	if err != nil {
		return applyResult{err: err}
	}
	e.mu.Lock()
	if err := sk.MergePush(red, pushed); err != nil {
		e.mu.Unlock()
		return applyResult{err: err}
	}
	e.gen = rand.Uint64()
	e.qe, e.prep = nil, nil // engines are bound to the replaced sketch
	// Counter and watermark advance together under the entry lock, so a
	// concurrent checkpoint persists the push in both or in neither.
	e.pushes.Add(1)
	if lsn > 0 {
		e.appliedLSN.Store(lsn)
	}
	size, total := sk.Weighted.Size(), sk.Weighted.Total()
	e.mu.Unlock()
	s.met.snapshotsIn.Add(1)
	return applyResult{size: size, total: total}
}
