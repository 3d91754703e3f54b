package store

import (
	"fmt"

	uss "repro"
)

// RebuiltSketch holds one sketch's per-kind state: its spec and exactly
// one non-nil sketch field matching Spec.Kind. It is the only code that
// builds (NewRebuilt), restores (RestoreState), encodes (AppendState),
// updates (ApplyIngest) and merges (MergePush) that state, and every
// holder goes through it: a live ussd entry, a replication follower's
// entries and the Applier that recovery and `uss wal replay` run. So a
// replayed or replicated sketch changes through the very code the live
// one did: replayed from its create record with a fixed seed it is bit
// for bit the live sketch (TestKillDashNineRecovery pins it across
// processes). The LSN and counter fields are the Applier's bookkeeping;
// a server entry keeps its own.
type RebuiltSketch struct {
	// Spec is the sketch's configuration.
	Spec SketchSpec
	// LSN is the last log record applied to this sketch.
	LSN uint64
	// Rows is the served-row counter (checkpoint value plus replayed
	// rows).
	Rows int64
	// Dropped counts replayed rollup rows past the retention horizon.
	Dropped int64
	// Pushes counts replayed snapshot merges.
	Pushes int64

	// The sketch itself; one field per kind.
	Unit     *uss.Sketch
	Weighted *uss.WeightedSketch
	Sharded  *uss.ShardedSketch
	Rollup   *uss.Rollup
}

// RecoverStats summarizes one recovery pass.
type RecoverStats struct {
	// CheckpointGen is the loaded checkpoint generation (0 = none).
	CheckpointGen uint64
	// Cutoff is the loaded checkpoint's truncation LSN.
	Cutoff uint64
	// Segments is the number of log segments seen.
	Segments int
	// LastLSN is the highest LSN found in the log.
	LastLSN uint64
	// Applied and Skipped count replayed records: Skipped records were
	// already covered by the checkpoint (LSN at or below their sketch's
	// gate) or targeted a missing sketch.
	Applied, Skipped int
	// TornTail reports whether replay stopped at damage (a torn tail
	// after a crash, mid-log corruption, or a record that passes its CRC
	// but does not decode).
	TornTail bool
	// Unapplied counts the log records past a record that passes its CRC
	// but does not decode, that record included: replay stops there, so
	// none of them is applied. It is 0 after a clean or torn-tail replay.
	Unapplied uint64
	// Warnings lists non-fatal oddities (unknown names, duplicate
	// creates, undecodable snapshots), capped at a few dozen.
	Warnings []string
}

// RebuildResult is Rebuild's output: every live sketch plus the stats.
type RebuildResult struct {
	// Sketches maps sketch name to its reconstructed state.
	Sketches map[string]*RebuiltSketch
	// Stats summarizes the pass.
	Stats RecoverStats
}

const maxWarnings = 32

func (st *RecoverStats) warnf(format string, args ...any) {
	if len(st.Warnings) < maxWarnings {
		st.Warnings = append(st.Warnings, fmt.Sprintf(format, args...))
	}
}

// options renders a spec's seed as sketch construction options.
func (sp *SketchSpec) options() []uss.Option {
	if sp.Seed != 0 {
		return []uss.Option{uss.WithSeed(sp.Seed)}
	}
	return nil
}

// NewRebuilt constructs an empty sketch for a spec: the one constructor
// dispatch, shared by a server's create, a follower's replicated create,
// recovery's create records and every restore.
func NewRebuilt(sp SketchSpec) (*RebuiltSketch, error) {
	if sp.Name == "" || sp.Bins <= 0 {
		return nil, fmt.Errorf("store: bad spec %+v", sp)
	}
	rb := &RebuiltSketch{Spec: sp}
	switch sp.Kind {
	case "unit":
		rb.Unit = uss.New(sp.Bins, sp.options()...)
	case "weighted":
		rb.Weighted = uss.NewWeighted(sp.Bins, sp.options()...)
	case "sharded":
		shards := sp.Shards
		if shards == 0 {
			shards = 8
		}
		rb.Sharded = uss.NewSharded(shards, sp.Bins, sp.options()...)
	case "rollup":
		r, err := uss.NewRollup(uss.RollupConfig{
			Bins: sp.Bins, WindowLength: sp.WindowLength, Retain: sp.Retain, Seed: sp.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("store: sketch %q: %w", sp.Name, err)
		}
		rb.Rollup = r
	default:
		return nil, fmt.Errorf("store: sketch %q has unknown kind %q", sp.Name, sp.Kind)
	}
	return rb, nil
}

// AppendState appends the sketch's exact state to dst: AppendBinary for
// unit and weighted, AppendShards for sharded, AppendWindows for rollup.
// It is the one encoding checkpoints, cold blobs and cluster state pulls
// ship, and RestoreState is its inverse. The caller excludes writers.
func (rb *RebuiltSketch) AppendState(dst []byte) ([]byte, error) {
	switch {
	case rb.Unit != nil:
		return rb.Unit.AppendBinary(dst)
	case rb.Weighted != nil:
		return rb.Weighted.AppendBinary(dst)
	case rb.Sharded != nil:
		return rb.Sharded.AppendShards(dst)
	case rb.Rollup != nil:
		return rb.Rollup.AppendWindows(dst)
	}
	return nil, fmt.Errorf("store: encode unconstructed sketch")
}

// RestoreState loads an AppendState blob into an empty rebuilt sketch.
func (rb *RebuiltSketch) RestoreState(state []byte) error {
	switch {
	case rb.Unit != nil:
		return rb.Unit.UnmarshalBinary(state)
	case rb.Weighted != nil:
		return rb.Weighted.UnmarshalBinary(state)
	case rb.Sharded != nil:
		return rb.Sharded.RestoreShards(state)
	case rb.Rollup != nil:
		return rb.Rollup.RestoreWindows(state)
	}
	return fmt.Errorf("store: restore into unconstructed sketch")
}

// ApplyIngest applies one ingest batch: the one per-kind ingest dispatch,
// run by a server's workers and by the Applier. A weight or timestamp
// missing from its column reads as 1 or 0. It returns the rollup rows it
// dropped past the retention horizon and touches no counter, so each
// caller counts for itself. Only the sharded update is internally
// synchronized; for the other kinds the caller excludes readers.
func (rb *RebuiltSketch) ApplyIngest(items []string, ws []float64, ats []int64) (dropped int64) {
	switch {
	case rb.Unit != nil:
		rb.Unit.UpdateAll(items)
	case rb.Weighted != nil:
		for i, it := range items {
			w := 1.0
			if i < len(ws) {
				w = ws[i]
			}
			rb.Weighted.Update(it, w)
		}
	case rb.Sharded != nil:
		rb.Sharded.UpdateBatch(items)
	case rb.Rollup != nil:
		for i, it := range items {
			var at int64
			if i < len(ats) {
				at = ats[i]
			}
			if !rb.Rollup.Update(it, at) {
				dropped++
			}
		}
	}
	return dropped
}

// MergePush merges pushed bins into the weighted sketch (MergeBins, then
// NewWeightedFromBins at the spec's capacity and seed) and replaces it
// with the result; callers holding the old rb.Weighted must re-read it.
// It is the one push merge, run by a server's workers for client pushes
// and replicated snapshot records, and by the Applier. A non-weighted
// sketch refuses it.
func (rb *RebuiltSketch) MergePush(red uss.Reduction, pushed []uss.Bin) error {
	if rb.Weighted == nil {
		return fmt.Errorf("snapshot pushed into non-weighted sketch %q", rb.Spec.Name)
	}
	m := rb.Spec.Bins
	merged := uss.MergeBins(m, red, rb.Weighted.Bins(), pushed)
	nw, err := uss.NewWeightedFromBins(m, merged, rb.Spec.options()...)
	if err != nil {
		return fmt.Errorf("load merged bins: %w", err)
	}
	rb.Weighted = nw
	return nil
}

// PushedBins checks a snapshot record's reduction byte and decodes its
// blob, for MergePush. The decoded bins do not alias the record.
func (r *Record) PushedBins() (uss.Reduction, []uss.Bin, error) {
	red := uss.Reduction(r.Reduction)
	switch red {
	case uss.Pairwise, uss.Pivotal, uss.MisraGries:
	default:
		return 0, nil, fmt.Errorf("unknown reduction byte %d", r.Reduction)
	}
	pushed, err := uss.DecodeBins(r.Blob)
	return red, pushed, err
}

// Applier replays decoded WAL records in LSN order into a set of rebuilt
// sketches, honouring per-sketch LSN gates: the engine behind boot
// recovery and `uss wal replay`. It changes each sketch through the same
// RebuiltSketch methods a live server and a replication follower apply
// with. Not safe for concurrent use.
type Applier struct {
	// Sketches maps sketch name to its reconstructed state.
	Sketches map[string]*RebuiltSketch
	// Stats accumulates apply bookkeeping across the Applier's life.
	Stats RecoverStats

	gate map[string]uint64
}

// NewApplier returns an empty Applier: no sketches, no gates.
func NewApplier() *Applier {
	return &Applier{
		Sketches: make(map[string]*RebuiltSketch),
		gate:     make(map[string]uint64),
	}
}

// LoadCheckpoint seeds the applier from dir's newest committed
// checkpoint generation, restoring every sketch's state and setting its
// replay gate to its checkpoint LSN. A dir with no checkpoint is a
// no-op. Call before Apply.
func (a *Applier) LoadCheckpoint(dir string) error {
	gen := latestCheckpointGen(dir)
	if gen == 0 {
		return nil
	}
	man, err := loadManifest(dir, gen)
	if err != nil {
		return err
	}
	a.Stats.CheckpointGen = gen
	a.Stats.Cutoff = man.Cutoff
	for i := range man.Sketches {
		ms := &man.Sketches[i]
		blob, err := loadCheckpointBlob(dir, gen, ms)
		if err != nil {
			return err
		}
		rb, err := NewRebuilt(ms.Spec)
		if err != nil {
			return err
		}
		if err := rb.RestoreState(blob); err != nil {
			return fmt.Errorf("store: restore %q from checkpoint: %w", ms.Spec.Name, err)
		}
		rb.LSN, rb.Rows, rb.Pushes, rb.Dropped = ms.LSN, ms.Rows, ms.Pushes, ms.Dropped
		a.Sketches[ms.Spec.Name] = rb
		a.gate[ms.Spec.Name] = ms.LSN
	}
	return nil
}

// Apply replays one decoded record, honouring the per-sketch LSN gate:
// a record at or below its sketch's gate (already covered by the
// checkpoint, or already applied) is skipped, so double-apply is
// impossible no matter how the record stream resumes or repeats.
// Records for unknown sketches and undecodable snapshots are skipped
// and reported in Stats.Warnings, never fatal — the applier's contract
// is salvage, not veto.
func (a *Applier) Apply(rec *Record) {
	if rec.LSN <= a.gate[rec.Name] {
		a.Stats.Skipped++
		return
	}
	switch rec.Type {
	case TypeCreate:
		if _, taken := a.Sketches[rec.Name]; taken {
			a.Stats.warnf("lsn %d: create %q: already exists, skipped", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		rb, err := NewRebuilt(rec.Spec)
		if err != nil {
			a.Stats.warnf("lsn %d: create %q: %v", rec.LSN, rec.Name, err)
			a.Stats.Skipped++
			return
		}
		rb.LSN = rec.LSN
		a.Sketches[rec.Name] = rb
	case TypeDelete:
		if _, ok := a.Sketches[rec.Name]; !ok {
			a.Stats.warnf("lsn %d: delete %q: no such sketch", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		delete(a.Sketches, rec.Name)
	case TypeIngest:
		rb, ok := a.Sketches[rec.Name]
		if !ok {
			a.Stats.warnf("lsn %d: ingest into missing sketch %q", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		rb.Dropped += rb.ApplyIngest(rec.Items, rec.Weights, rec.Ats)
		rb.Rows += int64(len(rec.Items))
		rb.LSN = rec.LSN
	case TypeSnapshot:
		rb, ok := a.Sketches[rec.Name]
		if !ok {
			a.Stats.warnf("lsn %d: snapshot push into missing sketch %q", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		red, pushed, err := rec.PushedBins()
		if err == nil {
			err = rb.MergePush(red, pushed)
		}
		if err != nil {
			a.Stats.warnf("lsn %d: snapshot push into %q: %v", rec.LSN, rec.Name, err)
			a.Stats.Skipped++
			return
		}
		rb.Pushes++
		rb.LSN = rec.LSN
	default:
		a.Stats.warnf("lsn %d: unknown record type %d", rec.LSN, rec.Type)
		a.Stats.Skipped++
		return
	}
	a.gate[rec.Name] = rec.LSN
	a.Stats.Applied++
}

// Rebuild reconstructs every sketch from dir's newest checkpoint plus
// the log tail, read-only (nothing is truncated or written — safe on a
// live or foreign data directory, though the result is then a snapshot
// in time). It is the boot-recovery and `uss wal replay` entry point:
// an Applier seeded from the checkpoint, fed the log tail in LSN order.
func Rebuild(dir string) (*RebuildResult, error) {
	a := NewApplier()
	if err := a.LoadCheckpoint(dir); err != nil {
		return nil, err
	}
	segs, lastLSN, stop, err := scanLog(dir, func(rec *Record) error {
		a.Apply(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	a.Stats.Segments = len(segs)
	a.Stats.LastLSN = lastLSN
	for i := range segs {
		if segs[i].torn {
			a.Stats.TornTail = true
		}
	}
	if stop != nil {
		a.Stats.TornTail = true
		a.Stats.Unapplied = lastLSN - stop.lsn + 1
		a.Stats.warnf("lsn %d: record passes its CRC but does not decode (%v); replay stopped there, %d records through lsn %d not applied",
			stop.lsn, stop.err, a.Stats.Unapplied, lastLSN)
	}
	return &RebuildResult{Sketches: a.Sketches, Stats: a.Stats}, nil
}
