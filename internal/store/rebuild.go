package store

import (
	"fmt"

	uss "repro"
)

// RebuiltSketch is one sketch reconstructed by an Applier: its spec, the
// LSN its state reflects, served-row counters, and exactly one non-nil
// sketch field matching Spec.Kind.
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

	// The reconstructed sketch; one field per kind.
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

// NewRebuilt constructs an empty sketch for a spec — the same
// constructor dispatch boot recovery uses for create records, exported
// so a replication follower builds replicated sketches through one code
// path.
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

// RestoreState loads a checkpoint-encoded state blob (AppendBinary for
// unit/weighted, AppendShards for sharded, AppendWindows for rollup)
// into an empty rebuilt sketch. Exported because cluster anti-entropy
// restores a rejoining node's partition from a peer's copy through the
// same per-kind dispatch checkpoint recovery uses.
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

// ApplyIngest replays one ingest batch through the same per-kind update
// paths the live server uses. This mirrors internal/server's applyBatch
// (minus its locking and metrics) — the two dispatches must stay in
// lockstep or recovery stops being bit-identical to live ingest; the
// cross-process TestKillDashNineRecovery in cmd/ussd pins the pair. It
// is exported because follower apply runs replicated ingest records
// through it too (under the server's entry lock).
func (rb *RebuiltSketch) ApplyIngest(items []string, ws []float64, ats []int64) {
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
				rb.Dropped++
			}
		}
	}
	rb.Rows += int64(len(items))
}

// ApplySnapshot replays one pushed snapshot through the DecodeBins →
// MergeBins fast path, exactly as the live push handler does (the
// lockstep twin of internal/server's applyPush — keep them identical).
// The weighted sketch is replaced; callers holding a pointer to the old
// one must re-read rb.Weighted after a successful apply.
func (rb *RebuiltSketch) ApplySnapshot(red uss.Reduction, blob []byte) error {
	if rb.Weighted == nil {
		return fmt.Errorf("snapshot pushed into non-weighted sketch %q", rb.Spec.Name)
	}
	pushed, err := uss.DecodeBins(blob)
	if err != nil {
		return err
	}
	m := rb.Spec.Bins
	merged := uss.MergeBins(m, red, rb.Weighted.Bins(), pushed)
	nw, err := uss.NewWeightedFromBins(m, merged, rb.Spec.options()...)
	if err != nil {
		return err
	}
	rb.Weighted = nw
	rb.Pushes++
	return nil
}

// parseReduction validates a snapshot record's reduction byte.
func parseReduction(b byte) (uss.Reduction, error) {
	r := uss.Reduction(b)
	switch r {
	case uss.Pairwise, uss.Pivotal, uss.MisraGries:
		return r, nil
	default:
		return 0, fmt.Errorf("unknown reduction byte %d", b)
	}
}

// Applier is the transport-neutral record applier: a set of rebuilt
// sketches plus per-sketch LSN gates, fed decoded WAL records in LSN
// order from any source — the on-disk log tail (boot recovery, `uss wal
// replay`) or a primary's replication stream (follower apply). Every
// consumer shares the same dispatch, so "replayed" and "replicated"
// state are bit-identical by construction. Not safe for concurrent use;
// callers that serve reads from the same sketches (the follower) apply
// under their own per-sketch locks.
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
		rb.ApplyIngest(rec.Items, rec.Weights, rec.Ats)
		rb.LSN = rec.LSN
	case TypeSnapshot:
		rb, ok := a.Sketches[rec.Name]
		if !ok {
			a.Stats.warnf("lsn %d: snapshot push into missing sketch %q", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		red, err := parseReduction(rec.Reduction)
		if err != nil {
			a.Stats.warnf("lsn %d: snapshot push into %q: %v", rec.LSN, rec.Name, err)
			a.Stats.Skipped++
			return
		}
		if err := rb.ApplySnapshot(red, rec.Blob); err != nil {
			a.Stats.warnf("lsn %d: snapshot push into %q: %v", rec.LSN, rec.Name, err)
			a.Stats.Skipped++
			return
		}
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
		a.Stats.warnf("lsn %d: record passes its CRC but does not decode (%v); replay stopped there, %d records through lsn %d not applied",
			stop.lsn, stop.err, lastLSN-stop.lsn+1, lastLSN)
	}
	return &RebuildResult{Sketches: a.Sketches, Stats: a.Stats}, nil
}
