package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// manifestName is the checkpoint manifest file, written last inside a
// generation directory: its presence marks the generation complete.
const manifestName = "manifest.json"

// cpPrefix prefixes checkpoint generation directories.
const cpPrefix = "cp-"

// manifest is the checkpoint's index: every live sketch's configuration,
// the LSN its state blob covers (all records ≤ LSN are reflected in the
// blob, none after), and the blob's integrity data.
type manifest struct {
	// Generation is the checkpoint's monotonically increasing id.
	Generation uint64 `json:"generation"`
	// CreatedUnix is the commit wall-clock time.
	CreatedUnix int64 `json:"created_unix"`
	// Cutoff is the truncation LSN: every record ≤ Cutoff is covered by
	// this checkpoint, so segments entirely below it were deleted.
	Cutoff uint64 `json:"cutoff"`
	// Sketches lists the checkpointed sketches.
	Sketches []manifestSketch `json:"sketches"`
}

// manifestSketch is one sketch's entry in the manifest.
type manifestSketch struct {
	Spec SketchSpec `json:"spec"`
	// Meta carries the applied-LSN watermark and served counters.
	CheckpointMeta
	// File is the state blob's name inside the generation directory.
	File string `json:"file"`
	// CRC is the blob's CRC32 (IEEE); Size its byte length.
	CRC  uint32 `json:"crc"`
	Size int64  `json:"size"`
}

// CheckpointMeta is the per-sketch bookkeeping a checkpoint persists
// alongside the state blob: the watermark plus the operator-visible
// counters the state itself cannot reproduce. Read every field under
// the same lock the state is encoded under, so state and meta are one
// consistent cut.
type CheckpointMeta struct {
	// LSN is the highest record applied to the state blob; recovery
	// replays exactly the records above it.
	LSN uint64 `json:"lsn"`
	// Rows, Pushes and Dropped are the sketch's served counters at
	// checkpoint time (rows ingested, snapshots merged, rollup rows
	// past retention).
	Rows    int64 `json:"rows"`
	Pushes  int64 `json:"pushes,omitempty"`
	Dropped int64 `json:"dropped,omitempty"`
}

// cpDirName renders a generation's directory name.
func cpDirName(gen uint64) string { return fmt.Sprintf("%s%020d", cpPrefix, gen) }

// listCheckpointGens returns the committed checkpoint generations in dir,
// ascending. Only directories containing a manifest count.
func listCheckpointGens(dir string) []uint64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !ent.IsDir() || !strings.HasPrefix(name, cpPrefix) {
			continue
		}
		gen, err := strconv.ParseUint(strings.TrimPrefix(name, cpPrefix), 10, 64)
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, name, manifestName)); err != nil {
			continue // incomplete generation (crash mid-checkpoint)
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// latestCheckpointGen returns the newest committed generation (0 = none).
func latestCheckpointGen(dir string) uint64 {
	gens := listCheckpointGens(dir)
	if len(gens) == 0 {
		return 0
	}
	return gens[len(gens)-1]
}

// loadManifest reads and parses a generation's manifest.
func loadManifest(dir string, gen uint64) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, cpDirName(gen), manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	return &m, nil
}

// loadCheckpointBlob reads and CRC-verifies one sketch's state blob.
func loadCheckpointBlob(dir string, gen uint64, ms *manifestSketch) ([]byte, error) {
	blob, err := os.ReadFile(filepath.Join(dir, cpDirName(gen), ms.File))
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint state for %q: %w", ms.Spec.Name, err)
	}
	if int64(len(blob)) != ms.Size || crc32.ChecksumIEEE(blob) != ms.CRC {
		return nil, fmt.Errorf("store: checkpoint state for %q fails its CRC", ms.Spec.Name)
	}
	return blob, nil
}

// CheckpointWriter stages one checkpoint generation: add every live
// sketch's state, then Commit to install it atomically and truncate the
// log, or Abort to discard. Begin with Store.BeginCheckpoint.
type CheckpointWriter struct {
	s       *Store
	gen     uint64
	baseLSN uint64 // LastLSN at begin: the cutoff when no sketch bounds it
	tmpDir  string
	man     manifest
	done    bool
}

// BaseLSN returns the log position captured when the checkpoint began:
// every record at or below it existed before the checkpoint walk
// started. A sketch with nothing in flight may raise its replay gate to
// this value.
func (c *CheckpointWriter) BaseLSN() uint64 { return c.baseLSN }

// BeginCheckpoint allocates the next generation and its staging
// directory. The returned writer's cutoff starts at the log's current
// LastLSN; each added sketch lowers it to the minimum covered LSN, so
// truncation never outruns the least-caught-up sketch.
func (s *Store) BeginCheckpoint() (*CheckpointWriter, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: checkpoint on closed store")
	}
	s.cpGen++
	gen := s.cpGen
	base := s.lastLSN()
	s.mu.Unlock()

	tmp := filepath.Join(s.opts.Dir, fmt.Sprintf(".tmp-%s", cpDirName(gen)))
	if err := os.RemoveAll(tmp); err != nil {
		return nil, fmt.Errorf("store: clear checkpoint staging: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("store: checkpoint staging: %w", err)
	}
	return &CheckpointWriter{
		s: s, gen: gen, baseLSN: base, tmpDir: tmp,
		man: manifest{Generation: gen, CreatedUnix: time.Now().Unix()},
	}, nil
}

// Add stages one sketch's state blob with its meta (watermark +
// counters, read under the same lock the state was encoded under).
func (c *CheckpointWriter) Add(spec SketchSpec, meta CheckpointMeta, state []byte) error {
	if c.done {
		return fmt.Errorf("store: add to finished checkpoint")
	}
	file := fmt.Sprintf("%04d.state", len(c.man.Sketches))
	path := filepath.Join(c.tmpDir, file)
	if err := writeFileSync(path, state); err != nil {
		return fmt.Errorf("store: write checkpoint state for %q: %w", spec.Name, err)
	}
	c.man.Sketches = append(c.man.Sketches, manifestSketch{
		Spec: spec, CheckpointMeta: meta, File: file,
		CRC: crc32.ChecksumIEEE(state), Size: int64(len(state)),
	})
	return nil
}

// Commit finalizes the generation: manifest written and fsynced, staging
// directory renamed into place, parent directory fsynced, older
// generations removed, and fully covered log segments deleted. After
// Commit the checkpoint is the recovery baseline.
func (c *CheckpointWriter) Commit() error {
	if c.done {
		return fmt.Errorf("store: double checkpoint commit")
	}
	c.done = true
	cutoff := c.baseLSN
	for i := range c.man.Sketches {
		if l := c.man.Sketches[i].LSN; l < cutoff {
			cutoff = l
		}
	}
	c.man.Cutoff = cutoff
	data, err := json.MarshalIndent(&c.man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := writeFileSync(filepath.Join(c.tmpDir, manifestName), data); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	final := filepath.Join(c.s.opts.Dir, cpDirName(c.gen))
	if err := os.Rename(c.tmpDir, final); err != nil {
		return fmt.Errorf("store: install checkpoint: %w", err)
	}
	if err := fsyncDir(c.s.opts.Dir); err != nil {
		return fmt.Errorf("store: sync data dir: %w", err)
	}
	c.s.met.Checkpoints.Add(1)

	// Older generations are superseded; remove them, then drop every
	// segment whose records all fall at or below the cutoff.
	for _, gen := range listCheckpointGens(c.s.opts.Dir) {
		if gen < c.gen {
			os.RemoveAll(filepath.Join(c.s.opts.Dir, cpDirName(gen)))
		}
	}
	return c.s.truncateThrough(cutoff)
}

// Abort discards the staged generation.
func (c *CheckpointWriter) Abort() {
	if c.done {
		return
	}
	c.done = true
	os.RemoveAll(c.tmpDir)
}

// truncateThrough deletes segments whose every record has LSN ≤ cutoff.
// The active segment always survives.
func (s *Store) truncateThrough(cutoff uint64) error {
	s.mu.Lock()
	activeFirst := s.segFirst
	s.mu.Unlock()
	segs, err := listSegments(s.opts.Dir)
	if err != nil {
		return err
	}
	removed := false
	for i := range segs {
		// A segment's records end where the next one begins; without a
		// successor its extent is unknown from the name alone, and the
		// active segment is still being written — keep both.
		if i+1 >= len(segs) || segs[i].firstLSN >= activeFirst {
			break
		}
		if segs[i+1].firstLSN-1 > cutoff {
			break
		}
		if err := os.Remove(segs[i].path); err != nil {
			return fmt.Errorf("store: truncate segment: %w", err)
		}
		removed = true
	}
	if removed {
		return fsyncDir(walDir(s.opts.Dir))
	}
	return nil
}

// writeFileSync writes data to path and fsyncs the file.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
