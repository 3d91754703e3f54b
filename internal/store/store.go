package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

// The two fsync policies. Under SyncAlways an append does not fsync by
// itself: WaitDurable is the ack gate, and the waiter that finds its
// LSN uncovered runs one fsync for everything appended so far (group
// commit, groupcommit.go), so an acknowledged record survives power
// loss. SyncNever leaves flushing to the OS page cache.
const (
	SyncAlways SyncPolicy = iota
	SyncNever
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag values always|never.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always or never)", s)
	}
}

// Options parameterizes Open.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rotates the active segment past this size (default
	// 64 MiB).
	SegmentBytes int64
	// DiskSoftBytes is the soft free-space watermark: below it the
	// store reports DiskSoft pressure so the owner sheds and
	// checkpoints ahead of the hard stop (default 256 MiB).
	DiskSoftBytes int64
	// DiskHardBytes is the hard free-space watermark: below it appends
	// refuse with ErrReadOnly (default 64 MiB).
	DiskHardBytes int64
	// DiskCheckEvery is how many appends pass between free-space probes
	// while healthy; degraded stores probe on every append so recovery
	// is prompt (default 64).
	DiskCheckEvery int
	// FsyncHist, when non-nil, receives every active-segment fsync's
	// latency in nanoseconds (exported as a /metrics histogram).
	FsyncHist *obs.Histogram
	// GroupCommitHist, when non-nil, receives the number of records each
	// successful fsync newly covered — the group-commit batch size.
	GroupCommitHist *obs.Histogram
	// Log receives structured warnings — pressure transitions, fsync
	// failures (default: discard).
	Log *slog.Logger
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.DiskSoftBytes <= 0 {
		o.DiskSoftBytes = 256 << 20
	}
	if o.DiskHardBytes <= 0 {
		o.DiskHardBytes = 64 << 20
	}
	if o.DiskCheckEvery <= 0 {
		o.DiskCheckEvery = 64
	}
	if o.Log == nil {
		o.Log = obs.NopLogger()
	}
	o.Log = o.Log.With("component", "store")
}

// maxRetainedBuf is the encode buffer's high-water mark: one oversized
// batch must not pin a giant buffer in the store forever.
const maxRetainedBuf = 4 << 20

// Metrics are the store's monotonic counters, safe to read concurrently.
type Metrics struct {
	// Appends counts records appended.
	Appends atomic.Int64
	// Bytes counts framed bytes written to the log.
	Bytes atomic.Int64
	// Syncs counts explicit fsyncs of the active segment.
	Syncs atomic.Int64
	// Rotations counts segment rotations.
	Rotations atomic.Int64
	// Checkpoints counts committed checkpoint generations.
	Checkpoints atomic.Int64
	// SyncErrors counts fsyncs that failed (the waiter that ran one
	// reports the error; the next waiter retries).
	SyncErrors atomic.Int64
	// DiskSoftTrips counts transitions into DiskSoft pressure.
	DiskSoftTrips atomic.Int64
	// DiskHardTrips counts transitions into DiskHard (read-only) mode.
	DiskHardTrips atomic.Int64
	// ReadOnlyRejects counts appends refused with ErrReadOnly.
	ReadOnlyRejects atomic.Int64
	// DurableWaits counts WaitDurable calls that found their LSN not yet
	// covered and so ran or waited for an fsync.
	DurableWaits atomic.Int64
}

// Store is the append side of the log: it owns the active segment and
// the checkpoint directory. Appends are serialized internally; one Store
// owns its data directory exclusively. Open recovers the torn tail of a
// crashed log before appending continues.
type Store struct {
	opts Options
	met  Metrics

	mu       sync.Mutex
	f        *os.File // active segment
	fsize    int64
	segFirst uint64 // first LSN of the active segment
	segRecs  int    // records in the active segment
	buf      []byte // reused frame encode buffer
	cpGen    uint64 // last committed checkpoint generation
	closed   bool

	notify chan struct{} // closed and replaced on every append (WaitForLSN)

	syncedLSN  atomic.Uint64 // highest LSN covered by a successful fsync
	syncing    bool          // a WaitDurable fsync is in flight; guarded by mu
	syncNotify chan struct{} // closed and replaced when that fsync ends (WaitDurable)

	pressure   atomic.Int32 // disk pressure level (pressure.go)
	sinceCheck int          // appends since the last free-space probe; guarded by mu
}

// Open prepares dir for appending: it creates the directory layout if
// missing, scans the existing log to find the next LSN, truncates a torn
// record off the last segment (the expected crash artifact), and opens a
// fresh or resumed active segment. Open does not replay state — use
// Rebuild (offline) or the server's recovery for that, before appending.
func Open(opts Options) (*Store, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if err := os.MkdirAll(walDir(opts.Dir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	segs, lastLSN, _, err := scanLog(opts.Dir, nil)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, notify: make(chan struct{}), syncNotify: make(chan struct{})}
	s.cpGen = latestCheckpointGen(opts.Dir)

	// A data dir with a checkpoint but no log (a follower that just
	// installed a checkpoint bundle, or a log fully truncated by
	// checkpointing and then lost) must not restart LSNs from 1: the
	// checkpoint already covers LSNs up to its high watermark, and reusing
	// them would make the gated replay skip new records. Resume numbering
	// above everything the checkpoint covers.
	if lastLSN == 0 && s.cpGen != 0 {
		if man, err := loadManifest(opts.Dir, s.cpGen); err == nil {
			lastLSN = man.Cutoff
			for i := range man.Sketches {
				if l := man.Sketches[i].LSN; l > lastLSN {
					lastLSN = l
				}
			}
		}
	}

	// Truncate the torn tail of the final segment so appends resume on a
	// clean record boundary. Damage in earlier segments is left in place:
	// replay already stops there, and rewriting history is not the append
	// path's job.
	if n := len(segs); n > 0 && segs[n-1].torn {
		tail := segs[n-1]
		if err := os.Truncate(tail.path, tail.validLen); err != nil {
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if tail.validLen == 0 {
			// Not even a magic header survived; rewrite it below by
			// resuming into a fresh file at the same first LSN.
			if err := os.Remove(tail.path); err != nil {
				return nil, fmt.Errorf("store: drop empty torn segment: %w", err)
			}
			segs = segs[:n-1]
			if lastLSN >= tail.firstLSN {
				lastLSN = tail.firstLSN - 1
			}
		}
	}

	next := lastLSN + 1
	if n := len(segs); n > 0 && !segs[n-1].torn && segs[n-1].size < opts.SegmentBytes {
		// Resume appending into the last segment.
		tail := segs[n-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: reopen segment: %w", err)
		}
		s.f, s.fsize, s.segFirst, s.segRecs = f, tail.validLen, tail.firstLSN, tail.records
	} else if err := s.newSegment(next); err != nil {
		return nil, err
	}

	// Seed the pressure state so a store opened on an already-full disk
	// refuses appends from the first call instead of the 65th.
	s.checkDisk()
	return s, nil
}

// newSegment rotates to a fresh segment whose first record will be lsn.
// Caller holds mu (or is Open).
func (s *Store) newSegment(lsn uint64) error {
	if s.f != nil {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: sync rotated segment: %w", err)
		}
		// Everything before the rotation point is on stable storage now.
		s.markSynced(lsn - 1)
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("store: close rotated segment: %w", err)
		}
		s.met.Rotations.Add(1)
	}
	path := filepath.Join(walDir(s.opts.Dir), segName(lsn))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: write segment header: %w", err)
	}
	if err := fsyncDir(walDir(s.opts.Dir)); err != nil {
		f.Close()
		return fmt.Errorf("store: sync wal dir: %w", err)
	}
	s.f, s.fsize, s.segFirst, s.segRecs = f, int64(len(segMagic)), lsn, 0
	return nil
}

// append writes one sealed frame (header already patched by sealFrame)
// and returns the record's LSN. Caller holds mu. The frame arrives as an
// explicit argument so encodes can happen outside the lock: the in-lock
// Append* paths pass the store-owned stage buffer, while AppendIngest
// passes a pooled buffer its caller encoded concurrently with other
// batches (the batch-sharded half of group commit).
func (s *Store) append(frame []byte) (uint64, error) {
	if s.closed {
		return 0, fmt.Errorf("store: append to closed store")
	}
	// Disk watermark gate: probe every DiskCheckEvery appends while
	// healthy, every append while degraded so the read-only condition
	// clears as soon as space returns.
	s.sinceCheck++
	if s.pressure.Load() != DiskHealthy || s.sinceCheck >= s.opts.DiskCheckEvery {
		s.sinceCheck = 0
		s.checkDisk()
	}
	if s.pressure.Load() == DiskHard {
		s.met.ReadOnlyRejects.Add(1)
		return 0, fmt.Errorf("%w (free space under %d bytes)", ErrReadOnly, s.opts.DiskHardBytes)
	}
	lsn := s.segFirst + uint64(s.segRecs)
	if s.fsize >= s.opts.SegmentBytes {
		if err := s.newSegment(lsn); err != nil {
			return 0, err
		}
	}
	if faultinject.Hit("wal.torn-write") {
		// Injected crash artifact: a prefix of the frame reaches the file,
		// then the "process dies" — the store wedges so nothing appends
		// after the tear, exactly like a real power cut mid-write.
		s.f.Write(frame[:len(frame)/2])
		s.f.Sync()
		s.closed = true
		close(s.notify)
		s.notify = make(chan struct{})
		close(s.syncNotify)
		s.syncNotify = make(chan struct{})
		return 0, fmt.Errorf("store: append record: injected torn write")
	}
	if _, err := s.f.Write(frame); err != nil {
		// A failed WAL write is almost always the disk filling under us
		// between probes. Roll the partial frame back so the tail stays
		// a clean record boundary, flip to read-only and report it as
		// such — degrade, don't wedge.
		s.f.Truncate(s.fsize)
		s.setPressure(DiskHard)
		s.met.ReadOnlyRejects.Add(1)
		return 0, fmt.Errorf("store: append record: %w: %v", ErrReadOnly, err)
	}
	s.fsize += int64(len(frame))
	s.segRecs++
	s.met.Appends.Add(1)
	s.met.Bytes.Add(int64(len(frame)))
	// Wake WAL-stream long-polls blocked in WaitForLSN.
	close(s.notify)
	s.notify = make(chan struct{})
	return lsn, nil
}

// stage resets the reused encode buffer, reserving the 8-byte frame
// header as a placeholder, and returns it for payload appends. sealFrame
// patches the header in once the payload is encoded, so each record is
// staged and written without copying the payload twice.
func (s *Store) stage() []byte {
	if cap(s.buf) > maxRetainedBuf {
		s.buf = nil
	}
	s.buf = append(s.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	return s.buf
}

// AppendCreate logs a sketch creation. cfg is the SketchSpec-shaped JSON
// the sketch was created from.
func (s *Store) AppendCreate(cfg []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload := append(s.stage(), TypeCreate)
	payload = append(payload, cfg...)
	s.sealFrame(payload)
	return s.append(s.buf)
}

// AppendDelete logs a sketch deletion.
func (s *Store) AppendDelete(name string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload := append(s.stage(), TypeDelete)
	payload = append(payload, name...)
	s.sealFrame(payload)
	return s.append(s.buf)
}

// encBuf is a pooled per-batch frame encode buffer; batchEncPool lets
// concurrent ingest handlers frame their batches outside the store lock,
// so under group commit the only serialized work per batch is the buffer
// write itself.
type encBuf struct{ b []byte }

var batchEncPool = sync.Pool{New: func() any { return new(encBuf) }}

// replayableWeight reports whether a weighted sketch can apply w: it
// must be positive and finite (WeightedSketch.Update panics on zero).
// AppendIngest refuses any other weight and the decoder rejects it, so a
// record that carries one anyway stops replay instead of crashing it.
func replayableWeight(w float64) bool { return w > 0 && !math.IsInf(w, 0) }

// AppendIngest logs one ingest batch for a sketch: the item column plus
// optional weights and timestamps (pass nil for columns the kind does not
// use). The frame is encoded into a pooled buffer before the store lock
// is taken — concurrent callers encode their batches in parallel and
// serialize only on the final buffer write — and steady-state appends
// stay allocation-free. A weight recovery could not replay is refused
// before anything is logged: recovery stops at the first record it cannot
// decode, which would hide every later acknowledged batch.
func (s *Store) AppendIngest(name string, items []string, ws []float64, ats []int64) (uint64, error) {
	for i, w := range ws {
		if !replayableWeight(w) {
			return 0, fmt.Errorf("store: ingest batch for %q: row %d has invalid weight %v", name, i, w)
		}
	}
	eb := batchEncPool.Get().(*encBuf)
	frame := append(eb.b[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	frame = appendIngestPayload(frame, name, items, ws, ats)
	sealFrameHeader(frame)
	s.mu.Lock()
	lsn, err := s.append(frame)
	s.mu.Unlock()
	if cap(frame) <= maxRetainedBuf {
		eb.b = frame
		batchEncPool.Put(eb)
	}
	return lsn, err
}

// AppendSnapshot logs a pushed wire-v2 snapshot and the reduction it was
// merged with.
func (s *Store) AppendSnapshot(name string, reduction byte, blob []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload := append(s.stage(), TypeSnapshot)
	payload = appendLenPrefixed(payload, name)
	payload = append(payload, reduction)
	payload = append(payload, blob...)
	s.sealFrame(payload)
	return s.append(s.buf)
}

// Sync flushes the active segment to stable storage, holding the
// append mutex throughout.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.f == nil {
		return nil
	}
	last := s.lastLSN()
	took, err := fsyncFile(s.f)
	return s.finishSync(last, took, err)
}

// fsyncFile fsyncs f, honoring the wal.stall-fsync and wal.fail-fsync
// faultpoints, and reports how long the fsync itself took. It needs no
// lock: WaitDurable runs it outside mu.
func fsyncFile(f *os.File) (time.Duration, error) {
	faultinject.Sleep("wal.stall-fsync", 50*time.Millisecond)
	if faultinject.Hit("wal.fail-fsync") {
		return 0, fmt.Errorf("injected failure")
	}
	start := time.Now()
	err := f.Sync()
	return time.Since(start), err
}

// finishSync accounts for one fsync of the active segment that covered
// every record through last: on success it counts the fsync and its
// group size and advances the durable watermark; on failure it counts
// and logs the error. A failure is moot, and not counted, when the
// watermark already covers last: another fsync made those records
// durable first, as rotation and Close do before closing the file a
// waiter may still be syncing. Caller holds mu.
func (s *Store) finishSync(last uint64, took time.Duration, err error) error {
	if err != nil {
		if s.syncedLSN.Load() >= last {
			return nil
		}
		s.met.SyncErrors.Add(1)
		s.opts.Log.Warn("fsync failed", "err", err, "lsn", last)
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.opts.FsyncHist.Record(int64(took))
	s.met.Syncs.Add(1)
	if covered := int64(last) - int64(s.syncedLSN.Load()); covered > 0 {
		s.opts.GroupCommitHist.Record(covered)
	}
	s.markSynced(last)
	return nil
}

// markSynced records that every LSN up to and including last is on
// stable storage. Caller holds mu (or is single-threaded in Open).
func (s *Store) markSynced(last uint64) {
	if last > s.syncedLSN.Load() {
		s.syncedLSN.Store(last)
	}
}

// lastLSN returns the highest assigned LSN (0 when the log is empty).
// Caller holds mu.
func (s *Store) lastLSN() uint64 { return s.segFirst + uint64(s.segRecs) - 1 }

// LastLSN returns the highest assigned LSN (0 when the log is empty).
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN()
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.opts.Dir }

// WireObs attaches observability sinks after Open: the fsync-latency and
// group-commit batch histograms plus a structured logger. The server
// calls this from AttachStore, so every embedder that hands its store to
// a server gets wired without touching its Open call. Nil arguments
// leave the current sink in place.
func (s *Store) WireObs(fsync, group *obs.Histogram, log *slog.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fsync != nil {
		s.opts.FsyncHist = fsync
	}
	if group != nil {
		s.opts.GroupCommitHist = group
	}
	if log != nil {
		s.opts.Log = log.With("component", "store")
	}
}

// Metrics returns the store's counters for scraping.
func (s *Store) Metrics() *Metrics { return &s.met }

// Close flushes and closes the active segment. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.notify)
	s.notify = make(chan struct{})
	close(s.syncNotify)
	s.syncNotify = make(chan struct{})
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if err == nil {
		s.markSynced(s.lastLSN())
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// sealFrameHeader writes the length+CRC header into a frame's reserved
// 8-byte placeholder. The buffer need not belong to the store — the
// pooled ingest encode seals outside the lock.
func sealFrameHeader(buf []byte) {
	payload := buf[frameOverhead:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
}

// sealFrame seals the staged record and adopts buf (possibly regrown by
// payload appends) as the store's reusable stage buffer.
func (s *Store) sealFrame(buf []byte) {
	sealFrameHeader(buf)
	s.buf = buf
}

// appendLenPrefixed appends a uvarint-length-prefixed string.
func appendLenPrefixed(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}
