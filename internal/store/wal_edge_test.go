package store

import (
	"os"
	"path/filepath"
	"testing"
)

// scannedSegments scans dir's log and returns the per-segment reports
// with sizes and record counts filled in.
func scannedSegments(t *testing.T, dir string) []segmentInfo {
	t.Helper()
	segs, _, _, err := scanLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// ingestRecordSize measures the on-disk size of one fixed-shape ingest
// record by appending it to a scratch store.
func ingestRecordSize(t *testing.T) int64 {
	t.Helper()
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	if _, err := st.AppendIngest("x", []string{"aaaaaaaa"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := scannedSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("probe wrote %d segments, want 1", len(segs))
	}
	return segs[0].size - int64(len(segMagic))
}

// TestRotationAtExactSegmentBoundary pins the rotation edge where a
// record's last byte lands exactly on SegmentBytes mid-batch: the
// exactly-full segment keeps that record (no premature rotation), the
// next append opens a segment named by its first LSN, a reopen refuses
// to resume into the full segment, and recovery sees every record once.
func TestRotationAtExactSegmentBoundary(t *testing.T) {
	d := ingestRecordSize(t)
	dir := t.TempDir()
	// Three fixed-size records fill the segment to the byte.
	st := mustOpen(t, dir, func(o *Options) { o.SegmentBytes = int64(len(segMagic)) + 3*d })

	batch := []string{"aaaaaaaa"}
	for i := 0; i < 3; i++ {
		if _, err := st.AppendIngest("x", batch, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	segs := scannedSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segment filled to the byte rotated early: %d segments", len(segs))
	}
	if segs[0].size != st.opts.SegmentBytes {
		t.Fatalf("full segment is %d bytes, want exactly %d", segs[0].size, st.opts.SegmentBytes)
	}

	// The batch continues: record 4 must land in a fresh segment named by
	// its own LSN.
	if _, err := st.AppendIngest("x", batch, nil, nil); err != nil {
		t.Fatal(err)
	}
	segs = scannedSegments(t, dir)
	if len(segs) != 2 {
		t.Fatalf("append past an exactly-full segment: %d segments, want 2", len(segs))
	}
	if segs[0].records != 3 || segs[1].firstLSN != 4 || segs[1].records != 1 {
		t.Fatalf("rotation split records %d|%d with second firstLSN %d, want 3|1 at 4",
			segs[0].records, segs[1].records, segs[1].firstLSN)
	}
	if st.Metrics().Rotations.Load() != 1 {
		t.Fatalf("rotations counter = %d, want 1", st.Metrics().Rotations.Load())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the boundary cleanly: 4 records, no gaps.
	rep, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastLSN != 4 {
		t.Fatalf("recovered LastLSN = %d, want 4", rep.LastLSN)
	}
	for _, sr := range rep.Segments {
		if sr.Torn {
			t.Fatalf("segment %s reported torn after clean rotation: %s", sr.Path, sr.TornErr)
		}
	}

	// And a fresh segment exactly at SegmentBytes: reopening must start a
	// new one rather than resume into the full file. Delete the tail
	// segment first so the last segment on disk is the exactly-full one.
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, func(o *Options) { o.SegmentBytes = int64(len(segMagic)) + 3*d })
	if _, err := st2.AppendIngest("x", batch, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	segs = scannedSegments(t, dir)
	if len(segs) != 2 || segs[0].size != int64(len(segMagic))+3*d {
		t.Fatalf("reopen resumed into an exactly-full segment (%d segments, first %d bytes)",
			len(segs), segs[0].size)
	}
}

// TestAppendDefersFsync pins the append side of group commit: an append
// returns without an fsync (Syncs stays flat; WaitDurable is the ack
// gate), the data still reaches the OS file (recovery of a live dir sees
// it), an explicit Sync flushes, and rotation fsyncs the outgoing
// segment with no waiter in sight.
func TestAppendDefersFsync(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, func(o *Options) { o.Sync = SyncAlways })
	defer st.Close()

	if _, err := st.AppendIngest("x", []string{"one"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := st.Metrics().Syncs.Load(); n != 0 {
		t.Fatalf("append fsynced inline (%d syncs): the fsync belongs to WaitDurable", n)
	}
	// The record is in the file (OS cache) before any fsync: a crash of
	// the process — not the machine — loses nothing.
	if rep, err := Inspect(dir, nil); err != nil || rep.LastLSN != 1 {
		t.Fatalf("pre-fsync inspect: LastLSN %d, err %v; want 1", rep.LastLSN, err)
	}

	// An explicit Sync flushes with no waiter.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := st.Metrics().Syncs.Load(); n != 1 {
		t.Fatalf("explicit Sync: %d syncs, want 1", n)
	}

	// Rotation must fsync the outgoing segment even with no waiter: the
	// old segment is immutable history the moment a new one starts, so
	// it cannot sit unsynced forever.
	d := ingestRecordSize(t)
	st2 := mustOpen(t, t.TempDir(), func(o *Options) {
		o.Sync = SyncAlways
		o.SegmentBytes = int64(len(segMagic)) + d // one record fills a segment
	})
	defer st2.Close()
	if _, err := st2.AppendIngest("x", []string{"aaaaaaaa"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.AppendIngest("x", []string{"aaaaaaaa"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if st2.Metrics().Rotations.Load() != 1 {
		t.Fatalf("rotations = %d, want 1", st2.Metrics().Rotations.Load())
	}
	if got := st2.SyncedLSN(); got != 1 {
		t.Fatalf("SyncedLSN after rotation = %d, want 1 (the retired segment's record)", got)
	}
}

// TestInspectTornAtEveryOffset truncates the final segment at every
// possible byte offset and requires Inspect (and recovery's scan) to
// come back sane at each one: never an error, LastLSN exactly the
// number of records wholly below the cut, and the segment flagged torn
// whenever the cut is off a record boundary.
func TestInspectTornAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	st := mustOpen(t, src, nil)
	appendAll(t, st, "x", [][]string{{"alpha", "beta"}, {"gamma"}, {"delta", "epsilon", "zeta"}})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(src)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	whole, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: offsets at which a scan of the intact file has
	// delivered k complete records.
	boundaries := map[int64]uint64{int64(len(segMagic)): 0}
	off := int64(len(segMagic))
	var lsn uint64
	for rest := whole[len(segMagic):]; len(rest) > 0; {
		payload, r, err := CutFrame(rest)
		if err != nil || payload == nil {
			t.Fatalf("intact segment does not cut cleanly at %d: %v", off, err)
		}
		off += int64(len(rest) - len(r))
		lsn++
		boundaries[off] = lsn
		rest = r
	}

	dir := t.TempDir()
	if err := os.MkdirAll(walDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(walDir(dir), segName(1))
	for cut := int64(0); cut < int64(len(whole)); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Inspect(dir, nil)
		if err != nil {
			t.Fatalf("cut at %d: Inspect error: %v", cut, err)
		}
		wantLSN, atBoundary := boundaries[cut]
		if !atBoundary {
			// Find the highest boundary below the cut: those records
			// survive, everything after is the tear.
			for o, l := range boundaries {
				if o <= cut && l > wantLSN {
					wantLSN = l
				}
			}
		}
		if rep.LastLSN != wantLSN {
			t.Fatalf("cut at %d: LastLSN %d, want %d", cut, rep.LastLSN, wantLSN)
		}
		if len(rep.Segments) != 1 {
			t.Fatalf("cut at %d: %d segments reported", cut, len(rep.Segments))
		}
		if torn := rep.Segments[0].Torn; torn == atBoundary && cut >= int64(len(segMagic)) {
			t.Fatalf("cut at %d: torn=%v but boundary=%v", cut, torn, atBoundary)
		}
		// Recovery itself must also accept every tear.
		if _, err := Rebuild(dir); err != nil {
			t.Fatalf("cut at %d: Rebuild error: %v", cut, err)
		}
	}
}
