package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecord feeds arbitrary bytes to the log scanner as a segment
// file: recovery must salvage whatever valid prefix exists and must
// never panic, whatever the framing, CRCs or record payloads claim —
// truncated records, corrupt lengths, duplicated content, garbage JSON
// in create records, hostile row counts. The seeds cover a real segment
// (every record type), its truncations, and bit flips.
func FuzzWALRecord(f *testing.F) {
	// Build a genuine segment holding all four record types.
	seedDir := f.TempDir()
	st, err := Open(Options{Dir: seedDir, Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	spec, _ := json.Marshal(SketchSpec{Name: "x", Kind: "weighted", Bins: 16, Seed: 5})
	if _, err := st.AppendCreate(spec); err != nil {
		f.Fatal(err)
	}
	if _, err := st.AppendIngest("x", []string{"a", "bb", "ccc"}, []float64{1, 2, 3}, nil); err != nil {
		f.Fatal(err)
	}
	if _, err := st.AppendIngest("x", []string{"t1", "t2"}, nil, []int64{-5, 12}); err != nil {
		f.Fatal(err)
	}
	if _, err := st.AppendSnapshot("x", 0, []byte("not-a-real-snapshot")); err != nil {
		f.Fatal(err)
	}
	if _, err := st.AppendDelete("x"); err != nil {
		f.Fatal(err)
	}
	st.Close()
	segs, err := listSegments(seedDir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("seed segment: %v (%d segments)", err, len(segs))
	}
	valid, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])             // torn tail
	f.Add(valid[:len(valid)/2])             // torn mid-record
	f.Add(append([]byte{}, segMagic[:]...)) // empty segment
	f.Add([]byte("garbage"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), valid[8:]...)) // duplicated records

	// Group-commit frames: many back-to-back ingest records written under
	// one covering fsync (the default policy appends without fsyncing and
	// leaves it to WaitDurable). The on-disk shape a crashed commit group
	// leaves behind is a run of whole frames with the last one possibly
	// torn mid-write — recovery must salvage every whole frame of the
	// group.
	gcDir := f.TempDir()
	gst, err := Open(Options{Dir: gcDir})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := gst.AppendCreate(spec); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := gst.AppendIngest("x", []string{"g1", "g22", "g333"}, []float64{1, 2, 3}, nil); err != nil {
			f.Fatal(err)
		}
	}
	gst.Close()
	gsegs, err := listSegments(gcDir)
	if err != nil || len(gsegs) != 1 {
		f.Fatalf("group-commit seed segment: %v (%d segments)", err, len(gsegs))
	}
	group, err := os.ReadFile(gsegs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(group)                  // whole commit group
	f.Add(group[:len(group)-5])   // last frame of the group torn
	f.Add(group[:2*len(group)/3]) // crash mid-group
	gflip := append([]byte(nil), group...)
	gflip[len(gflip)-10] ^= 0x08 // corrupt a late frame: prefix must survive
	f.Add(gflip)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(walDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir(dir), segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Read-only recovery: must not panic, must not error on record
		// damage (only on I/O failure, which cannot happen here).
		res, err := Rebuild(dir)
		if err != nil {
			t.Fatalf("Rebuild errored on damaged log: %v", err)
		}
		if _, err := Inspect(dir, func(*Record) {}); err != nil {
			t.Fatalf("Inspect errored on damaged log: %v", err)
		}
		// Opening truncates the damage and the log accepts appends; the
		// salvaged prefix must survive unchanged.
		st, err := Open(Options{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatalf("Open errored on damaged log: %v", err)
		}
		if _, err := st.AppendIngest("x", []string{"post"}, nil, nil); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		st.Close()
		res2, err := Rebuild(dir)
		if err != nil {
			t.Fatalf("Rebuild after reopen: %v", err)
		}
		if len(res2.Sketches) < len(res.Sketches) {
			t.Fatalf("reopen lost sketches: %d -> %d", len(res.Sketches), len(res2.Sketches))
		}
	})
}
