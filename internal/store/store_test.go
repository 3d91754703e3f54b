package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uss "repro"
)

// mustOpen opens a store over a temp dir with the given options applied.
func mustOpen(t *testing.T, dir string, mod func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Sync: SyncNever}
	if mod != nil {
		mod(&opts)
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appendAll logs a create plus a few ingest batches for a unit sketch.
func appendAll(t *testing.T, st *Store, name string, batches [][]string) {
	t.Helper()
	spec := SketchSpec{Name: name, Kind: "unit", Bins: 64, Seed: 42}
	if _, err := st.AppendCreate(mustJSON(t, spec)); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := st.AppendIngest(name, b, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendRebuildRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)

	// One sketch of every kind, driven the way the server drives them.
	specs := []SketchSpec{
		{Name: "u", Kind: "unit", Bins: 64, Seed: 1},
		{Name: "w", Kind: "weighted", Bins: 64, Seed: 2},
		{Name: "s", Kind: "sharded", Bins: 32, Shards: 4, Seed: 3},
		{Name: "r", Kind: "rollup", Bins: 32, WindowLength: 10, Retain: 4, Seed: 4},
	}
	for _, sp := range specs {
		if _, err := st.AppendCreate(mustJSON(t, sp)); err != nil {
			t.Fatal(err)
		}
	}
	items := make([]string, 100)
	ws := make([]float64, 100)
	ats := make([]int64, 100)
	for i := range items {
		items[i] = fmt.Sprintf("item-%02d", i%17)
		ws[i] = float64(1 + i%3)
		ats[i] = int64(i % 40)
	}
	if _, err := st.AppendIngest("u", items, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendIngest("w", items, ws, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendIngest("s", items, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendIngest("r", items, nil, ats); err != nil {
		t.Fatal(err)
	}

	// Push a snapshot into the weighted sketch.
	agent := uss.New(32, uss.WithSeed(9))
	for i := 0; i < 300; i++ {
		agent.Update(fmt.Sprintf("agent-%d", i%10))
	}
	blob, err := agent.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendSnapshot("w", byte(uss.Pairwise), blob); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sketches) != 4 {
		t.Fatalf("rebuilt %d sketches, want 4", len(res.Sketches))
	}
	if res.Stats.Applied != 9 || res.Stats.Skipped != 0 || len(res.Stats.Warnings) != 0 {
		t.Fatalf("stats %+v, want 9 applied, clean", res.Stats)
	}

	// The rebuilt sketches must match a direct in-process replay.
	u := uss.New(64, uss.WithSeed(1))
	u.UpdateAll(items)
	if got, want := res.Sketches["u"].Unit.TopK(5), u.TopK(5); !equalBins(got, want) {
		t.Fatalf("unit top-k = %v, want %v", got, want)
	}
	w := uss.NewWeighted(64, uss.WithSeed(2))
	for i, it := range items {
		w.Update(it, ws[i])
	}
	pushed, err := uss.DecodeBins(blob)
	if err != nil {
		t.Fatal(err)
	}
	merged := uss.MergeBins(64, uss.Pairwise, w.Bins(), pushed)
	nw, err := uss.NewWeightedFromBins(64, merged, uss.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Sketches["w"].Weighted.TopK(8), nw.TopK(8); !equalBins(got, want) {
		t.Fatalf("weighted top-k = %v, want %v", got, want)
	}
	sh := uss.NewSharded(4, 32, uss.WithSeed(3))
	sh.UpdateBatch(items)
	if got, want := res.Sketches["s"].Sharded.TopK(5), sh.TopK(5); !equalBins(got, want) {
		t.Fatalf("sharded top-k = %v, want %v", got, want)
	}
	ro, err := uss.NewRollup(uss.RollupConfig{Bins: 32, WindowLength: 10, Retain: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		ro.Update(it, ats[i])
	}
	if got, want := res.Sketches["r"].Rollup.TopKRange(0, 39, 5), ro.TopKRange(0, 39, 5); !equalBins(got, want) {
		t.Fatalf("rollup top-k = %v, want %v", got, want)
	}
	if rows := res.Sketches["u"].Rows; rows != 100 {
		t.Fatalf("unit rows = %d, want 100", rows)
	}
}

func equalBins(a, b []uss.Bin) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDeleteAndRecreateReplay(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	appendAll(t, st, "x", [][]string{{"a", "a", "b"}})
	if _, err := st.AppendDelete("x"); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, "x", [][]string{{"c"}})
	st.Close()

	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	rb := res.Sketches["x"]
	if rb == nil {
		t.Fatal("sketch x missing after recreate")
	}
	if rb.Rows != 1 || rb.Unit.Estimate("a") != 0 || rb.Unit.Estimate("c") != 1 {
		t.Fatalf("recreated sketch kept old state: rows=%d a=%v c=%v",
			rb.Rows, rb.Unit.Estimate("a"), rb.Unit.Estimate("c"))
	}
}

func TestCheckpointTruncatesAndGates(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so truncation has something to delete.
	st := mustOpen(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	appendAll(t, st, "x", [][]string{{"a", "a", "b"}, {"b", "c"}, {"a"}})

	// Checkpoint at the current applied LSN with the true state.
	sk := uss.New(64, uss.WithSeed(42))
	sk.UpdateAll([]string{"a", "a", "b", "b", "c", "a"})
	state, err := sk.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := st.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	lsn := st.LastLSN()
	if err := cw.Add(SketchSpec{Name: "x", Kind: "unit", Bins: 64, Seed: 42},
		CheckpointMeta{LSN: lsn, Rows: 6}, state); err != nil {
		t.Fatal(err)
	}
	if err := cw.Commit(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 1 || segs[0].firstLSN == 1 {
		t.Fatalf("checkpoint did not truncate: %d segments, first starts at %d", len(segs), segs[0].firstLSN)
	}

	// Tail records after the checkpoint replay on top of it.
	if _, err := st.AppendIngest("x", []string{"d", "d"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CheckpointGen == 0 {
		t.Fatal("rebuild ignored the checkpoint")
	}
	rb := res.Sketches["x"]
	if rb == nil {
		t.Fatal("sketch x missing")
	}
	if rb.Rows != 8 || rb.Unit.Estimate("a") != 3 || rb.Unit.Estimate("d") != 2 {
		t.Fatalf("post-checkpoint state wrong: rows=%d a=%v d=%v", rb.Rows, rb.Unit.Estimate("a"), rb.Unit.Estimate("d"))
	}
	// Nothing below the gate may replay twice: counts above prove it, and
	// the skip counter shows the gate was exercised only for tail overlap.
	if res.Stats.Applied == 0 {
		t.Fatal("no records applied from the tail")
	}
}

func TestTornTailRecovery(t *testing.T) {
	for _, cut := range []int{1, 3, 7} {
		dir := t.TempDir()
		st := mustOpen(t, dir, nil)
		appendAll(t, st, "x", [][]string{{"a", "a"}, {"b"}})
		lastGood := st.LastLSN()
		if _, err := st.AppendIngest("x", []string{"torn-away"}, nil, nil); err != nil {
			t.Fatal(err)
		}
		st.Close()

		// Tear bytes off the last record, as a crash mid-write would.
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		tail := segs[len(segs)-1]
		data, err := os.ReadFile(tail.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tail.path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}

		res, err := Rebuild(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.TornTail {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		rb := res.Sketches["x"]
		if rb == nil || rb.LSN != lastGood || rb.Unit.Estimate("torn-away") != 0 || rb.Unit.Estimate("a") != 2 {
			t.Fatalf("cut %d: salvaged prefix wrong: %+v", cut, rb)
		}

		// Reopening truncates the torn record and new appends replay.
		st2 := mustOpen(t, dir, nil)
		if got := st2.LastLSN(); got != lastGood {
			t.Fatalf("cut %d: reopened LastLSN = %d, want %d", cut, got, lastGood)
		}
		if _, err := st2.AppendIngest("x", []string{"after"}, nil, nil); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		res2, err := Rebuild(dir)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Stats.TornTail || res2.Sketches["x"].Unit.Estimate("after") != 1 {
			t.Fatalf("cut %d: post-truncation append did not replay cleanly: %+v", cut, res2.Stats)
		}
	}
}

func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	appendAll(t, st, "x", [][]string{{"a"}, {"b"}, {"c"}})
	st.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the file.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TornTail {
		t.Fatal("corruption not reported")
	}
	// Whatever survives is a prefix; later records never applied.
	if rb := res.Sketches["x"]; rb != nil && rb.Unit.Estimate("c") != 0 {
		t.Fatalf("replay ran past the corruption: %+v", rb)
	}
}

// TestRebuildReportsUndecodableRecord: a record that passes its CRC but
// fails to decode stops replay like damage does, and recovery says so —
// TornTail is set and a warning names the LSN, the decode error and how
// many records were not applied — instead of booting silently without
// every later record.
func TestRebuildReportsUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	if _, err := st.AppendCreate(mustJSON(t, SketchSpec{Name: "x", Kind: "unit", Bins: 16})); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendIngest("x", []string{"a", "b"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendCreate([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendIngest("x", []string{"c"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rb := res.Sketches["x"]; rb == nil || rb.Rows != 2 {
		t.Fatalf("sketch x = %+v, want the 2 rows before the undecodable record", rb)
	}
	if res.Stats.LastLSN != 4 || res.Stats.Applied != 2 {
		t.Fatalf("LastLSN %d, Applied %d; want 4 and 2", res.Stats.LastLSN, res.Stats.Applied)
	}
	if !res.Stats.TornTail {
		t.Fatal("replay stopped at an undecodable record without setting TornTail")
	}
	if len(res.Stats.Warnings) != 1 {
		t.Fatalf("warnings = %q, want exactly one", res.Stats.Warnings)
	}
	for _, want := range []string{"lsn 3", "create record without a name", "2 records through lsn 4 not applied"} {
		if !strings.Contains(res.Stats.Warnings[0], want) {
			t.Fatalf("warning %q does not name %q", res.Stats.Warnings[0], want)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, func(o *Options) { o.SegmentBytes = 128 })
	var batches [][]string
	for i := 0; i < 20; i++ {
		batches = append(batches, []string{fmt.Sprintf("item-%02d", i), fmt.Sprintf("item-%02d", i)})
	}
	appendAll(t, st, "x", batches)
	st.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rb := res.Sketches["x"]; rb.Rows != 40 || rb.Unit.Estimate("item-07") != 2 {
		t.Fatalf("multi-segment replay wrong: %+v", rb)
	}

	// Resume appending across a reopen: LSNs continue, no overlap.
	st2 := mustOpen(t, dir, func(o *Options) { o.SegmentBytes = 128 })
	if _, err := st2.AppendIngest("x", []string{"resumed"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	res2, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rb := res2.Sketches["x"]; rb.Rows != 41 || rb.Unit.Estimate("resumed") != 1 {
		t.Fatalf("resumed append wrong: %+v", rb)
	}
}

func TestInspectReport(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	appendAll(t, st, "x", [][]string{{"a", "b"}})
	st.Close()

	var types []string
	rep, err := Inspect(dir, func(rec *Record) { types = append(types, rec.TypeName()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 1 || rep.Segments[0].Records != 2 || rep.LastLSN != 2 {
		t.Fatalf("report %+v", rep)
	}
	if len(types) != 2 || types[0] != "create" || types[1] != "ingest" {
		t.Fatalf("record stream %v", types)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, name := range []string{"always", "never"} {
		p, err := ParseSyncPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Fatalf("policy %q round-trips to %q", name, p.String())
		}
		dir := t.TempDir()
		st := mustOpen(t, dir, func(o *Options) { o.Sync = p })
		appendAll(t, st, "x", [][]string{{"a"}})
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := Rebuild(dir)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sketches["x"].Rows != 1 {
			t.Fatalf("policy %s: rows = %d", name, res.Sketches["x"].Rows)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	// The timer policy is gone: always is group commit.
	if _, err := ParseSyncPolicy("interval"); err == nil ||
		!strings.Contains(err.Error(), "always") || !strings.Contains(err.Error(), "never") {
		t.Fatalf("ParseSyncPolicy(interval) = %v, want an error naming always and never", err)
	}
}

// TestWALAppendAllocs pins the acceptance bound: the WAL append path
// runs at ≤ 2 allocs/op in steady state (it is 0 outside the file
// write), so durability does not reintroduce per-batch garbage.
func TestWALAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; the pooled encode buffer cannot hold a deterministic alloc bound")
	}
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	defer st.Close()
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("item-%04d", i)
	}
	if _, err := st.AppendIngest("steady", items, nil, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := st.AppendIngest("steady", items, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("WAL append = %v allocs/op, want <= 2", allocs)
	}
}

// TestStoreBufferHighWaterMark pins that one giant batch does not pin a
// giant encode buffer in the store.
func TestStoreBufferHighWaterMark(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	defer st.Close()
	big := []string{string(bytes.Repeat([]byte("x"), maxRetainedBuf+1024))}
	if _, err := st.AppendIngest("x", big, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendIngest("x", []string{"small"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if cap(st.buf) > maxRetainedBuf {
		t.Fatalf("store retained a %d-byte encode buffer", cap(st.buf))
	}
}

// TestOpenOwnsLayout pins that Open builds the directory layout and a
// fresh store rebuilds to empty.
func TestOpenOwnsLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	st := mustOpen(t, dir, nil)
	if st.LastLSN() != 0 {
		t.Fatalf("fresh store LastLSN = %d", st.LastLSN())
	}
	st.Close()
	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sketches) != 0 || res.Stats.LastLSN != 0 {
		t.Fatalf("fresh rebuild %+v", res.Stats)
	}
}

// TestAppendIngestRefusesUnreplayableWeights: recovery stops at the first
// record it cannot decode and panics on a weight a weighted sketch
// refuses, so no such weight may be logged. Each one fails the append
// without moving the log, and the batch acknowledged after them replays.
func TestAppendIngestRefusesUnreplayableWeights(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	spec := SketchSpec{Name: "w", Kind: "weighted", Bins: 64, Seed: 1}
	if _, err := st.AppendCreate(mustJSON(t, spec)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		before := st.LastLSN()
		if _, err := st.AppendIngest("w", []string{"a", "b"}, []float64{1, bad}, nil); err == nil {
			t.Errorf("weight %v: append succeeded", bad)
		}
		if got := st.LastLSN(); got != before {
			t.Errorf("weight %v: refused append moved the log from LSN %d to %d", bad, before, got)
		}
	}
	if _, err := st.AppendIngest("w", []string{"a", "b"}, []float64{0.5, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	rb := res.Sketches["w"]
	if rb == nil || rb.Weighted.Total() != 2.5 || rb.Rows != 2 {
		t.Fatalf("rebuilt %+v, want the one valid batch: 2 rows, total 2.5", rb)
	}
}
