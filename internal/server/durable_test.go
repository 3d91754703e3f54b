package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uss "repro"
	"repro/internal/store"
)

// durableServer boots a Server attached to a store over dir, recovering
// whatever the directory already holds.
func durableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 2, QueueDepth: 8})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

func shutdown(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// topk fetches a sketch's top-k over HTTP.
func topk(t *testing.T, ts *httptest.Server, name string, k int) []binDTO {
	t.Helper()
	var out struct {
		Items []binDTO `json:"items"`
	}
	doJSON(t, "GET", fmt.Sprintf("%s/v1/sketches/%s/topk?k=%d", ts.URL, name, k), nil, &out)
	return out.Items
}

// TestDurableRecoveryAllKinds drives every sketch kind through the
// write-ahead path, recovers twice — once from the raw WAL while the
// first server is still live (the crash view), once after a clean
// shutdown (the checkpoint view) — and requires the recovered top-k to
// be bit-identical to the pre-restart answers.
func TestDurableRecoveryAllKinds(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, dir)

	for _, cfg := range []SketchConfig{
		{Name: "u", Kind: KindUnit, Bins: 64, Seed: 11},
		{Name: "w", Kind: KindWeighted, Bins: 128, Seed: 12},
		{Name: "s", Kind: KindSharded, Bins: 32, Shards: 4, Seed: 13},
		{Name: "r", Kind: KindRollup, Bins: 32, WindowLength: 10, Retain: 8, Seed: 14},
		{Name: "doomed", Kind: KindUnit, Bins: 8, Seed: 15},
	} {
		create(t, ts, cfg)
	}

	ingest := func(name, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sketches/"+name+"/ingest?sync=1", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sync ingest %s: status %d", name, resp.StatusCode)
		}
	}
	var unitRows, weightedRows, shardedRows, rollupRows strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&unitRows, "u-item-%d\n", i%23)
		fmt.Fprintf(&weightedRows, "w-item-%d\t%d\n", i%17, 1+i%3)
		fmt.Fprintf(&shardedRows, "s-item-%d\n", i%31)
		fmt.Fprintf(&rollupRows, "r-item-%d\t%d\n", i%13, i%60)
	}
	ingest("u", unitRows.String())
	ingest("w", weightedRows.String())
	ingest("s", shardedRows.String())
	ingest("r", rollupRows.String())
	ingest("doomed", "gone\n")

	// A pushed agent snapshot rides the WAL too.
	agent := uss.New(64, uss.WithSeed(99))
	for i := 0; i < 400; i++ {
		agent.Update(fmt.Sprintf("w-item-%d", i%9))
	}
	blob, err := agent.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sketches/w/snapshot", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d", resp.StatusCode)
	}

	// Deletes are logged: this sketch must stay dead after recovery.
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/sketches/doomed", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}

	want := map[string][]binDTO{}
	for _, name := range []string{"u", "w", "s"} {
		want[name] = topk(t, ts, name, 10)
	}
	var rangeWant struct {
		Items []binDTO `json:"items"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sketches/r/range/topk?from=0&to=59&k=10", nil, &rangeWant)

	// Crash view: rebuild read-only from the live WAL — no checkpoint,
	// no shutdown — and compare state bit for bit.
	crash, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if crash.Stats.CheckpointGen != 0 {
		t.Fatalf("unexpected checkpoint before shutdown: %+v", crash.Stats)
	}
	if _, ok := crash.Sketches["doomed"]; ok {
		t.Fatal("crash view resurrected a deleted sketch")
	}
	assertTopK(t, "crash unit", crash.Sketches["u"].Unit.TopK(10), want["u"])
	assertTopK(t, "crash weighted", crash.Sketches["w"].Weighted.TopK(10), want["w"])
	assertTopK(t, "crash sharded", crash.Sketches["s"].Sharded.TopK(10), want["s"])
	assertTopK(t, "crash rollup", crash.Sketches["r"].Rollup.TopKRange(0, 59, 10), rangeWant.Items)

	// Clean shutdown checkpoints; the second boot starts from it.
	shutdown(t, s, ts)
	s2, ts2 := durableServer(t, dir)
	defer shutdown(t, s2, ts2)

	var listed struct {
		Sketches []sketchInfo `json:"sketches"`
	}
	doJSON(t, "GET", ts2.URL+"/v1/sketches", nil, &listed)
	if len(listed.Sketches) != 4 {
		t.Fatalf("recovered %d sketches, want 4", len(listed.Sketches))
	}
	for _, name := range []string{"u", "w", "s"} {
		got := topk(t, ts2, name, 10)
		assertTopK(t, "recovered "+name, binsOf(got), want[name])
	}
	var rangeGot struct {
		Items []binDTO `json:"items"`
	}
	doJSON(t, "GET", ts2.URL+"/v1/sketches/r/range/topk?from=0&to=59&k=10", nil, &rangeGot)
	assertTopK(t, "recovered rollup", binsOf(rangeGot.Items), rangeWant.Items)

	var info sketchInfo
	doJSON(t, "GET", ts2.URL+"/v1/sketches/u", nil, &info)
	if info.Rows != 500 {
		t.Fatalf("recovered unit rows = %d, want 500", info.Rows)
	}
	resp = doJSON(t, "GET", ts2.URL+"/v1/sketches/doomed", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted sketch came back: status %d", resp.StatusCode)
	}

	// The recovered server keeps ingesting and recovering.
	resp, err = http.Post(ts2.URL+"/v1/sketches/u/ingest?sync=1", "text/plain", strings.NewReader("after-reboot\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	doJSON(t, "GET", ts2.URL+"/v1/sketches/u", nil, &info)
	if info.Rows != 501 {
		t.Fatalf("post-recovery ingest: rows = %d, want 501", info.Rows)
	}
}

// binsOf converts DTOs to uss bins for comparison.
func binsOf(dtos []binDTO) []uss.Bin {
	out := make([]uss.Bin, len(dtos))
	for i, d := range dtos {
		out[i] = uss.Bin{Item: d.Item, Count: d.Count}
	}
	return out
}

func assertTopK(t *testing.T, label string, got []uss.Bin, want []binDTO) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Item != want[i].Item || got[i].Count != want[i].Count {
			t.Fatalf("%s[%d]: (%q, %v) != (%q, %v)", label, i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
}

// TestDurableAsyncIngestIsRecoverable pins the 202 contract: a batch
// acknowledged async is in the WAL before the acknowledgement, so it
// survives even if it has not been applied yet.
func TestDurableAsyncIngestIsRecoverable(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, dir)
	create(t, ts, SketchConfig{Name: "a", Kind: KindUnit, Bins: 32, Seed: 1})
	for batch := 0; batch < 8; batch++ {
		var rows strings.Builder
		for i := 0; i < 25; i++ {
			fmt.Fprintf(&rows, "item-%d\n", i)
		}
		resp, err := http.Post(ts.URL+"/v1/sketches/a/ingest", "text/plain", strings.NewReader(rows.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("async ingest status %d", resp.StatusCode)
		}
	}
	// Every acknowledged batch is already on the log, applied or not.
	crash, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := crash.Sketches["a"].Rows; got != 200 {
		t.Fatalf("WAL replay found %d rows, want 200", got)
	}
	shutdown(t, s, ts)
}

// TestDurableCheckpointCompaction pins the compaction protocol: after a
// checkpoint the log shrinks to the tail, and recovery from checkpoint +
// tail matches recovery from the full log.
func TestDurableCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 2, QueueDepth: 8})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	// An idle sketch that never sees a write: its watermark is its
	// create record, so it must not pin the checkpoint cutoff at 0 and
	// block compaction.
	create(t, ts, SketchConfig{Name: "idle", Kind: KindWeighted, Bins: 8, Seed: 9})
	create(t, ts, SketchConfig{Name: "c", Kind: KindUnit, Bins: 64, Seed: 3})
	for batch := 0; batch < 30; batch++ {
		var rows strings.Builder
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&rows, "item-%03d\n", (batch*20+i)%41)
		}
		resp, err := http.Post(ts.URL+"/v1/sketches/c/ingest?sync=1", "text/plain", strings.NewReader(rows.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	segsBefore := countSegments(t, dir)
	if segsBefore < 3 {
		t.Fatalf("want a multi-segment log before checkpoint, got %d", segsBefore)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segsAfter := countSegments(t, dir); segsAfter >= segsBefore {
		t.Fatalf("checkpoint did not compact: %d -> %d segments", segsBefore, segsAfter)
	}

	// Post-checkpoint tail records replay on top of the checkpoint: the
	// crash view (read-only rebuild of checkpoint + tail, no shutdown)
	// must match the live server bit for bit.
	resp, err := http.Post(ts.URL+"/v1/sketches/c/ingest?sync=1", "text/plain", strings.NewReader("tail-item\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	preTopK := topk(t, ts, "c", 10)
	crash, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if crash.Stats.CheckpointGen == 0 {
		t.Fatal("crash view ignored the checkpoint")
	}
	assertTopK(t, "checkpoint+tail crash view", crash.Sketches["c"].Unit.TopK(10), preTopK)
	if crash.Sketches["c"].Rows != 601 {
		t.Fatalf("crash view rows = %d, want 601", crash.Sketches["c"].Rows)
	}

	// And a clean restart answers identically.
	shutdown(t, s, ts)
	s2, ts2 := durableServer(t, dir)
	defer shutdown(t, s2, ts2)
	assertTopK(t, "compacted recovery", binsOf(topk(t, ts2, "c", 10)), preTopK)
	var info sketchInfo
	doJSON(t, "GET", ts2.URL+"/v1/sketches/c", nil, &info)
	if info.Rows != 601 {
		t.Fatalf("rows after compacted recovery = %d, want 601", info.Rows)
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".wal") {
			n++
		}
	}
	return n
}

// TestCreateSketchDurable pins the programmatic create path: logged when
// durable, and ErrExists detectable for recovered names.
func TestCreateSketchDurable(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, dir)
	if err := s.CreateSketch(SketchConfig{Name: "pre", Kind: KindUnit, Bins: 16, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSketch(SketchConfig{Name: "pre", Kind: KindUnit, Bins: 16}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	shutdown(t, s, ts)

	s2, ts2 := durableServer(t, dir)
	defer shutdown(t, s2, ts2)
	if err := s2.CreateSketch(SketchConfig{Name: "pre", Kind: KindUnit, Bins: 16}); !errors.Is(err, ErrExists) {
		t.Fatalf("create over recovered sketch: %v, want ErrExists", err)
	}
}

// TestIngestRejectsNonFiniteWeights: strconv.ParseFloat reads NaN and
// Inf in any of their spellings, and neither is a weight. A text row
// carrying one is a 400 on every ingest path — inline, queued, and
// durable with or without ?sync — and on a durable server nothing
// reaches the log, so the batch cannot stall recovery.
func TestIngestRejectsNonFiniteWeights(t *testing.T) {
	_, mem := testServer(t)
	dir := t.TempDir()
	s, dur := durableServer(t, dir)
	defer shutdown(t, s, dur)
	for _, ts := range []*httptest.Server{mem, dur} {
		create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 16, Seed: 1})
	}
	for _, weight := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity"} {
		for _, path := range []struct {
			ts    *httptest.Server
			query string
		}{{mem, "?sync=1"}, {mem, ""}, {dur, "?sync=1"}, {dur, ""}} {
			appends := s.dur.st.Metrics().Appends.Load()
			resp := postText(t, path.ts.URL+"/v1/sketches/w/ingest"+path.query, "a\t1\nb\t"+weight+"\n")
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("weight %q via %s%s: status %d, want 400", weight, path.ts.URL, path.query, resp.StatusCode)
			}
			if got := s.dur.st.Metrics().Appends.Load(); got != appends {
				t.Errorf("weight %q via %s%s: WAL appends %d → %d", weight, path.ts.URL, path.query, appends, got)
			}
		}
	}
	for _, ts := range []*httptest.Server{mem, dur} {
		if info := doInfo(t, ts, "w"); info.Rows != 0 || info.Total != 0 {
			t.Errorf("%s: rejected batches left rows %d total %v", ts.URL, info.Rows, info.Total)
		}
	}
}

// TestRecoveryUnappliedRecordsGauge: a server attached to a rebuild that
// stopped at an undecodable record (TestRebuildReportsUndecodableRecord's
// log: two records past it unapplied) exports the count on /metrics, and
// a clean boot exports 0.
func TestRecoveryUnappliedRecordsGauge(t *testing.T) {
	gauge := func(ts *httptest.Server) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "ussd_recovery_unapplied_records ") {
				return line
			}
		}
		t.Fatalf("/metrics has no ussd_recovery_unapplied_records sample:\n%s", body)
		return ""
	}
	clean, cts := durableServer(t, t.TempDir())
	defer shutdown(t, clean, cts)
	if got := gauge(cts); got != "ussd_recovery_unapplied_records 0" {
		t.Fatalf("clean boot: %q", got)
	}

	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(store.SketchSpec{Name: "x", Kind: "unit", Bins: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, appendRec := range []func() (uint64, error){
		func() (uint64, error) { return st.AppendCreate(spec) },
		func() (uint64, error) { return st.AppendIngest("x", []string{"a", "b"}, nil, nil) },
		func() (uint64, error) { return st.AppendCreate([]byte("{}")) },
		func() (uint64, error) { return st.AppendIngest("x", []string{"c"}, nil, nil) },
	} {
		if _, err := appendRec(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts := durableServer(t, dir)
	defer shutdown(t, s, ts)
	if got := gauge(ts); got != "ussd_recovery_unapplied_records 2" {
		t.Fatalf("boot past an undecodable record: %q", got)
	}
}
