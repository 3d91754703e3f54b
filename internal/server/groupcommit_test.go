package server

// Server-level group-commit tests: the HTTP ack ordering over the
// default store, whose WaitDurable is group commit. An acknowledged
// request implies a covering fsync ran; a store whose fsyncs fail must
// answer 503 without acknowledging, even though the record is logged and
// will apply.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	uss "repro"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// groupCommitServer boots a durable server over the default store.
func groupCommitServer(t *testing.T, dir string) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 2, QueueDepth: 8, RequestTimeout: 500 * time.Millisecond})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, st
}

// TestGroupCommitServerAckImpliesFsync ingests through the group-commit
// ack gate and checks each acknowledged request was covered by an fsync,
// then restarts and requires the acked rows back bit-for-bit.
func TestGroupCommitServerAckImpliesFsync(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s, ts, st := groupCommitServer(t, dir)

	create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 64, Seed: 11})
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/sketches/u/ingest?sync=1", "text/plain",
			strings.NewReader("a\nb\nc\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sync ingest %d: status %d", i, resp.StatusCode)
		}
		// The ack gate: acknowledged means fsynced.
		if st.SyncedLSN() < st.LastLSN() {
			t.Fatalf("acked ingest %d with synced LSN %d behind last LSN %d", i, st.SyncedLSN(), st.LastLSN())
		}
	}
	// Async acks ride the same gate.
	resp, err := http.Post(ts.URL+"/v1/sketches/u/ingest", "text/plain", strings.NewReader("d\ne\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async ingest: status %d", resp.StatusCode)
	}
	if st.SyncedLSN() < st.LastLSN() {
		t.Fatalf("202 sent with synced LSN %d behind last LSN %d", st.SyncedLSN(), st.LastLSN())
	}

	before := topk(t, ts, "u", 10)
	shutdown(t, s, ts)

	s2, ts2, _ := groupCommitServer(t, dir)
	defer shutdown(t, s2, ts2)
	after := topk(t, ts2, "u", 10)
	if len(after) != len(before) {
		t.Fatalf("recovered %d top-k items, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("recovered top-k[%d] = %+v, want %+v", i, after[i], before[i])
		}
	}
}

// TestGroupCommitServerNeverAcksUnfsynced arms wal.fail-fsync and checks
// the server answers the failed fsync with a 503 instead of acknowledging
// a record no fsync covered. The batch is still logged and applies — group
// commit weakens nothing about at-least-once, only the ack is withheld.
func TestGroupCommitServerNeverAcksUnfsynced(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s, ts, st := groupCommitServer(t, dir)

	create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 64, Seed: 7})
	// Let the create's records reach disk before breaking fsync.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.WaitDurable(ctx, st.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable("wal.fail-fsync"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/sketches/u/ingest", "text/plain", strings.NewReader("x\ny\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest under failing fsync: status %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "durable") {
		t.Fatalf("503 body %q does not explain the withheld ack", body)
	}
	if st.Metrics().SyncErrors.Load() == 0 {
		t.Fatal("no injected fsync failure was recorded")
	}

	// Heal the disk: the next waiter's fsync covers the log, and new
	// writes ack normally again.
	faultinject.Reset()
	resp, err = http.Post(ts.URL+"/v1/sketches/u/ingest?sync=1", "text/plain", strings.NewReader("z\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after fsyncs healed: status %d", resp.StatusCode)
	}
	shutdown(t, s, ts)

	// Both batches were logged (the 503'd one included), so recovery
	// replays all three rows.
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sk := rebuilt.Sketches["u"]; sk == nil || sk.Rows != 3 {
		t.Fatalf("recovered rows = %v, want 3 (2 logged-unacked + 1 acked)", rebuilt.Sketches["u"])
	}
}

// TestEveryAppendReturnsDurable drives each entry point that appends to
// the log of a durable server on the default store, and requires that
// each one returns success only with its record fsynced: no append
// fsyncs by itself, so every one of them must wait. kill -9 suites
// cannot see a missing wait (the page cache survives the process).
func TestEveryAppendReturnsDurable(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s, ts, st := groupCommitServer(t, dir)
	defer shutdown(t, s, ts)
	durable := func(st *store.Store, what string) {
		t.Helper()
		if st.SyncedLSN() < st.LastLSN() {
			t.Fatalf("%s returned with SyncedLSN %d < LastLSN %d", what, st.SyncedLSN(), st.LastLSN())
		}
	}
	send := func(method, path, ct, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d (%s), want %d", method, path, resp.StatusCode, msg, want)
		}
		durable(st, method+" "+path)
	}

	send("POST", "/v1/sketches", "application/json", `{"name":"u","kind":"unit","bins":64,"seed":3}`, http.StatusCreated)
	send("POST", "/v1/sketches/u/ingest", "text/plain", "a\nb\n", http.StatusAccepted)
	send("POST", "/v1/sketches/u/ingest?sync=1", "text/plain", "c\n", http.StatusOK)
	if err := s.CreateSketch(SketchConfig{Name: "w", Kind: KindWeighted, Bins: 64, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	durable(st, "CreateSketch")
	agent := uss.NewWeighted(16, uss.WithSeed(5))
	agent.Update("x", 2)
	blob, err := agent.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	send("POST", "/v1/sketches/w/snapshot", "application/octet-stream", string(blob), http.StatusOK)
	if err := s.RestoreSketch(SketchConfig{Name: "r", Kind: KindUnit, Bins: 16}, SketchStats{}, nil); err != nil {
		t.Fatal(err)
	}
	durable(st, "RestoreSketch")
	send("DELETE", "/v1/sketches/r", "text/plain", "", http.StatusNoContent)
	if ok, err := s.DeleteSketch("w"); !ok || err != nil {
		t.Fatalf("DeleteSketch = %v, %v", ok, err)
	}
	durable(st, "DeleteSketch")

	// A follower replays the same log one record at a time, then promotes.
	f, fts, fst := groupCommitServer(t, t.TempDir())
	defer shutdown(t, f, fts)
	f.SetRole(RoleFollower)
	n := 0
	if _, err := store.StreamPayloads(dir, 1, 0, func(lsn uint64, payload []byte) error {
		if err := f.ApplyReplicated(lsn, payload); err != nil {
			return err
		}
		durable(fst, fmt.Sprintf("ApplyReplicated(%d)", lsn))
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("follower applied %d records, want the primary's 8", n)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	durable(fst, "Promote")
}
