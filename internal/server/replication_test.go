package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	uss "repro"
	"repro/internal/store"
)

// logPayloads writes a log through fn and returns its record payloads in
// LSN order, as a primary's WAL stream carries them.
func logPayloads(t *testing.T, fn func(st *store.Store) error) [][]byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(st); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	if _, err := store.StreamPayloads(dir, 1, 0, func(_ uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// appendUnitCreate logs the create record of unit sketch "u".
func appendUnitCreate(st *store.Store) error {
	spec, err := json.Marshal(store.SketchSpec{Name: "u", Kind: "unit", Bins: 16, Seed: 3})
	if err != nil {
		return err
	}
	_, err = st.AppendCreate(spec)
	return err
}

// followerServer boots a durable server over dir in the follower role.
func followerServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	f, fts := durableServer(t, dir)
	f.SetRole(RoleFollower)
	return f, fts
}

// TestReplicatedSnapshotIntoUnitSketch: a replicated snapshot record for
// a unit sketch is logged but not applied, the way recovery skips it, and
// the entry stays usable — it reads, and takes writes once promoted.
func TestReplicatedSnapshotIntoUnitSketch(t *testing.T) {
	agent := uss.NewWeighted(16, uss.WithSeed(5))
	agent.Update("x", 2)
	blob, err := agent.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := logPayloads(t, func(st *store.Store) error {
		if err := appendUnitCreate(st); err != nil {
			return err
		}
		_, err := st.AppendSnapshot("u", byte(uss.Pairwise), blob)
		return err
	})

	dir := t.TempDir()
	f, fts := followerServer(t, dir)
	// Shut down at the end, not deferred: an apply that panics holding
	// e.mu would block Shutdown's drain checkpoint and hang the test
	// instead of failing it.
	defer fts.Close()
	for i, p := range payloads {
		if err := f.ApplyReplicated(uint64(i+1), p); err != nil {
			t.Fatalf("ApplyReplicated(%d) = %v", i+1, err)
		}
	}
	if next := f.WALNextLSN(); next != 3 {
		t.Fatalf("follower next LSN %d, want 3: both records logged", next)
	}
	if info := doInfo(t, fts, "u"); info.Size != 0 || info.Pushes != 0 {
		t.Fatalf("snapshot applied to a unit sketch: %+v", info)
	}
	if got := topk(t, fts, "u", 5); len(got) != 0 {
		t.Fatalf("topk = %v, want empty", got)
	}
	res, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Applied != 1 || res.Stats.Skipped != 1 {
		t.Fatalf("recovery applied %d and skipped %d, want 1 and 1", res.Stats.Applied, res.Stats.Skipped)
	}

	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	ingestText(t, fts, "u", "a\n")
	if got := topk(t, fts, "u", 5); len(got) != 1 || got[0] != (binDTO{Item: "a", Count: 1}) {
		t.Fatalf("topk after promoted ingest = %v, want a:1", got)
	}
	shutdown(t, f, fts)
}

// TestPromoteMidReplicatedApply stalls a follower's entry while a
// replicated ingest is queued for it, promotes, and sends a client write
// to the same sketch. The replicated record must apply first: the entry
// ends with every logged record applied, and a checkpoint then recovers
// exactly the acknowledged rows.
func TestPromoteMidReplicatedApply(t *testing.T) {
	payloads := logPayloads(t, func(st *store.Store) error {
		if err := appendUnitCreate(st); err != nil {
			return err
		}
		_, err := st.AppendIngest("u", []string{"a", "a"}, nil, nil)
		return err
	})
	dir := t.TempDir()
	f, fts := followerServer(t, dir)
	defer shutdown(t, f, fts)
	if err := f.ApplyReplicated(1, payloads[0]); err != nil {
		t.Fatal(err)
	}
	e, _ := f.reg.Get("u")
	waitAppended := func(lsn uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for e.appendedLSN.Load() < lsn {
			if time.Now().After(deadline) {
				t.Fatalf("record %d never appended", lsn)
			}
			time.Sleep(time.Millisecond)
		}
		// The record joins the queue in the same walMu section.
		f.dur.walMu.Lock()
		f.dur.walMu.Unlock()
	}

	e.mu.Lock() // stalls the entry's worker
	replicated := make(chan error, 1)
	go func() { replicated <- f.ApplyReplicated(2, payloads[1]) }()
	waitAppended(2)
	if err := f.Promote(); err != nil {
		e.mu.Unlock()
		t.Fatal(err)
	}
	client := make(chan int, 1)
	go func() {
		resp, err := http.Post(fts.URL+"/v1/sketches/u/ingest?sync=1", "text/plain", strings.NewReader("b\n"))
		if err != nil {
			t.Error(err)
			client <- 0
			return
		}
		resp.Body.Close()
		client <- resp.StatusCode
	}()
	waitAppended(3)
	e.mu.Unlock()

	if err := <-replicated; err != nil {
		t.Fatalf("ApplyReplicated(2) = %v", err)
	}
	if code := <-client; code != http.StatusOK {
		t.Fatalf("client sync ingest: status %d", code)
	}
	if applied, last := e.appliedLSN.Load(), f.dur.st.LastLSN(); applied != last || last != 3 {
		t.Fatalf("appliedLSN %d, LastLSN %d; want both 3", applied, last)
	}
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	rb := res.Sketches["u"]
	if rb == nil || rb.Rows != 3 || rb.Unit.Estimate("a") != 2 || rb.Unit.Estimate("b") != 1 {
		t.Fatalf("recovered %+v, want the 3 acknowledged rows (a:2, b:1)", rb)
	}
}
