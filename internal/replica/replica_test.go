package replica

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	uss "repro"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/store"
)

// node is one in-process ussd: a durable server over dir behind an
// httptest listener.
type node struct {
	dir string
	srv *server.Server
	ts  *httptest.Server
}

// boot recovers dir and serves it. follower boots in RoleFollower,
// not ready.
func boot(t *testing.T, dir string, follower bool) *node {
	t.Helper()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{IngestWorkers: 2, QueueDepth: 8})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	if follower {
		s.SetRole(server.RoleFollower)
		s.SetReady(false)
	}
	return &node{dir: dir, srv: s, ts: httptest.NewServer(s.Handler())}
}

func (n *node) stop(t *testing.T) {
	t.Helper()
	n.ts.Close()
	if err := n.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// httpDo runs one request against a node and returns status and body.
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// mustIngest sync-ingests rows and fails on any non-200.
func mustIngest(t *testing.T, n *node, name, rows string) {
	t.Helper()
	code, body := httpDo(t, "POST", n.ts.URL+"/v1/sketches/"+name+"/ingest?sync=1", rows)
	if code != http.StatusOK {
		t.Fatalf("sync ingest: status %d: %s", code, body)
	}
}

// topkBody fetches a sketch's top-k response body — compared verbatim
// across nodes for the bit-identical-state assertions.
func topkBody(t *testing.T, n *node, name string, k int) string {
	t.Helper()
	code, body := httpDo(t, "GET", fmt.Sprintf("%s/v1/sketches/%s/topk?k=%d", n.ts.URL, name, k), "")
	if code != http.StatusOK {
		t.Fatalf("topk: status %d: %s", code, body)
	}
	return body
}

// waitCaughtUp polls until the follower reports ready with zero lag.
func waitCaughtUp(t *testing.T, n *node, primary *node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n.srv.Ready() && n.srv.WALNextLSN() >= primary.srv.WALNextLSN() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never caught up (next %d, primary next %d, ready %v)",
		n.srv.WALNextLSN(), primary.srv.WALNextLSN(), n.srv.Ready())
}

// followerOpts builds fast-cadence Options for tests.
func followerOpts(n *node, primary string) Options {
	return Options{
		Primary:        primary,
		Server:         n.srv,
		DataDir:        n.dir,
		Poll:           50 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}
}

// sameState requires every named sketch's exact state blob and counters
// on the follower to equal the primary's, byte for byte. It polls: the
// follower logs a record before its entry's worker applies it, so its
// log position can lead its state for a moment.
func sameState(t *testing.T, when string, f, p *node, names ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, name := range names {
		for {
			_, pst, pblob, err := p.srv.SketchState(name)
			if err != nil {
				t.Fatal(err)
			}
			_, fst, fblob, err := f.srv.SketchState(name)
			if err != nil {
				t.Fatalf("%s: follower: %v", when, err)
			}
			if fst == pst && bytes.Equal(fblob, pblob) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: follower's %q diverges: counters %+v vs primary %+v, state blobs equal %v",
					when, name, fst, pst, bytes.Equal(fblob, pblob))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// pushSnapshot pushes a seeded weighted agent's snapshot into name.
func pushSnapshot(t *testing.T, n *node, name string, seed int64, items ...string) {
	t.Helper()
	agent := uss.NewWeighted(16, uss.WithSeed(seed))
	for i, it := range items {
		agent.Update(it, float64(i+1))
	}
	blob, err := agent.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	code, body := httpDo(t, "POST", n.ts.URL+"/v1/sketches/"+name+"/snapshot", string(blob))
	if code != http.StatusOK {
		t.Fatalf("push: status %d: %s", code, body)
	}
}

// TestFollowerCatchUpAndTail boots a primary with history (checkpoint +
// log tail) in every sketch kind, weighted pushes included, attaches a
// fresh follower, and requires: bundle + stream catch-up, live tailing
// of new writes, byte-identical sketch state, and the follower's
// mutation endpoints refusing while read endpoints serve. Every sketch
// stays under capacity: a restored sketch draws fresh randomness, so
// only eviction-free states are byte-comparable after a bundle install.
func TestFollowerCatchUpAndTail(t *testing.T) {
	p := boot(t, t.TempDir(), false)
	defer p.stop(t)

	names := []string{"clicks", "w", "s", "r"}
	for _, cfg := range []string{
		`{"name":"clicks","kind":"unit","bins":64,"seed":7}`,
		`{"name":"w","kind":"weighted","bins":64,"seed":8}`,
		`{"name":"s","kind":"sharded","bins":64,"shards":4,"seed":9}`,
		`{"name":"r","kind":"rollup","bins":64,"window_length":10,"seed":10}`,
	} {
		if code, body := httpDo(t, "POST", p.ts.URL+"/v1/sketches", cfg); code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", code, body)
		}
	}
	var rows, weighted, timed strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "item-%d\n", i%20)
		fmt.Fprintf(&weighted, "item-%d\t%d\n", i%20, 1+i%3)
		fmt.Fprintf(&timed, "item-%d\t%d\n", i%20, i/10)
	}
	history := func() {
		mustIngest(t, p, "clicks", rows.String())
		mustIngest(t, p, "w", weighted.String())
		mustIngest(t, p, "s", rows.String())
		mustIngest(t, p, "r", timed.String())
	}
	history()
	pushSnapshot(t, p, "w", 11, "item-1", "pushed-a")

	// Checkpoint, then more traffic: catch-up must install the bundle
	// AND replay the tail past it.
	if err := p.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	history()
	pushSnapshot(t, p, "w", 12, "item-2", "pushed-b")

	fdir := t.TempDir()
	if err := PrepareDataDir(context.Background(), Options{Primary: p.ts.URL, DataDir: fdir}); err != nil {
		t.Fatal(err)
	}
	f := boot(t, fdir, true)
	defer f.stop(t)
	fol, err := Start(followerOpts(f, p.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()

	waitCaughtUp(t, f, p)
	sameState(t, "after catch-up", f, p, names...)
	if got, want := topkBody(t, f, "clicks", 20), topkBody(t, p, "clicks", 20); got != want {
		t.Fatalf("follower top-k diverges after catch-up:\n  follower: %s\n  primary:  %s", got, want)
	}

	// Live tail: new primary writes appear on the follower.
	mustIngest(t, p, "clicks", "tail-item\ntail-item\n")
	mustIngest(t, p, "w", "tail-item\t2.5\n")
	mustIngest(t, p, "s", "tail-item\n")
	mustIngest(t, p, "r", "tail-item\t45\n")
	pushSnapshot(t, p, "w", 13, "pushed-c")
	waitCaughtUp(t, f, p)
	sameState(t, "after tailing", f, p, names...)
	if got, want := topkBody(t, f, "clicks", 25), topkBody(t, p, "clicks", 25); got != want {
		t.Fatalf("follower top-k diverges after tailing:\n  follower: %s\n  primary:  %s", got, want)
	}

	// Followers reject mutations and serve reads.
	if code, _ := httpDo(t, "POST", f.ts.URL+"/v1/sketches/clicks/ingest", "x\n"); code != http.StatusServiceUnavailable {
		t.Fatalf("follower accepted an ingest: status %d", code)
	}
	if code, _ := httpDo(t, "POST", f.ts.URL+"/v1/sketches", `{"name":"x","kind":"unit","bins":8}`); code != http.StatusServiceUnavailable {
		t.Fatalf("follower accepted a create: status %d", code)
	}
	if code, _ := httpDo(t, "GET", f.ts.URL+"/readyz", ""); code != http.StatusOK {
		t.Fatalf("caught-up follower not ready: status %d", code)
	}
}

// TestFollowerBacksOffFailedApplies: a follower whose every append fails
// (its disk reads full, so the log is read-only) must back off instead
// of re-requesting the stream in a hot loop — the primary answers at once
// while records exist at the follower's position — and must catch up
// once the disk recovers.
func TestFollowerBacksOffFailedApplies(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	p := boot(t, t.TempDir(), false)
	defer p.stop(t)
	if code, body := httpDo(t, "POST", p.ts.URL+"/v1/sketches", `{"name":"clicks","kind":"unit","bins":64,"seed":7}`); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, body)
	}
	mustIngest(t, p, "clicks", "a\nb\na\n")
	var streamed atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/wal" {
			streamed.Add(1)
		}
		p.ts.Config.Handler.ServeHTTP(w, r)
	}))
	defer front.Close()

	fdir := t.TempDir()
	if err := PrepareDataDir(context.Background(), Options{Primary: front.URL, DataDir: fdir}); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable("disk.enospc"); err != nil {
		t.Fatal(err)
	}
	f := boot(t, fdir, true)
	defer f.stop(t)
	before := streamed.Load()
	fol, err := Start(followerOpts(f, front.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	time.Sleep(time.Second)
	if n := streamed.Load() - before; n >= 20 {
		t.Fatalf("follower sent %d stream requests in 1s while every apply failed", n)
	}
	if next := f.srv.WALNextLSN(); next != 1 {
		t.Fatalf("read-only follower logged records: next LSN %d", next)
	}

	faultinject.Reset()
	waitCaughtUp(t, f, p)
	sameState(t, "after the disk recovered", f, p, "clicks")
}

// TestPromoteAndRejoinMergesTail covers the failover round-trip: the
// follower loses the primary and auto-promotes; the old primary — which
// still holds acknowledged records the follower never saw — rejoins as
// a follower and reconciles by merging that tail, so row totals match a
// world where nothing was lost.
func TestPromoteAndRejoinMergesTail(t *testing.T) {
	pdir := t.TempDir()
	p := boot(t, pdir, false)

	code, body := httpDo(t, "POST", p.ts.URL+"/v1/sketches", `{"name":"clicks","kind":"unit","bins":64,"seed":7}`)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, body)
	}
	mustIngest(t, p, "clicks", strings.Repeat("shared\n", 50))

	fdir := t.TempDir()
	if err := PrepareDataDir(context.Background(), Options{Primary: p.ts.URL, DataDir: fdir}); err != nil {
		t.Fatal(err)
	}
	f := boot(t, fdir, true)
	defer f.stop(t)
	opts := followerOpts(f, p.ts.URL)
	opts.AutoPromote = true
	opts.HeartbeatTimeout = 300 * time.Millisecond
	fol, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, p)

	// Freeze replication, then keep writing to the primary: these rows
	// are acknowledged but never replicated — the divergent tail.
	fol.Stop()
	mustIngest(t, p, "clicks", strings.Repeat("orphan\n", 30))

	// Primary dies; follower promotes (restart the loop so auto-promote
	// observes the death).
	p.stop(t)
	fol, err = Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fol.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower never promoted")
	}
	if f.srv.Role() != server.RolePrimary {
		t.Fatalf("follower role after primary death: %s (err %v)", f.srv.Role(), fol.Err())
	}
	if f.srv.Epoch() != 1 {
		t.Fatalf("promoted epoch = %d, want 1", f.srv.Epoch())
	}

	// The new primary takes writes of its own before the old one returns.
	mustIngest(t, f, "clicks", strings.Repeat("fresh\n", 20))

	// Old primary rejoins as a follower: PrepareDataDir must merge the
	// orphaned tail into the new primary, then resync.
	if err := PrepareDataDir(context.Background(), Options{Primary: f.ts.URL, DataDir: pdir, Server: f.srv}); err != nil {
		t.Fatal(err)
	}
	p2 := boot(t, pdir, true)
	defer p2.stop(t)
	fol2, err := Start(followerOpts(p2, f.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer fol2.Stop()
	waitCaughtUp(t, p2, f)

	// Exact reconciliation: bins ≥ distinct items, so counts are exact.
	want := map[string]float64{"shared": 50, "orphan": 30, "fresh": 20}
	got := topkBody(t, f, "clicks", 10)
	for item, n := range want {
		probe := fmt.Sprintf(`{"item":%q,"count":%g}`, item, n)
		if !strings.Contains(got, probe) {
			t.Fatalf("new primary top-k missing %s after tail merge: %s", probe, got)
		}
	}
	if rejoined := topkBody(t, p2, "clicks", 10); rejoined != got {
		t.Fatalf("rejoined follower diverges:\n  rejoined: %s\n  primary:  %s", rejoined, got)
	}
	if f.srv.Epoch() != p2.srv.Epoch() {
		t.Fatalf("epochs diverge: primary %d, rejoined %d", f.srv.Epoch(), p2.srv.Epoch())
	}
}

// TestPrepareDataDirRefusesNewerLocalEpoch pins the guard against
// following a stale primary: a node whose timeline epoch is ahead of
// the target's must refuse rather than silently wipe itself.
func TestPrepareDataDirRefusesNewerLocalEpoch(t *testing.T) {
	p := boot(t, t.TempDir(), false)
	defer p.stop(t)

	dir := t.TempDir()
	if err := store.SaveTimeline(dir, store.Timeline{Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	err := PrepareDataDir(context.Background(), Options{Primary: p.ts.URL, DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("PrepareDataDir = %v, want epoch refusal", err)
	}
}
