package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	uss "repro"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// postText posts a newline-text ingest body and returns the response.
func postText(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestIngestTokenBucket429 drives a sketch past its configured rate:
// the first burst-sized batch is admitted, the immediate follow-up is
// shed with 429 and a positive Retry-After hint.
func TestIngestTokenBucket429(t *testing.T) {
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, IngestRateRows: 5, IngestBurstRows: 10})
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})

	body := strings.Repeat("a\n", 10)
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("burst-sized batch: status %d, want 200", resp.StatusCode)
	}
	resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 carried Retry-After %q, want a positive hint", ra)
	}
	if got := s.met.shed429.Load(); got != 1 {
		t.Fatalf("shed429 = %d, want 1", got)
	}
	// The refusal did not consume tokens: after the deficit refills the
	// same batch is admitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", body); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestInflightBudgetSheds503 bounds in-flight bytes so far below the
// request body that every mutation is shed with 503 + Retry-After,
// while queries keep answering.
func TestInflightBudgetSheds503(t *testing.T) {
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, MaxInflightBytes: 8})
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})

	resp := postText(t, ts.URL+"/v1/sketches/x/ingest", strings.Repeat("a\n", 50))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget body: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed lost its Retry-After hint")
	}
	if got := s.met.shed503.Load(); got != 1 {
		t.Fatalf("shed503 = %d, want 1", got)
	}
	if !s.adm.shedding() {
		t.Fatal("shedding() = false right after a shed")
	}
	if got := s.adm.inflight.Load(); got != 0 {
		t.Fatalf("inflight after shed = %d, want 0 (charge must roll back)", got)
	}
	// A body under the budget still flows.
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "a\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", resp.StatusCode)
	}
	// Reads are never admission-gated.
	if items := topk(t, ts, "x", 5); len(items) == 0 {
		t.Fatal("topk empty while shedding mutations")
	}
}

// TestReadOnlyMutationsCarryRetryAfter arms disk.enospc on a durable
// server: every mutation class answers 503 with Retry-After while reads
// stay 200, and the store heals once space returns.
func TestReadOnlyMutationsCarryRetryAfter(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever, DiskCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "a\nb\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: status %d", resp.StatusCode)
	}

	if err := faultinject.Enable("disk.enospc"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		do   func() *http.Response
	}{
		{"ingest", func() *http.Response {
			return postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "c\n")
		}},
		{"create", func() *http.Response {
			return doJSON(t, "POST", ts.URL+"/v1/sketches", SketchConfig{Name: "y", Kind: KindUnit, Bins: 8}, nil)
		}},
		{"delete", func() *http.Response {
			return doJSON(t, "DELETE", ts.URL+"/v1/sketches/x", nil, nil)
		}},
	} {
		resp := tc.do()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while read-only: status %d, want 503", tc.what, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s while read-only lost its Retry-After hint", tc.what)
		}
	}
	// Reads of the surviving state stay exact.
	if items := topk(t, ts, "x", 5); len(items) != 2 {
		t.Fatalf("topk while read-only = %d items, want 2", len(items))
	}
	var ready map[string]any
	doJSON(t, "GET", ts.URL+"/readyz", nil, &ready)
	if ready["pressure"] != "read_only" || ready["read_only"] != true {
		t.Fatalf("readyz under enospc = %+v, want pressure=read_only", ready)
	}

	faultinject.Reset()
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "c\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after space returned: status %d", resp.StatusCode)
	}
}

// TestDemoteRevive pushes a durable server over its memory watermark,
// demotes an idle sketch by hand (the pressure loop's path), and checks
// that list/info answers from the cold stats, checkpoints stay correct,
// and the next read revives the exact state.
func TestDemoteRevive(t *testing.T) {
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, MemorySoftBytes: 1, ColdAfter: time.Nanosecond})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)

	create(t, ts, SketchConfig{Name: "x", Kind: KindWeighted, Bins: 32, Seed: 7})
	var rows strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&rows, "item-%d\t%d\n", i%11, 1+i%3)
	}
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", rows.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	before := topk(t, ts, "x", 11)
	infoBefore := doInfo(t, ts, "x")

	time.Sleep(time.Millisecond) // outlive ColdAfter
	s.maybeDemote()
	e, _ := s.reg.Get("x")
	if e.sk.Load() != nil {
		t.Fatal("maybeDemote left the idle sketch live over the watermark")
	}
	if _, err := os.Stat(e.coldPath); err != nil {
		t.Fatalf("cold blob missing: %v", err)
	}
	if got := s.met.demotions.Load(); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}

	// info answers from the cold stats without reviving.
	infoCold := doInfo(t, ts, "x")
	if e.sk.Load() != nil {
		t.Fatal("info revived the sketch")
	}
	if infoCold.Size != infoBefore.Size || infoCold.Total != infoBefore.Total {
		t.Fatalf("cold info = (size %d, total %g), want (%d, %g)",
			infoCold.Size, infoCold.Total, infoBefore.Size, infoBefore.Total)
	}
	// Checkpoints read the cold blob directly.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with a cold sketch: %v", err)
	}

	// The next data read revives the exact state.
	after := topk(t, ts, "x", 11)
	if e.sk.Load() == nil {
		t.Fatal("topk did not revive the sketch")
	}
	if got := s.met.revivals.Load(); got != 1 {
		t.Fatalf("revivals = %d, want 1", got)
	}
	if len(after) != len(before) {
		t.Fatalf("revived topk has %d items, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("revived topk[%d] = %+v, want %+v", i, after[i], before[i])
		}
	}
	if _, err := os.Stat(e.coldPath); !os.IsNotExist(err) {
		t.Fatalf("cold blob not removed after revival: %v", err)
	}

	// Writes keep landing on the revived sketch.
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "item-0\t1\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after revival: status %d", resp.StatusCode)
	}
}

// TestDemoteSurvivesRestart demotes a sketch, shuts the server down
// cleanly (the drain checkpoint must read the cold blob) and recovers:
// the sketch must come back with its exact pre-demotion answers.
func TestDemoteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, MemorySoftBytes: 1, ColdAfter: time.Nanosecond})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 32, Seed: 9})
	var rows strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "item-%d\n", i%13)
	}
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", rows.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	before := topk(t, ts, "x", 13)
	time.Sleep(time.Millisecond)
	s.maybeDemote()
	if e, _ := s.reg.Get("x"); e.sk.Load() != nil {
		t.Fatal("sketch not demoted")
	}
	shutdown(t, s, ts)

	s2, ts2 := durableServer(t, dir)
	defer shutdown(t, s2, ts2)
	after := topk(t, ts2, "x", 13)
	if len(after) != len(before) {
		t.Fatalf("recovered topk has %d items, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("recovered topk[%d] = %+v, want %+v", i, after[i], before[i])
		}
	}
}

// doInfo fetches one sketch's info DTO.
func doInfo(t *testing.T, ts *httptest.Server, name string) sketchInfo {
	t.Helper()
	var out sketchInfo
	doJSON(t, "GET", ts.URL+"/v1/sketches/"+name, nil, &out)
	return out
}

// TestPressureLoopEmergencyCheckpoint verifies the pressure loop
// answers a watermark trip with a checkpoint.
func TestPressureLoopEmergencyCheckpoint(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever, DiskCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})

	if err := faultinject.Enable("disk.enospc"); err != nil {
		t.Fatal(err)
	}
	postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "a\n") // trips the watermark
	deadline := time.Now().Add(5 * time.Second)
	for s.met.checkpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pressure loop never took the emergency checkpoint")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReadRacingDemotion holds each read in the gap between its sketch's
// liveness check and its use of the sketch (server.stall-live), demotes
// the sketch inside that gap, and requires the read to answer from the
// state it resolved: PartialBins, the gather path's owner read, for every
// flat kind, and /topk over HTTP. A demotion used to drop the sketch out
// from under such a read, which then dereferenced nil.
func TestReadRacingDemotion(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	s, ts := durableServer(t, t.TempDir())
	defer shutdown(t, s, ts)
	var rows strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "k=%d\n", i%23)
	}
	for _, cfg := range []SketchConfig{
		{Name: "u", Kind: KindUnit, Bins: 16, Seed: 1},
		{Name: "w", Kind: KindWeighted, Bins: 16, Seed: 2},
		{Name: "s", Kind: KindSharded, Bins: 8, Shards: 4, Seed: 3},
	} {
		create(t, ts, cfg)
		if resp := postText(t, ts.URL+"/v1/sketches/"+cfg.Name+"/ingest?sync=1", rows.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", cfg.Name, resp.StatusCode)
		}
	}

	// raced runs read in a goroutine stalled past the liveness check and
	// demotes name meanwhile — reviving it again too when revive is set
	// — failing the test if the read panicked.
	raced := func(name string, revive bool, read func()) {
		t.Helper()
		if err := faultinject.Enable("server.stall-live:1:1"); err != nil {
			t.Fatal(err)
		}
		defer faultinject.Reset()
		panicked := make(chan any, 1)
		go func() {
			defer func() { panicked <- recover() }()
			read()
		}()
		for deadline := time.Now().Add(5 * time.Second); faultinject.Hits("server.stall-live") == 0; {
			if time.Now().After(deadline) {
				t.Fatal("the read never reached the stall point")
			}
			time.Sleep(time.Millisecond)
		}
		e, _ := s.reg.Get(name)
		if !s.demote(e) {
			t.Fatalf("%s: demote refused", name)
		}
		if revive {
			if _, err := s.ensureLive(e); err != nil {
				t.Fatal(err)
			}
		}
		if p := <-panicked; p != nil {
			t.Fatalf("%s: read racing a demotion panicked: %v", name, p)
		}
	}

	for _, name := range []string{"u", "w", "s"} {
		for _, revive := range []bool{false, true} {
			want, _, err := s.PartialBins(name, "")
			if err != nil {
				t.Fatal(err)
			}
			var got []uss.Bin
			var tok string
			raced(name, revive, func() { got, tok, err = s.PartialBins(name, "") })
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: raced PartialBins = %v, %v; want %v", name, got, err, want)
			}
			// The token names the raced read's own sketch, never the live
			// one's generation: a later read must get the bins again.
			e, _ := s.reg.Get(name)
			e.mu.Lock()
			live := partialToken(e.gen) + "-"
			e.mu.Unlock()
			again, tok2, err := s.PartialBins(name, tok)
			if err != nil || strings.HasPrefix(tok, live) || tok2 == tok || !slices.Equal(again, want) {
				t.Fatalf("%s: after a raced token %q, PartialBins = %v (token %q), %v; want %v", name, tok, again, tok2, err, want)
			}
		}
	}

	// call sends one request; the raced ones run off the test goroutine.
	// Each takes a fresh connection: the transport silently retries an
	// idempotent request whose reused connection a handler panic broke.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	call := func(method, path, body string) (code int, out []byte, err error) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err = io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	_, want, err := call("GET", "/v1/sketches/s/topk?k=5", "")
	if err != nil {
		t.Fatal(err)
	}
	var code int
	var got []byte
	raced("s", false, func() { code, got, err = call("GET", "/v1/sketches/s/topk?k=5", "") })
	if err != nil || code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("raced /topk = %d %s, %v; want 200 %s", code, got, err, want)
	}

	// A query that raced a demotion and a revive answers from its own
	// sketch and leaves the query cache serving the live one: rows
	// ingested afterwards show in the next answer.
	_, want, err = call("POST", "/v1/sketches/u/query", "{}")
	if err != nil {
		t.Fatal(err)
	}
	raced("u", true, func() { code, got, err = call("POST", "/v1/sketches/u/query", "{}") })
	if err != nil || code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("raced /query = %d %s, %v; want 200 %s", code, got, err, want)
	}
	if resp := postText(t, ts.URL+"/v1/sketches/u/ingest?sync=1", strings.Repeat("k=late\n", 10)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after the race: status %d", resp.StatusCode)
	}
	if _, got, _ = call("POST", "/v1/sketches/u/query", "{}"); !bytes.Contains(got, []byte(`"value":310,`)) {
		t.Fatalf("query after 10 more rows = %s, want a total of 310", got)
	}
}
