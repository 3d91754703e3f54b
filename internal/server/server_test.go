package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	uss "repro"
)

// testServer mounts a fresh Server under httptest and tears both down.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{IngestWorkers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// doJSON issues a request with a JSON body and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
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
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp
}

func create(t *testing.T, ts *httptest.Server, cfg SketchConfig) {
	t.Helper()
	resp := doJSON(t, "POST", ts.URL+"/v1/sketches", cfg, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %+v: status %d", cfg, resp.StatusCode)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []SketchConfig{
		{Name: "", Kind: KindUnit, Bins: 8},                                 // empty name
		{Name: "x", Kind: KindUnit, Bins: 0},                                // no bins
		{Name: "x", Kind: "bogus", Bins: 8},                                 // unknown kind
		{Name: "x", Kind: KindRollup, Bins: 8},                              // rollup sans window
		{Name: "x", Kind: KindRollup, Bins: 8, WindowLength: 5, Retain: -1}, // negative retain
	}
	for _, cfg := range cases {
		if _, err := NewRegistry().Create(cfg); err == nil {
			t.Errorf("Create(%+v) succeeded, want error", cfg)
		}
	}

	reg := NewRegistry()
	if _, err := reg.Create(SketchConfig{Name: "a", Kind: KindUnit, Bins: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(SketchConfig{Name: "a", Kind: KindUnit, Bins: 8}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Kind defaults to sharded, shards default to 8.
	e, err := reg.Create(SketchConfig{Name: "b", Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Kind != KindSharded || e.cfg.Shards != 8 {
		t.Fatalf("defaults: got kind %q shards %d", e.cfg.Kind, e.cfg.Shards)
	}
	if e.capacity() != 32 {
		t.Fatalf("sharded capacity = %d, want 32", e.capacity())
	}
}

func TestCreateIngestQueryLifecycle(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "clicks", Kind: KindSharded, Bins: 64, Shards: 4, Seed: 7})

	// Sync text ingest: labels in the dim=value encoding.
	var rows strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "country=%s|device=d%d\n", []string{"us", "de", "jp"}[i%3], i%2)
	}
	resp, err := http.Post(ts.URL+"/v1/sketches/clicks/ingest?sync=1", "text/plain",
		strings.NewReader(rows.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync ingest status %d", resp.StatusCode)
	}

	var info sketchInfo
	doJSON(t, "GET", ts.URL+"/v1/sketches/clicks", nil, &info)
	if info.Rows != 300 || info.Total != 300 {
		t.Fatalf("info rows=%d total=%v, want 300", info.Rows, info.Total)
	}

	// Template query, twice: the second run rides the prepared cache.
	q := map[string]any{
		"where":    []map[string]any{{"dim": "country", "in": []string{"us", "de"}}},
		"group_by": []string{"country"},
	}
	for pass := 0; pass < 2; pass++ {
		var qr struct {
			Groups []groupDTO `json:"groups"`
		}
		doJSON(t, "POST", ts.URL+"/v1/sketches/clicks/query", q, &qr)
		if len(qr.Groups) != 2 {
			t.Fatalf("pass %d: %d groups, want 2", pass, len(qr.Groups))
		}
		var sum float64
		for _, g := range qr.Groups {
			if g.Key["country"] != "us" && g.Key["country"] != "de" {
				t.Fatalf("pass %d: unexpected group %q", pass, g.KeyString)
			}
			sum += g.Value
		}
		if sum != 200 { // every row is tracked at 300 rows vs 256 bins... sums stay exact here
			t.Fatalf("pass %d: filtered sum %v, want 200", pass, sum)
		}
	}

	// Top-k off the cached snapshot.
	var tk struct {
		Items []binDTO `json:"items"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sketches/clicks/topk?k=3", nil, &tk)
	if len(tk.Items) != 3 {
		t.Fatalf("topk returned %d items", len(tk.Items))
	}

	// Subset sum with a prefix predicate.
	var est estimateDTO
	doJSON(t, "GET", ts.URL+"/v1/sketches/clicks/sum?prefix=country=jp", nil, &est)
	if est.Value != 100 {
		t.Fatalf("prefix sum %v, want 100", est.Value)
	}

	// Delete, then 404.
	resp = doJSON(t, "DELETE", ts.URL+"/v1/sketches/clicks", nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp = doJSON(t, "GET", ts.URL+"/v1/sketches/clicks", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-delete info status %d", resp.StatusCode)
	}
}

// TestListSketches covers GET /v1/sketches: every tenant enumerated
// with its name, kind and row count, sorted by name, without any
// out-of-band bookkeeping.
func TestListSketches(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "zeta", Kind: KindUnit, Bins: 16, Seed: 1})
	create(t, ts, SketchConfig{Name: "alpha", Kind: KindSharded, Bins: 32, Shards: 2, Seed: 2})
	create(t, ts, SketchConfig{Name: "mid", Kind: KindRollup, Bins: 16, WindowLength: 10, Seed: 3})

	resp, err := http.Post(ts.URL+"/v1/sketches/zeta/ingest?sync=1", "text/plain", strings.NewReader("a\nb\nc\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var listed struct {
		Sketches []sketchInfo `json:"sketches"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sketches", nil, &listed)
	if len(listed.Sketches) != 3 {
		t.Fatalf("listed %d sketches, want 3", len(listed.Sketches))
	}
	wantOrder := []string{"alpha", "mid", "zeta"}
	wantKind := map[string]Kind{"alpha": KindSharded, "mid": KindRollup, "zeta": KindUnit}
	for i, info := range listed.Sketches {
		if info.Name != wantOrder[i] {
			t.Errorf("list[%d] = %q, want %q (sorted)", i, info.Name, wantOrder[i])
		}
		if info.Kind != wantKind[info.Name] {
			t.Errorf("list %q kind = %q, want %q", info.Name, info.Kind, wantKind[info.Name])
		}
	}
	if listed.Sketches[2].Rows != 3 {
		t.Errorf("zeta rows = %d, want 3", listed.Sketches[2].Rows)
	}
	if listed.Sketches[0].Capacity != 64 {
		t.Errorf("alpha capacity = %d, want 64", listed.Sketches[0].Capacity)
	}
}

// TestBatchPoolHighWaterMark pins the pooled-buffer retention bound:
// batches whose buffers outgrew the high-water marks are dropped instead
// of pooled, so one giant snapshot cannot pin memory forever.
func TestBatchPoolHighWaterMark(t *testing.T) {
	small := getBatch()
	small.buf = append(small.buf, make([]byte, 4096)...)
	small.items = append(small.items, "x")
	if !small.poolable() {
		t.Fatal("small batch rejected from the pool")
	}

	big := getBatch()
	big.buf = append(big.buf, make([]byte, maxPooledBufBytes+1)...)
	if big.poolable() {
		t.Fatal("oversized body buffer accepted into the pool")
	}

	wide := getBatch()
	wide.items = append(wide.items, make([]string, maxPooledRows+1)...)
	if wide.poolable() {
		t.Fatal("oversized item column accepted into the pool")
	}
	putBatch(small)
	putBatch(big)
	putBatch(wide)
}

func TestAsyncIngestDrainsOnShutdown(t *testing.T) {
	s := New(Config{IngestWorkers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	create(t, ts, SketchConfig{Name: "a", Kind: KindUnit, Bins: 32, Seed: 1})

	total := 0
	for batch := 0; batch < 10; batch++ {
		var rows strings.Builder
		for i := 0; i < 50; i++ {
			fmt.Fprintf(&rows, "item-%d\n", i)
		}
		resp, err := http.Post(ts.URL+"/v1/sketches/a/ingest", "text/plain",
			strings.NewReader(rows.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("async ingest status %d", resp.StatusCode)
		}
		total += 50
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every 202-acknowledged row must be applied after Shutdown returns.
	e, ok := s.Registry().Get("a")
	if !ok {
		t.Fatal("entry gone")
	}
	if got := e.rows.Load(); got != int64(total) {
		t.Fatalf("rows applied = %d, want %d", got, total)
	}
}

func TestWeightedIngestAndPushPull(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "acc", Kind: KindWeighted, Bins: 256, Seed: 3})

	// Weighted text rows: item TAB weight.
	body := "alpha\t2.5\nbeta\t4\ngamma\n"
	resp, err := http.Post(ts.URL+"/v1/sketches/acc/ingest?sync=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var info sketchInfo
	doJSON(t, "GET", ts.URL+"/v1/sketches/acc", nil, &info)
	if info.Total != 7.5 {
		t.Fatalf("weighted total %v, want 7.5", info.Total)
	}

	// Push an agent snapshot; the server merges it in.
	agent := uss.New(64, uss.WithSeed(9))
	for i := 0; i < 500; i++ {
		agent.Update(fmt.Sprintf("agent-item-%d", i%20))
	}
	blob, err := agent.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/sketches/acc/snapshot", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var pushed struct {
		MergedBins int     `json:"merged_bins"`
		Total      float64 `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pushed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d", resp.StatusCode)
	}
	if pushed.Total != 507.5 {
		t.Fatalf("post-push total %v, want 507.5", pushed.Total)
	}

	// Pull round-trips as a wire-v2 snapshot that restores client-side.
	resp, err = http.Get(ts.URL + "/v1/sketches/acc/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	pulled, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sinfo, err := uss.InspectSnapshot(pulled)
	if err != nil {
		t.Fatal(err)
	}
	if sinfo.Version != 2 || !sinfo.Weighted {
		t.Fatalf("pulled snapshot info %+v, want v2 weighted", sinfo)
	}
	var back uss.WeightedSketch
	if err := back.UnmarshalBinary(pulled); err != nil {
		t.Fatal(err)
	}
	if back.Total() != 507.5 {
		t.Fatalf("restored total %v, want 507.5", back.Total())
	}
	if got := back.Estimate("beta"); got != 4 {
		t.Fatalf("restored beta estimate %v, want 4", got)
	}

	// Push into a non-weighted sketch is rejected.
	create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 8})
	resp, err = http.Post(ts.URL+"/v1/sketches/u/snapshot", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("push into unit sketch: status %d, want 400", resp.StatusCode)
	}
}

func TestRollupRangeEndpoints(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "daily", Kind: KindRollup, Bins: 64, WindowLength: 10, Retain: 5, Seed: 11})

	// Three windows of rows: item TAB timestamp.
	var rows strings.Builder
	for day := 0; day < 3; day++ {
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&rows, "day%d-item%d\t%d\n", day, i%4, day*10+i%10)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/sketches/daily/ingest?sync=1", "text/plain", strings.NewReader(rows.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var total struct {
		Total float64 `json:"total"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sketches/daily/range/total?from=0&to=29", nil, &total)
	if total.Total != 120 {
		t.Fatalf("range total %v, want 120", total.Total)
	}

	var est estimateDTO
	doJSON(t, "GET", ts.URL+"/v1/sketches/daily/range/sum?from=10&to=19&prefix=day1-", nil, &est)
	if est.Value != 40 {
		t.Fatalf("day1 range sum %v, want 40", est.Value)
	}

	var tk struct {
		Items []binDTO `json:"items"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sketches/daily/range/topk?from=0&to=29&k=5", nil, &tk)
	if len(tk.Items) != 5 {
		t.Fatalf("range topk returned %d items", len(tk.Items))
	}

	// Uncovered range is a 404.
	resp = doJSON(t, "GET", ts.URL+"/v1/sketches/daily/range/sum?from=500&to=600&prefix=x", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uncovered range status %d, want 404", resp.StatusCode)
	}

	// Non-range endpoints reject rollups.
	resp = doJSON(t, "GET", ts.URL+"/v1/sketches/daily/topk", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rollup topk status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "m", Kind: KindUnit, Bins: 16, Seed: 2})
	resp, err := http.Post(ts.URL+"/v1/sketches/m/ingest?sync=1", "text/plain", strings.NewReader("a\nb\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var hz struct {
		Status string `json:"status"`
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz status %q", hz.Status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"ussd_rows_ingested_total 2",
		`ussd_sketch_rows{name="m",kind="unit"} 2`,
		"ussd_sketches 1",
		"ussd_http_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestIngestErrors(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "r", Kind: KindRollup, Bins: 16, WindowLength: 10})
	create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 16})

	post := func(name, ct, body string) int {
		resp, err := http.Post(ts.URL+"/v1/sketches/"+name+"/ingest?sync=1", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("r", "text/plain", "no-timestamp\n"); code != http.StatusBadRequest {
		t.Errorf("rollup row without timestamp: status %d", code)
	}
	if code := post("w", "text/plain", "item\tnot-a-number\n"); code != http.StatusBadRequest {
		t.Errorf("bad weight: status %d", code)
	}
	if code := post("w", "application/json", `{"items":["a"],"rows":[{"item":"b","weight":-1}]}`); code != http.StatusBadRequest {
		t.Errorf("negative JSON weight: status %d", code)
	}
	if code := post("r", "application/json", `{"items":["a"]}`); code != http.StatusBadRequest {
		t.Errorf("rollup bare items: status %d", code)
	}
	// JSON rows path applies cleanly.
	if code := post("w", "application/json", `{"rows":[{"item":"a","weight":2},{"item":"b"}]}`); code != http.StatusOK {
		t.Errorf("JSON weighted ingest: status %d", code)
	}
	var info sketchInfo
	doJSON(t, "GET", ts.URL+"/v1/sketches/w", nil, &info)
	if info.Total != 3 {
		t.Errorf("weighted total after JSON ingest = %v, want 3", info.Total)
	}
}

// TestWeightedJSONIngestMixedItemsAndRows pins the weight-column
// alignment: bare items (implicit weight 1) must not consume the weights
// of the rows that follow them in the same body.
func TestWeightedJSONIngestMixedItemsAndRows(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 16, Seed: 4})
	resp, err := http.Post(ts.URL+"/v1/sketches/w/ingest?sync=1", "application/json",
		strings.NewReader(`{"items":["a","b"],"rows":[{"item":"c","weight":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed ingest status %d", resp.StatusCode)
	}
	for item, want := range map[string]float64{"a": 1, "b": 1, "c": 5} {
		var got struct {
			Estimate float64 `json:"estimate"`
		}
		doJSON(t, "GET", ts.URL+"/v1/sketches/w/estimate?item="+item, nil, &got)
		if got.Estimate != want {
			t.Errorf("estimate %q = %v, want %v", item, got.Estimate, want)
		}
	}
}

// TestQueryCacheKeyDistinguishesSpecs pins the prepared-query cache key:
// specs that collide under a naive fmt %v rendering (In:["us","de"] vs
// In:["us de"]) must compile and serve distinct queries.
func TestQueryCacheKeyDistinguishesSpecs(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "q", Kind: KindUnit, Bins: 32, Seed: 6})
	resp, err := http.Post(ts.URL+"/v1/sketches/q/ingest?sync=1", "text/plain",
		strings.NewReader("country=us|x=1\ncountry=de|x=1\ncountry=us de|x=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	run := func(body string) float64 {
		var qr struct {
			Groups []groupDTO `json:"groups"`
		}
		doJSON(t, "POST", ts.URL+"/v1/sketches/q/query", json.RawMessage(body), &qr)
		var sum float64
		for _, g := range qr.Groups {
			sum += g.Value
		}
		return sum
	}
	two := `{"where":[{"dim":"country","in":["us","de"]}]}`
	one := `{"where":[{"dim":"country","in":["us de"]}]}`
	if got := run(two); got != 2 {
		t.Errorf("in:[us,de] sum = %v, want 2", got)
	}
	if got := run(one); got != 1 {
		t.Errorf("in:[\"us de\"] sum = %v, want 1 (cache key collision?)", got)
	}
	// And again in the opposite order against warm caches.
	if got := run(two); got != 2 {
		t.Errorf("repeat in:[us,de] sum = %v, want 2", got)
	}
}

// TestSumFormsMatchScan: /sum answers prefixes and item lists on unit and
// sharded sketches from the Stream-Summary's head words and index, and
// everything else with the predicate scan. Every form, on every
// point-read kind, must return exactly the scan's estimate — a repeated
// item counted once — after enough rows to evict.
func TestSumFormsMatchScan(t *testing.T) {
	s, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 8, Seed: 1})
	create(t, ts, SketchConfig{Name: "sh", Kind: KindSharded, Bins: 4, Shards: 3, Seed: 2})
	create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 8, Seed: 3})
	var body strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&body, "country=%s|ad=%d\n", []string{"us", "de", "usa"}[i%3], i*i%17)
	}
	for _, name := range []string{"u", "sh", "w"} {
		resp, err := http.Post(ts.URL+"/v1/sketches/"+name+"/ingest?sync=1", "text/plain", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, name := range []string{"u", "sh", "w"} {
		e, ok := s.reg.Get(name)
		if !ok {
			t.Fatalf("sketch %q not registered", name)
		}
		var top struct {
			Items []binDTO `json:"items"`
		}
		doJSON(t, "GET", ts.URL+"/v1/sketches/"+name+"/topk?k=1", nil, &top)
		heavy := top.Items[0].Item
		forms := []struct {
			query string
			pred  func(string) bool
		}{
			{"prefix=country=us", func(l string) bool { return strings.HasPrefix(l, "country=us") }},
			{"prefix=country=us%7C", func(l string) bool { return strings.HasPrefix(l, "country=us|") }},
			{"prefix=c", func(l string) bool { return strings.HasPrefix(l, "c") }},
			{"suffix=" + url.QueryEscape(heavy[len(heavy)-4:]), func(l string) bool { return strings.HasSuffix(l, heavy[len(heavy)-4:]) }},
			{"items=" + url.QueryEscape(heavy) + ",absent," + url.QueryEscape(heavy), func(l string) bool { return l == heavy || l == "absent" }},
		}
		for _, f := range forms {
			var want uss.Estimate
			e.mu.Lock()
			switch e.cfg.Kind {
			case KindUnit:
				want = e.sk.Load().Unit.SubsetSum(f.pred)
			case KindSharded:
				want = e.sk.Load().Sharded.SubsetSum(f.pred)
			default:
				want = e.sk.Load().Weighted.SubsetSum(f.pred)
			}
			e.mu.Unlock()
			if want.SampleBins == 0 {
				t.Fatalf("%s ?%s: scan matched no bins; the rows no longer exercise the form", name, f.query)
			}
			var got estimateDTO
			doJSON(t, "GET", ts.URL+"/v1/sketches/"+name+"/sum?"+f.query, nil, &got)
			if got != toEstimateDTO(want) {
				t.Errorf("%s ?%s = %+v, scan %+v", name, f.query, got, toEstimateDTO(want))
			}
		}
	}
}

// TestInMemorySyncIngestOrdersAfterQueued pins the one write route on an
// in-memory server: a ?sync=1 200 is answered by the entry's worker, so
// every batch acknowledged 202 before it on that sketch is applied by
// then; and once Shutdown closed the queues, ingests and pushes answer
// 503 instead of applying beside the worker.
func TestInMemorySyncIngestOrdersAfterQueued(t *testing.T) {
	s := New(Config{IngestWorkers: 2, QueueDepth: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 64, Seed: 1})
	create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 64, Seed: 2})
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	var rows strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&rows, "item-%d\n", i%300)
	}
	const batches = 40
	// Hold the entry lock so the queued batches back up behind it; a
	// sync batch applied anywhere but behind them would then jump ahead.
	e, _ := s.Registry().Get("u")
	e.mu.Lock()
	for i := 0; i < batches; i++ {
		if code := post("/v1/sketches/u/ingest", rows.String()); code != http.StatusAccepted {
			e.mu.Unlock()
			t.Fatalf("async ingest %d: status %d", i, code)
		}
	}
	syncCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sketches/u/ingest?sync=1", "text/plain", strings.NewReader("last\n"))
		if err != nil {
			t.Error(err)
			syncCode <- 0
			return
		}
		resp.Body.Close()
		syncCode <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond) // let the sync request reach the server
	e.mu.Unlock()
	if code := <-syncCode; code != http.StatusOK {
		t.Fatalf("sync ingest: status %d", code)
	}
	if got, want := e.rows.Load(), int64(batches*2000+1); got != want {
		t.Fatalf("after the sync 200: %d rows applied, want %d (every earlier 202 first)", got, want)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/sketches/u/ingest", "/v1/sketches/u/ingest?sync=1"} {
		if code := post(path, "late\n"); code != http.StatusServiceUnavailable {
			t.Fatalf("%s after shutdown: status %d, want 503", path, code)
		}
	}
	blob, err := uss.NewWeighted(8).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/sketches/w/snapshot", string(blob)); code != http.StatusServiceUnavailable {
		t.Fatalf("push after shutdown: status %d, want 503", code)
	}
	if got := e.rows.Load(); got != int64(batches*2000+1) {
		t.Fatalf("a refused ingest applied: %d rows", got)
	}
}
