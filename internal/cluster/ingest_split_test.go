package cluster

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	uss "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// splitKinds are the sketch kinds the text split handles, indexed by
// the fuzz target's kind byte.
var splitKinds = []server.Kind{server.KindUnit, server.KindSharded, server.KindWeighted, server.KindRollup}

// Text bodies covering the row-cutting edge cases: CRLF, a CR left
// inside the item once one is trimmed, a last row without a newline,
// blank and CR-only lines, inner tabs, spaces and non-ASCII bytes, and
// the weight and timestamp forms.
var (
	edgeUnit     = "a\r\nb\r\na\r\r\n\n\r\n\r\r\n  spaced item \nc"
	edgeSharded  = "a\tb\n\n  lead\ntrail  \r\nin ner\ncafé\r\n日本語\nemoji😀\n\r\n\x7f\x01\ttail"
	edgeWeighted = "x\t0.1\r\ny\t3.0000000000000004\nz\t1e-300\nw\t2\nv\n\r\nu\r\r\nno newline\t2"
	edgeRollup   = "k\t5\nk\t65\r\nm\t7\r\n\nn\r\t119\r\nlast\t60"
)

// FuzzSplitIngestText checks the proxy's text split against the node's
// parser: splitting a body and parsing each part on its owner must give,
// part by part and in order, the rows that parsing the whole body and
// partitioning it by item hash gives, and both must reject the same
// bodies with the same error.
func FuzzSplitIngestText(f *testing.F) {
	for k, body := range []string{edgeUnit, edgeSharded, edgeWeighted, edgeRollup} {
		for owners := 1; owners <= 4; owners++ {
			f.Add(byte(k), []byte(body), byte(owners-1))
		}
	}
	for k, body := range []string{"", "\n", "\r", "a", "\r\r", "x\ty\tz\n"} {
		f.Add(byte(k%len(splitKinds)), []byte(body), byte(2))
	}
	f.Add(byte(2), []byte("a\t1\nb\t2\nc\tx\n"), byte(2)) // bad weight, line 3
	f.Add(byte(2), []byte("a\t1\n\t2\n"), byte(1))        // empty weighted item
	f.Add(byte(2), []byte("a\tNaN\nb\t-1\n"), byte(1))    // not a weight
	f.Add(byte(3), []byte("k\t5\nk\tnope\n"), byte(2))    // bad timestamp
	f.Add(byte(3), []byte("k\t5\nno tab\n"), byte(2))     // rollup row without one
	f.Fuzz(func(t *testing.T, kindIdx byte, body []byte, ownersIdx byte) {
		kind := splitKinds[int(kindIdx)%len(splitKinds)]
		n := 1 + int(ownersIdx)%4
		whole, wantErr := server.ParseIngestBody(kind, "text/plain", body)
		parts, ctype, rows, err := splitIngest(kind, "text/plain", body, n)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s body %q: split error %v, node parser error %v", kind, body, err, wantErr)
		}
		if err != nil {
			return
		}
		if ctype != "text/plain" || len(parts) != n || rows != len(whole.Items) {
			t.Fatalf("%s body %q: %d parts of %q, %d rows; want %d text parts, %d rows",
				kind, body, len(parts), ctype, rows, n, len(whole.Items))
		}
		for i, want := range partitionRows(whole, n) {
			got, err := server.ParseIngestBody(kind, "text/plain", parts[i])
			if err != nil {
				t.Fatalf("%s body %q: part %d %q does not parse: %v", kind, body, i, parts[i], err)
			}
			if !sameRows(got, want) {
				t.Fatalf("%s body %q: part %d %q parses to %+v, want %+v", kind, body, i, parts[i], got, want)
			}
		}
	})
}

// sameRows reports whether two parsed batches hold the same rows.
func sameRows(a, b server.IngestRows) bool {
	if len(a.Items) != len(b.Items) || len(a.Weights) != len(b.Weights) || len(a.Ats) != len(b.Ats) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	for i := range a.Ats {
		if a.Ats[i] != b.Ats[i] {
			return false
		}
	}
	return true
}

// TestPartitionIdxBytesMatchesString pins the text split's owner choice
// to partitionIdx bit for bit: a row must land on the owner a parsed
// item would.
func TestPartitionIdxBytesMatchesString(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		item := make([]byte, rng.IntN(40))
		for j := range item {
			item[j] = byte(rng.UintN(256))
		}
		for n := 1; n <= 5; n++ {
			if got, want := partitionIdxBytes(item, n), partitionIdx(string(item), n); got != want {
				t.Fatalf("item %q over %d owners: bytes form picks %d, string form %d", item, n, got, want)
			}
		}
	}
}

// adBody renders rows AdStream keys as a text ingest body for kind,
// rollup rows stamped across two 60-unit windows.
func adBody(tb testing.TB, kind server.Kind, rows int, seed int64) []byte {
	tb.Helper()
	ads, err := workload.NewAdStream(workload.DefaultAdConfig(int64(rows)), seed)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; ; i++ {
		im, ok := ads.Next()
		if !ok {
			return buf.Bytes()
		}
		buf.WriteString(im.Key(0, 3, 6))
		if kind == server.KindRollup {
			buf.WriteByte('\t')
			buf.WriteString(strconv.Itoa(i % 120))
		}
		buf.WriteByte('\n')
	}
}

// TestSplitIngestTextAllocsFlat pins the text split's allocations to a
// constant per request: a 5000-row body allocates no more often than a
// 500-row one, so the proxy does no per-row allocation.
func TestSplitIngestTextAllocsFlat(t *testing.T) {
	for _, kind := range []server.Kind{server.KindSharded, server.KindRollup} {
		small, large := adBody(t, kind, 500, 1), adBody(t, kind, 5000, 1)
		allocs := func(body []byte) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, _, _, err := splitIngest(kind, "text/plain", body, 2); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s: splitting 500 rows allocates %v times, 5000 rows %v times; want equal", kind, a, b)
		}
	}
}

// BenchmarkClusterIngestSplit times the proxy's cut of a 5000-row
// AdStream body into two owner parts: a text body through the text
// split, and the same rows as a JSON body through decode, partition and
// re-encode.
func BenchmarkClusterIngestSplit(b *testing.B) {
	const rows = 5000
	for _, kind := range []server.Kind{server.KindSharded, server.KindRollup} {
		text := adBody(b, kind, rows, 1)
		parsed, err := server.ParseIngestBody(kind, "text/plain", text)
		if err != nil {
			b.Fatal(err)
		}
		js, err := renderRows(kind, parsed)
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			format, ctype string
			body          []byte
		}{{"text", "text/plain", text}, {"json", "application/json", js}} {
			b.Run(fmt.Sprintf("%s/%s", kind, bc.format), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(bc.body)))
				for i := 0; i < b.N; i++ {
					if _, _, _, err := splitIngest(kind, bc.ctype, bc.body, 2); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}

// TestClusterTextAndJSONIngestAgree sends the same rows to one cluster
// as text and to a fresh cluster as the equivalent JSON, built from the
// node's own parse of the text, and requires every owner slot of every
// kind to end with the same state blob, rows and total. The sketches
// are small, so evictions make each owner's state depend on its rows
// and their order, not only on their sums.
func TestClusterTextAndJSONIngestAgree(t *testing.T) {
	cfgs := []server.SketchConfig{
		{Name: "u", Kind: server.KindUnit, Bins: 16, Seed: 1},
		{Name: "s", Kind: server.KindSharded, Bins: 8, Shards: 2, Seed: 2},
		{Name: "w", Kind: server.KindWeighted, Bins: 16, Seed: 3},
		{Name: "r", Kind: server.KindRollup, Bins: 16, WindowLength: 60, Seed: 4},
	}
	edge := map[server.Kind]string{
		server.KindUnit: edgeUnit, server.KindSharded: edgeSharded,
		server.KindWeighted: edgeWeighted, server.KindRollup: edgeRollup,
	}
	rf3 := func(c *Config) { c.ReplicationFactor = 3 }
	text, js := newTestCluster(t, 3, rf3), newTestCluster(t, 3, rf3)
	for _, cfg := range cfgs {
		text.create(0, cfg)
		js.create(0, cfg)
	}
	for i := 0; i < 6; i++ {
		for _, cfg := range cfgs {
			body := edge[cfg.Kind]
			if i%2 == 1 {
				body = string(adBody(t, cfg.Kind, 300, int64(i)))
			}
			parsed, err := server.ParseIngestBody(cfg.Kind, "text/plain", []byte(body))
			if err != nil {
				t.Fatalf("%s: parse body %d: %v", cfg.Name, i, err)
			}
			jsBody, err := renderRows(cfg.Kind, parsed)
			if err != nil {
				t.Fatalf("%s: render body %d: %v", cfg.Name, i, err)
			}
			path := "/v1/sketches/" + cfg.Name + "/ingest?sync=1"
			if code, b := text.post(i%3, path, "text/plain", body); code != http.StatusOK {
				t.Fatalf("%s: text ingest %d: status %d: %s", cfg.Name, i, code, b)
			}
			if code, b := js.post(i%3, path, "application/json", string(jsBody)); code != http.StatusOK {
				t.Fatalf("%s: JSON ingest %d: status %d: %s", cfg.Name, i, code, b)
			}
		}
	}
	for _, cfg := range cfgs {
		ta, ja := text.agents[0].owners(cfg.Name), js.agents[0].owners(cfg.Name)
		for slot := range ta {
			tSt, tBlob, tTotal := text.slotState(ta[slot], cfg.Name)
			jSt, jBlob, jTotal := js.slotState(ja[slot], cfg.Name)
			if tSt.Rows == 0 {
				t.Errorf("%s slot %d: no rows; the bodies must reach every owner", cfg.Name, slot)
			}
			if tSt != jSt || tTotal != jTotal || !bytes.Equal(tBlob, jBlob) {
				t.Errorf("%s slot %d: text ingest left %+v total %v (%d-byte state), JSON ingest %+v total %v (%d-byte state)",
					cfg.Name, slot, tSt, tTotal, len(tBlob), jSt, jTotal, len(jBlob))
			}
		}
	}
}

// slotState returns the stats, exact state blob and total of the partial
// of name held by the node at url.
func (tc *testCluster) slotState(url, name string) (server.SketchStats, []byte, float64) {
	tc.t.Helper()
	for i, u := range tc.urls {
		if u != url {
			continue
		}
		_, st, blob, err := tc.srvs[i].SketchState(name)
		if err != nil {
			tc.t.Fatalf("state of %s at %s: %v", name, url, err)
		}
		for _, d := range tc.srvs[i].Digests() {
			if d.Name == name {
				return st, blob, d.Total
			}
		}
		tc.t.Fatalf("no digest for %s at %s", name, url)
	}
	tc.t.Fatalf("owner %s is not a cluster member", url)
	return server.SketchStats{}, nil, 0
}

// TestClusterTextIngestKeepsItemBytes: a text item that is not valid
// UTF-8 reaches its owner byte for byte, as a node stores it. Re-encoding
// text rows as JSON at the proxy replaced such bytes with U+FFFD.
func TestClusterTextIngestKeepsItemBytes(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.create(0, server.SketchConfig{Name: "b", Kind: server.KindUnit, Bins: 16})
	items := []string{"\xff", "a\xfeb", "\xc3", "ok"}
	if code, b := tc.post(1, "/v1/sketches/b/ingest?sync=1", "text/plain", strings.Join(items, "\n")); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, b)
	}
	var held []string
	for i, srv := range tc.srvs {
		bins, _, err := srv.PartialBins("b", "")
		if err != nil {
			t.Fatalf("bins on node %d: %v", i, err)
		}
		for _, b := range bins {
			held = append(held, b.Item)
		}
	}
	for _, it := range items {
		if !slices.Contains(held, it) {
			t.Errorf("no owner holds item %q; owners hold %q", it, held)
		}
	}
}

// TestClusterIngestRejectsLikeNode sends rejected bodies through the
// proxy and straight to a node's own ingest handler. Both must answer
// the same 400 text, and no owner may apply a row: the proxy validates
// the whole body before it fans any part.
func TestClusterIngestRejectsLikeNode(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) { c.ReplicationFactor = 3 })
	for _, cfg := range []server.SketchConfig{
		{Name: "u", Kind: server.KindUnit, Bins: 16},
		{Name: "w", Kind: server.KindWeighted, Bins: 16},
		{Name: "r", Kind: server.KindRollup, Bins: 16, WindowLength: 60},
	} {
		tc.create(0, cfg)
	}
	const jsonType = "application/json"
	for _, c := range []struct{ name, sketch, ctype, body string }{
		{"bad weight on line 3", "w", "text/plain", "a\t1\nb\t2\nc\tx\nd\t1\n"},
		{"bad timestamp", "r", "text/plain", "k\t5\nm\t65\nk\tnope\n"},
		{"empty weighted item", "w", "text/plain", "a\t1\n\t2\n"},
		{"JSON trailing garbage", "u", jsonType, `{"items":["a"]} x`},
		{"JSON second object", "u", jsonType, `{"items":["a"]}{"items":["b"]}`},
		{"JSON empty body", "u", jsonType, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := tc.rowsOf(c.sketch)
			code, proxied := tc.post(0, "/v1/sketches/"+c.sketch+"/ingest?sync=1", c.ctype, c.body)
			nodeCode, node := tc.post(1, "/v1/cluster/sketches/"+c.sketch+"/ingest?sync=1", c.ctype, c.body)
			if code != http.StatusBadRequest || nodeCode != http.StatusBadRequest || !bytes.Equal(proxied, node) {
				t.Fatalf("proxy answered %d %s, node %d %s; want the same 400", code, proxied, nodeCode, node)
			}
			if after := tc.rowsOf(c.sketch); !slices.Equal(after, before) {
				t.Fatalf("rejected body moved rows: %v before, %v after", before, after)
			}
		})
	}
}

// rowsOf returns each node's applied row count for name.
func (tc *testCluster) rowsOf(name string) []int64 {
	tc.t.Helper()
	out := make([]int64, len(tc.srvs))
	for i, srv := range tc.srvs {
		_, st, _, err := srv.SketchState(name)
		if err != nil {
			tc.t.Fatalf("state of %s on node %d: %v", name, i, err)
		}
		out[i] = st.Rows
	}
	return out
}

// TestOversizeBodyAnswersLikeNode caps bodies at 64 bytes on every node
// and agent of a 3-node cluster: an oversize ingest, push, create or
// query gets the same 413 and text from the proxy as from a node, and
// nothing is applied or created.
func TestOversizeBodyAnswersLikeNode(t *testing.T) {
	const limit = 64
	tc := newTestClusterOf(t, 3, func(c *Config) {
		c.ReplicationFactor = 3
		c.MaxBodyBytes = limit
	}, func(int) *server.Server { return server.New(server.Config{MaxBodyBytes: limit}) })
	tc.create(0, server.SketchConfig{Name: "u", Kind: server.KindUnit, Bins: 16})
	tc.create(0, server.SketchConfig{Name: "w", Kind: server.KindWeighted, Bins: 16})
	pushed, err := uss.EncodeBins(16, []uss.Bin{{Item: "alpha", Count: 3}, {Item: "beta", Count: 2}, {Item: "gamma", Count: 1}, {Item: "delta", Count: 5}})
	if err != nil {
		t.Fatal(err)
	}
	create := `{"name":"big","kind":"unit","bins":16}` + strings.Repeat(" ", limit)
	query := `{"group_by":["a"]}` + strings.Repeat(" ", limit)
	want := fmt.Sprintf(`{"error":"request body exceeds %d bytes"}`, limit)
	for _, c := range []struct{ name, proxy, node, ctype, body string }{
		{"ingest", "/v1/sketches/u/ingest?sync=1", "/v1/cluster/sketches/u/ingest?sync=1", "text/plain", strings.Repeat("item\n", 20)},
		{"push", "/v1/sketches/w/snapshot", "/v1/cluster/sketches/w/snapshot", "application/octet-stream", string(pushed)},
		{"create", "/v1/sketches", "/v1/cluster/sketches", "application/json", create},
		{"query", "/v1/sketches/u/query", "/v1/cluster/sketches/u/query", "application/json", query},
	} {
		t.Run(c.name, func(t *testing.T) {
			if len(c.body) <= limit {
				t.Fatalf("body of %d bytes is not oversize", len(c.body))
			}
			rows, pushes := tc.rowsOf("u"), tc.pushesOf("w")
			code, proxied := tc.post(0, c.proxy, c.ctype, c.body)
			nodeCode, node := tc.post(1, c.node, c.ctype, c.body)
			if code != http.StatusRequestEntityTooLarge || nodeCode != code || !bytes.Equal(proxied, node) ||
				strings.TrimSpace(string(node)) != want {
				t.Fatalf("proxy answered %d %s, node %d %s; want 413 %s from both", code, proxied, nodeCode, node, want)
			}
			if !slices.Equal(tc.rowsOf("u"), rows) || !slices.Equal(tc.pushesOf("w"), pushes) {
				t.Fatal("an oversize body was applied")
			}
			for i, srv := range tc.srvs {
				if _, ok := srv.SketchConfigOf("big"); ok {
					t.Fatalf("an oversize create made sketch big on node %d", i)
				}
			}
		})
	}
}

// pushesOf returns each node's merged-snapshot count for name.
func (tc *testCluster) pushesOf(name string) []int64 {
	tc.t.Helper()
	out := make([]int64, len(tc.srvs))
	for i, srv := range tc.srvs {
		_, st, _, err := srv.SketchState(name)
		if err != nil {
			tc.t.Fatalf("state of %s on node %d: %v", name, i, err)
		}
		out[i] = st.Pushes
	}
	return out
}
