package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// swapHandler lets a test stand up listeners before the agents that
// serve them exist, and later swap a node's agent for a fresh one (the
// boot-repair scenario).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is an in-process cluster: n real HTTP listeners, each
// fronting an Agent over its own in-memory server.
type testCluster struct {
	t      *testing.T
	urls   []string
	https  []*httptest.Server
	swaps  []*swapHandler
	agents []*Agent
	srvs   []*server.Server
}

func newTestCluster(t *testing.T, n int, mut func(*Config)) *testCluster {
	t.Helper()
	return newTestClusterOf(t, n, mut, func(int) *server.Server { return server.New(server.Config{}) })
}

// newTestClusterOf is newTestCluster with node i's server built by
// newSrv.
func newTestClusterOf(t *testing.T, n int, mut func(*Config), newSrv func(i int) *server.Server) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	for i := 0; i < n; i++ {
		sw := &swapHandler{}
		hs := httptest.NewServer(sw)
		tc.swaps = append(tc.swaps, sw)
		tc.https = append(tc.https, hs)
		tc.urls = append(tc.urls, hs.URL)
	}
	for i := 0; i < n; i++ {
		srv := newSrv(i)
		cfg := Config{
			Self:       tc.urls[i],
			Peers:      append([]string(nil), tc.urls...),
			HedgeDelay: 20 * time.Millisecond,
			DownFor:    200 * time.Millisecond,
			Client:     &http.Client{Timeout: 5 * time.Second},
		}
		if mut != nil {
			mut(&cfg)
		}
		ag, err := New(cfg, srv)
		if err != nil {
			t.Fatalf("New agent %d: %v", i, err)
		}
		ag.Start()
		tc.swaps[i].set(ag.Handler())
		tc.agents = append(tc.agents, ag)
		tc.srvs = append(tc.srvs, srv)
	}
	t.Cleanup(func() {
		for _, ag := range tc.agents {
			_ = ag.Shutdown(context.Background())
		}
		for _, s := range tc.srvs {
			_ = s.Shutdown(context.Background())
		}
		for _, hs := range tc.https {
			hs.Close()
		}
	})
	return tc
}

func (tc *testCluster) post(node int, path, ctype, body string) (int, []byte) {
	tc.t.Helper()
	resp, err := http.Post(tc.urls[node]+path, ctype, strings.NewReader(body))
	if err != nil {
		tc.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func (tc *testCluster) get(node int, path string) (int, []byte) {
	tc.t.Helper()
	resp, err := http.Get(tc.urls[node] + path)
	if err != nil {
		tc.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func (tc *testCluster) create(node int, cfg server.SketchConfig) {
	tc.t.Helper()
	body, _ := json.Marshal(cfg)
	code, b := tc.post(node, "/v1/sketches", "application/json", string(body))
	if code != http.StatusCreated {
		tc.t.Fatalf("create: status %d: %s", code, b)
	}
}

// ingestWeighted pushes rows through the cluster proxy synchronously,
// spreading batches across nodes, and returns the exact per-item truth.
func (tc *testCluster) ingestWeighted(name string, rows int) map[string]float64 {
	tc.t.Helper()
	truth := make(map[string]float64)
	var buf bytes.Buffer
	node := 0
	flush := func() {
		if buf.Len() == 0 {
			return
		}
		code, b := tc.post(node%len(tc.urls), "/v1/sketches/"+name+"/ingest?sync=1", "text/plain", buf.String())
		if code != http.StatusOK {
			tc.t.Fatalf("ingest: status %d: %s", code, b)
		}
		buf.Reset()
		node++
	}
	for i := 0; i < rows; i++ {
		item := fmt.Sprintf("item-%02d", i%23)
		w := float64(1 + i%7)
		truth[item] += w
		fmt.Fprintf(&buf, "%s\t%g\n", item, w)
		if (i+1)%50 == 0 {
			flush()
		}
	}
	flush()
	return truth
}

type topkResp struct {
	Items []struct {
		Item  string  `json:"item"`
		Count float64 `json:"count"`
	} `json:"items"`
	Degraded bool `json:"degraded"`
}

func (tc *testCluster) topk(node int, name string, k int) (int, topkResp, string) {
	tc.t.Helper()
	code, b := tc.get(node, fmt.Sprintf("/v1/sketches/%s/topk?k=%d", name, k))
	var resp topkResp
	if code == http.StatusOK {
		if err := json.Unmarshal(b, &resp); err != nil {
			tc.t.Fatalf("decode topk: %v: %s", err, b)
		}
	}
	return code, resp, string(b)
}

// checkExact asserts a topk answer equals the truth item-for-item.
func checkExact(t *testing.T, truth map[string]float64, resp topkResp) {
	t.Helper()
	if len(resp.Items) != len(truth) {
		t.Fatalf("topk returned %d items, truth has %d", len(resp.Items), len(truth))
	}
	for _, it := range resp.Items {
		want, ok := truth[it.Item]
		if !ok {
			t.Fatalf("topk invented item %q", it.Item)
		}
		if it.Count != want {
			t.Fatalf("item %q: got %g, want %g (exact)", it.Item, it.Count, want)
		}
	}
}

// TestClusterIngestGatherExact proves the tentpole's core claim: rows
// fanned across owner partitions gather back into the bit-identical
// single-node answer, from any node.
func TestClusterIngestGatherExact(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.create(0, server.SketchConfig{Name: "flows", Kind: server.KindWeighted, Bins: 256, Seed: 1})
	truth := tc.ingestWeighted("flows", 400)
	for node := range tc.urls {
		code, resp, raw := tc.topk(node, "flows", 100)
		if code != http.StatusOK {
			t.Fatalf("topk via node %d: status %d: %s", node, code, raw)
		}
		if resp.Degraded {
			t.Fatalf("healthy cluster answered degraded via node %d: %s", node, raw)
		}
		checkExact(t, truth, resp)
	}
}

// TestClusterCreateEverywhereDeleteEverywhere checks the manifest
// broadcast: a create on one node exists on all, a delete removes it
// from all.
func TestClusterCreateEverywhereDeleteEverywhere(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.create(1, server.SketchConfig{Name: "m", Kind: server.KindUnit, Bins: 64, Seed: 7})
	for i, srv := range tc.srvs {
		if _, ok := srv.SketchConfigOf("m"); !ok {
			t.Fatalf("node %d missing sketch after broadcast create", i)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, tc.urls[2]+"/v1/sketches/m", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	for i, srv := range tc.srvs {
		if _, ok := srv.SketchConfigOf("m"); ok {
			t.Fatalf("node %d still has sketch after broadcast delete", i)
		}
	}
	if code, _ := tc.get(0, "/v1/sketches/m/topk"); code != http.StatusNotFound {
		t.Fatalf("read of deleted sketch: status %d, want 404", code)
	}
}

// TestClusterDegradedRead kills one node and checks the contract: reads
// keep answering 200 with degraded true and per-peer detail — never a
// 5xx — as long as a quorum of partials responds.
func TestClusterDegradedRead(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.ReplicationFactor = 3
		c.ReadQuorum = 2
	})
	tc.create(0, server.SketchConfig{Name: "deg", Kind: server.KindWeighted, Bins: 256, Seed: 2})
	tc.ingestWeighted("deg", 300)

	tc.swaps[2].set(nil) // node 2 "dies": its listener now 503s everything
	sawDegraded := false
	for node := 0; node < 2; node++ {
		code, resp, raw := tc.topk(node, "deg", 100)
		if code >= 500 {
			t.Fatalf("read via node %d answered %d during node death: %s", node, code, raw)
		}
		if code != http.StatusOK {
			t.Fatalf("read via node %d: status %d: %s", node, code, raw)
		}
		if resp.Degraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatalf("no read reported degraded with a node down and no copies")
	}
}

// TestClusterAntiEntropyHedgedExact runs anti-entropy so every co-owner
// holds copies, then kills a node: hedged reads serve the dead node's
// partial from a copy and the merged answer stays exact.
func TestClusterAntiEntropyHedgedExact(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.ReplicationFactor = 3
		c.ReadQuorum = 2
	})
	tc.create(0, server.SketchConfig{Name: "ae", Kind: server.KindWeighted, Bins: 256, Seed: 3})
	truth := tc.ingestWeighted("ae", 500)

	ctx := context.Background()
	for i, ag := range tc.agents {
		st := ag.AntiEntropyRound(ctx)
		if len(st.Errors) > 0 {
			t.Fatalf("anti-entropy on node %d: %+v", i, st)
		}
	}
	tc.swaps[1].set(nil) // node 1 dies after copies were taken
	for _, node := range []int{0, 2} {
		code, resp, raw := tc.topk(node, "ae", 100)
		if code != http.StatusOK {
			t.Fatalf("topk via node %d: status %d: %s", node, code, raw)
		}
		if !resp.Degraded {
			t.Fatalf("copy-hedged read via node %d should report degraded: %s", node, raw)
		}
		checkExact(t, truth, resp)
	}
}

// TestClusterBootRepair wipes a node (fresh server, fresh agent, same
// address) and checks BootRepair reconstructs its partitions from the
// copies its co-owners hold, restoring exact cluster answers.
func TestClusterBootRepair(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.ReplicationFactor = 3
		c.ReadQuorum = 2
	})
	tc.create(0, server.SketchConfig{Name: "br", Kind: server.KindWeighted, Bins: 256, Seed: 4})
	truth := tc.ingestWeighted("br", 500)
	ctx := context.Background()
	for _, ag := range tc.agents {
		ag.AntiEntropyRound(ctx)
	}

	// Node 0 loses its disk: all local partials gone.
	tc.swaps[0].set(nil)
	_ = tc.agents[0].Shutdown(ctx)
	_ = tc.srvs[0].Shutdown(ctx)
	fresh := server.New(server.Config{})
	ag, err := New(Config{
		Self:              tc.urls[0],
		Peers:             append([]string(nil), tc.urls...),
		ReplicationFactor: 3,
		ReadQuorum:        2,
		HedgeDelay:        20 * time.Millisecond,
		Client:            &http.Client{Timeout: 5 * time.Second},
	}, fresh)
	if err != nil {
		t.Fatal(err)
	}
	rs := ag.BootRepair(ctx)
	if len(rs.Errors) > 0 {
		t.Fatalf("boot repair: %+v", rs)
	}
	if rs.Restored == 0 {
		t.Fatalf("boot repair restored nothing: %+v", rs)
	}
	ag.Start()
	tc.swaps[0].set(ag.Handler())
	tc.agents[0], tc.srvs[0] = ag, fresh

	for node := range tc.urls {
		code, resp, raw := tc.topk(node, "br", 100)
		if code != http.StatusOK {
			t.Fatalf("topk via node %d after repair: status %d: %s", node, code, raw)
		}
		if resp.Degraded {
			t.Fatalf("post-repair read via node %d degraded: %s", node, raw)
		}
		checkExact(t, truth, resp)
	}
}

// TestClusterUnknownSketch404 pins proxy error mapping for reads.
func TestClusterUnknownSketch404(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	if code, b := tc.get(0, "/v1/sketches/nope/topk"); code != http.StatusNotFound {
		t.Fatalf("topk on unknown sketch: status %d: %s", code, b)
	}
	if code, b := tc.post(0, "/v1/sketches/nope/ingest", "text/plain", "x\t1\n"); code != http.StatusNotFound {
		t.Fatalf("ingest on unknown sketch: status %d: %s", code, b)
	}
}

// TestClusterNonFiniteTotalAnswers500: a weighted sketch whose total
// overflows to +Inf has no JSON encoding, so the cluster's digest and
// list answers, which both carry totals, must be a 500 naming the
// failure rather than a 200 with an empty body.
func TestClusterNonFiniteTotalAnswers500(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.create(0, server.SketchConfig{Name: "big", Kind: server.KindWeighted, Bins: 8})
	if code, b := tc.post(0, "/v1/cluster/sketches/big/ingest?sync=1", "text/plain", "a\t1e308\nb\t1e308\n"); code != http.StatusOK {
		t.Fatalf("local ingest: status %d: %s", code, b)
	}
	for _, path := range []string{"/v1/cluster/digest", "/v1/sketches"} {
		code, b := tc.get(0, path)
		var body struct {
			Error string `json:"error"`
		}
		if code != http.StatusInternalServerError || json.Unmarshal(b, &body) != nil ||
			!strings.HasPrefix(body.Error, "encode response: ") {
			t.Fatalf("GET %s: status %d, body %q; want 500 with an encode error", path, code, b)
		}
	}
}
