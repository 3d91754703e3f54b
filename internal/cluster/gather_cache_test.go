package cluster

// The gathered-read cache's contract: a repeat read whose owner
// partials are all unchanged is answered from the cached handle,
// byte-identical to the read that filled it; a changed partial is
// refetched and nothing else is; a replaced sketch object never
// revalidates an old token, however its version counters line up; and
// a degraded gather neither answers from the cache nor fills it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	uss "repro"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/store"
)

// gatherCounts snapshots node's gathered-read counters by result.
func (tc *testCluster) gatherCounts(node int) [len(gatherResults)]int64 {
	var out [len(gatherResults)]int64
	for i := range out {
		out[i] = tc.agents[node].met.gatherReads[i].Load()
	}
	return out
}

// notModified reports how many partial requests node answered 304.
func (tc *testCluster) notModified(node int) int64 {
	return tc.agents[node].met.notModified.Load()
}

// cachedGather returns node's cached gather of name, nil when none.
func (tc *testCluster) cachedGather(node int, name string) *gatherCache {
	a := tc.agents[node]
	a.gatherMu.Lock()
	defer a.gatherMu.Unlock()
	return a.gathers[name]
}

// ownerNodes returns name's owner set as node indexes, in owner order.
func (tc *testCluster) ownerNodes(name string) []int {
	var out []int
	for _, o := range tc.agents[0].owners(name) {
		out = append(out, slices.Index(tc.urls, o))
	}
	return out
}

// itemsOn returns n items named prefix<i> that partition to the given
// slot of an owner set of size owners.
func itemsOn(prefix string, slot, owners, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if it := fmt.Sprintf("%s%d", prefix, i); partitionIdx(it, owners) == slot {
			out = append(out, it)
		}
	}
	return out
}

// ingestSync posts text rows through node with ?sync=1.
func (tc *testCluster) ingestSync(node int, name, rows string) {
	tc.t.Helper()
	code, b := tc.post(node, "/v1/sketches/"+name+"/ingest?sync=1", "text/plain", rows)
	if code != http.StatusOK {
		tc.t.Fatalf("ingest via node %d: status %d: %s", node, code, b)
	}
}

// pointRead is one point-read request.
type pointRead struct{ method, path, body string }

// readOK issues rd through node and returns its 200 body.
func (tc *testCluster) readOK(node int, rd pointRead) []byte {
	tc.t.Helper()
	var code int
	var b []byte
	if rd.method == http.MethodPost {
		code, b = tc.post(node, rd.path, "application/json", rd.body)
	} else {
		code, b = tc.get(node, rd.path)
	}
	if code != http.StatusOK {
		tc.t.Fatalf("%s %s via node %d: status %d: %s", rd.method, rd.path, node, code, b)
	}
	return b
}

// estimate reads item's estimate through node.
func (tc *testCluster) estimate(node int, name, item string) float64 {
	tc.t.Helper()
	var resp struct {
		Estimate float64 `json:"estimate"`
	}
	b := tc.readOK(node, pointRead{http.MethodGet, "/v1/sketches/" + name + "/estimate?item=" + item, ""})
	if err := json.Unmarshal(b, &resp); err != nil {
		tc.t.Fatalf("decode estimate: %v: %s", err, b)
	}
	return resp.Estimate
}

// nonOwner returns the one node of a 3-node, rf 2 cluster that does
// not own name.
func (tc *testCluster) nonOwner(name string) int {
	o := tc.ownerNodes(name)
	return 3 - o[0] - o[1]
}

func TestGatherCacheHitIsByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.create(0, server.SketchConfig{Name: "gc", Kind: server.KindSharded, Shards: 4, Bins: 64, Seed: 5})
	var rows strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&rows, "u=%d|v=%d\n", i%7, i%5)
	}
	tc.ingestSync(1, "gc", rows.String())
	owners := tc.ownerNodes("gc")
	reads := []pointRead{
		{http.MethodGet, "/v1/sketches/gc/topk?k=10", ""},
		{http.MethodGet, "/v1/sketches/gc/estimate?item=u=1|v=1", ""},
		{http.MethodGet, "/v1/sketches/gc/sum?prefix=u=1", ""},
		{http.MethodPost, "/v1/sketches/gc/query", `{"where":[{"dim":"u","in":["1","2"]}],"group_by":["v"]}`},
	}
	// Through an owner (one local, one remote partial) and through the
	// non-owner (two remote partials).
	for _, node := range []int{owners[0], tc.nonOwner("gc")} {
		for _, rd := range reads {
			tc.agents[node].dropGather("gc")
			first := tc.readOK(node, rd)
			filled := tc.cachedGather(node, "gc")
			if filled == nil {
				t.Fatalf("node %d: clean %s did not fill the cache", node, rd.path)
			}
			counts := tc.gatherCounts(node)
			nm := make([]int64, len(tc.urls))
			for i := range nm {
				nm[i] = tc.notModified(i)
			}
			second := tc.readOK(node, rd)
			if !bytes.Equal(first, second) {
				t.Fatalf("node %d: cached %s answered\n%s\nwant the filling read's\n%s", node, rd.path, second, first)
			}
			want := counts
			want[gatherHit]++
			if got := tc.gatherCounts(node); got != want {
				t.Fatalf("node %d: gather counters %v after a repeat read, want %v (one hit)", node, got, want)
			}
			if tc.cachedGather(node, "gc") != filled {
				t.Fatalf("node %d: a hit replaced the cached gather (a merge ran)", node)
			}
			for _, o := range owners {
				want := nm[o]
				if o != node {
					want++ // each remote owner answered 304
				}
				if got := tc.notModified(o); got != want {
					t.Fatalf("owner %d answered %d 304s, want %d", o, got-nm[o], want-nm[o])
				}
			}
		}
	}
}

func TestGatherCacheRevalidatesChangedOwner(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.create(0, server.SketchConfig{Name: "rv", Kind: server.KindSharded, Shards: 4, Bins: 64, Seed: 6})
	var rows strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&rows, "u=%d|v=%d\n", i%9, i%4)
	}
	tc.ingestSync(0, "rv", rows.String())
	for node := range tc.urls {
		tc.readOK(node, pointRead{http.MethodGet, "/v1/sketches/rv/topk?k=3", ""}) // fill each cache
	}
	owners := tc.ownerNodes("rv")
	changed, unchanged := owners[0], owners[1]
	hot := itemsOn("hot-", 0, len(owners), 1)[0]
	tc.ingestSync(tc.nonOwner("rv"), "rv", strings.Repeat(hot+"\n", 1000))

	nm := []int64{tc.notModified(0), tc.notModified(1), tc.notModified(2)}
	var counts [][len(gatherResults)]int64
	for node := range tc.urls {
		counts = append(counts, tc.gatherCounts(node))
	}
	for node := range tc.urls {
		code, resp, raw := tc.topk(node, "rv", 1)
		if code != http.StatusOK || len(resp.Items) != 1 || resp.Items[0].Item != hot || resp.Items[0].Count != 1000 {
			t.Fatalf("node %d does not reflect the synced write (want %s=1000): %d %s", node, hot, code, raw)
		}
		want := counts[node]
		want[gatherPartial]++
		if got := tc.gatherCounts(node); got != want {
			t.Fatalf("node %d: gather counters %v, want %v (one partial)", node, got, want)
		}
	}
	if got := tc.notModified(changed) - nm[changed]; got != 0 {
		t.Fatalf("changed owner %d answered %d 304s, want 0", changed, got)
	}
	if got := tc.notModified(unchanged) - nm[unchanged]; got != 2 {
		t.Fatalf("unchanged owner %d answered %d 304s, want 2 (one per remote reader)", unchanged, got)
	}
}

// TestGatherCacheNeverRevalidatesReplacedSketch replaces the sketch
// object behind one owner partial in every way the service can. Each
// case lands the replacement at the very version the reader cached (a
// restored or freshly merged weighted sketch starts at version 1, the
// version one ingested row leaves), with different content, so only the
// entry generation or boot nonce in the token tells the two apart.
func TestGatherCacheNeverRevalidatesReplacedSketch(t *testing.T) {
	const name = "rp"
	ctx := context.Background()
	cases := []struct {
		name string
		// replace turns owner o's partial {a:1} into one holding b=2
		// without reading through the reader r.
		replace func(t *testing.T, tc *testCluster, o, r int, a, b string)
		// after is what the reader must now estimate for b.
		after float64
	}{
		{"delete-recreate", func(t *testing.T, tc *testCluster, o, r int, a, b string) {
			other := tc.nonOwner(name) // the reader keeps its cache
			req, _ := http.NewRequest(http.MethodDelete, tc.urls[other]+"/v1/sketches/"+name, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			tc.create(other, server.SketchConfig{Name: name, Kind: server.KindWeighted, Bins: 64, Seed: 3})
			tc.ingestSync(other, name, b+"\t2\n")
		}, 2},
		{"restore", func(t *testing.T, tc *testCluster, o, r int, a, b string) {
			sk, err := uss.NewWeightedFromBins(64, []uss.Bin{{Item: a, Count: 1}, {Item: b, Count: 2}})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			cfg, _ := tc.srvs[o].SketchConfigOf(name)
			if err := tc.srvs[o].RestoreSketch(cfg, server.SketchStats{Rows: 2}, blob); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"push", func(t *testing.T, tc *testCluster, o, r int, a, b string) {
			sk, err := uss.NewWeightedFromBins(1, []uss.Bin{{Item: b, Count: 2}})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if code, body := tc.post(tc.nonOwner(name), "/v1/sketches/"+name+"/snapshot", "application/octet-stream", string(blob)); code != http.StatusOK {
				t.Fatalf("push: status %d: %s", code, body)
			}
		}, 2},
		{"restart-boot-repair", func(t *testing.T, tc *testCluster, o, r int, a, b string) {
			// The owner moves to {a:1, b:2}, the reader copies it, and the
			// owner restarts with nothing: boot repair restores the copy.
			tc.ingestSync(r, name, b+"\t2\n")
			if st := tc.agents[r].AntiEntropyRound(ctx); st.Pulled == 0 {
				t.Fatalf("anti-entropy pulled no copy: %+v", st)
			}
			tc.swaps[o].set(nil)
			_ = tc.agents[o].Shutdown(ctx)
			_ = tc.srvs[o].Shutdown(ctx)
			fresh := server.New(server.Config{})
			ag, err := New(Config{
				Self:       tc.urls[o],
				Peers:      append([]string(nil), tc.urls...),
				HedgeDelay: 20 * time.Millisecond,
				Client:     &http.Client{Timeout: 5 * time.Second},
			}, fresh)
			if err != nil {
				t.Fatal(err)
			}
			tc.agents[o], tc.srvs[o] = ag, fresh
			if rs := ag.BootRepair(ctx); rs.Restored != 1 || len(rs.Errors) > 0 {
				t.Fatalf("boot repair: %+v", rs)
			}
			ag.Start()
			tc.swaps[o].set(ag.Handler())
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, nil)
			tc.create(0, server.SketchConfig{Name: name, Kind: server.KindWeighted, Bins: 64, Seed: 3})
			owners := tc.ownerNodes(name)
			o, r := owners[0], owners[1]
			items := itemsOn("k-", 0, len(owners), 2)
			a, b := items[0], items[1]
			tc.ingestSync(r, name, a+"\t1\n")
			if got := tc.estimate(r, name, b); got != 0 {
				t.Fatalf("estimate of %s before the replacement = %g, want 0", b, got)
			}
			if tc.cachedGather(r, name) == nil {
				t.Fatal("clean read did not fill the cache")
			}
			c.replace(t, tc, o, r, a, b)
			nm := tc.notModified(o)
			hits := tc.gatherCounts(r)[gatherHit]
			if got := tc.estimate(r, name, b); got != c.after {
				t.Fatalf("estimate of %s after %s = %g, want %g (an old token revalidated)", b, c.name, got, c.after)
			}
			if got := tc.notModified(o) - nm; got != 0 {
				t.Fatalf("replaced owner answered %d 304s, want 0", got)
			}
			if tc.gatherCounts(r)[gatherHit] != hits {
				t.Fatal("the read after the replacement was a cache hit")
			}
		})
	}
}

// TestGatherCacheColdRevive demotes the owner's partial to a cold blob
// and lets the next gathered read revive it. The revived weighted
// sketch restarts at version 1, which the reader cached before a second
// row moved the owner on, so the revive must redraw the generation.
func TestGatherCacheColdRevive(t *testing.T) {
	tc := newTestClusterOf(t, 3, nil, func(int) *server.Server {
		dir := t.TempDir()
		rebuilt, err := store.Rebuild(dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{MemorySoftBytes: 1, ColdAfter: 50 * time.Millisecond})
		if err := srv.AttachStore(st, rebuilt, 0); err != nil {
			t.Fatal(err)
		}
		return srv
	})
	const name = "cd"
	tc.create(0, server.SketchConfig{Name: name, Kind: server.KindWeighted, Bins: 64, Seed: 8})
	owners := tc.ownerNodes(name)
	o, r := owners[0], owners[1]
	items := itemsOn("c-", 0, len(owners), 2)
	a, b := items[0], items[1]
	tc.ingestSync(r, name, a+"\t1\n")
	if got := tc.estimate(r, name, a); got != 1 {
		t.Fatalf("estimate of %s = %g, want 1", a, got)
	}
	tc.ingestSync(r, name, b+"\t2\n")
	demoted := tc.metric(o, "ussd_sketch_demotions_total")
	deadline := time.Now().Add(10 * time.Second)
	for tc.metric(o, "ussd_sketch_demotions_total") == demoted {
		if time.Now().After(deadline) {
			t.Fatal("the owner never demoted the idle sketch")
		}
		time.Sleep(20 * time.Millisecond)
	}
	revived := tc.metric(o, "ussd_sketch_revivals_total")
	nm := tc.notModified(o)
	if got := tc.estimate(r, name, b); got != 2 {
		t.Fatalf("estimate of %s after demote and revive = %g, want 2 (an old token revalidated)", b, got)
	}
	if tc.metric(o, "ussd_sketch_revivals_total") == revived {
		t.Fatal("the gathered read did not revive the owner's partial")
	}
	if got := tc.notModified(o) - nm; got != 0 {
		t.Fatalf("revived owner answered %d 304s, want 0", got)
	}
}

// metric reads one unlabeled counter from node's /metrics.
func (tc *testCluster) metric(node int, family string) int64 {
	tc.t.Helper()
	code, b := tc.get(node, "/metrics")
	if code != http.StatusOK {
		tc.t.Fatalf("GET /metrics on node %d: status %d", node, code)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, family+" "); ok {
			var v int64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				tc.t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	tc.t.Fatalf("node %d /metrics has no %s", node, family)
	return 0
}

// TestGatherCacheDegradedReadsBypass checks that a gather missing a
// partial, or serving one from a copy, neither answers from the cache
// nor fills it.
func TestGatherCacheDegradedReadsBypass(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.ReplicationFactor = 3
		c.ReadQuorum = 2
	})
	const name = "dg"
	tc.create(0, server.SketchConfig{Name: name, Kind: server.KindWeighted, Bins: 128, Seed: 9})
	truth := tc.ingestWeighted(name, 300)
	for _, ag := range tc.agents {
		ag.AntiEntropyRound(context.Background())
	}
	t.Cleanup(faultinject.Reset)

	// A missed partial leaves its items out; a copy-won hedge is exact.
	degradedRead := func(spec string, exact bool) {
		t.Helper()
		if err := faultinject.Enable(spec); err != nil {
			t.Fatal(err)
		}
		before := tc.gatherCounts(0)
		code, resp, raw := tc.topk(0, name, 100)
		faultinject.Reset()
		if code != http.StatusOK || !resp.Degraded {
			t.Fatalf("%s: want a degraded 200, got %d %s", spec, code, raw)
		}
		if exact {
			checkExact(t, truth, resp)
		}
		want := before
		want[gatherUncached]++
		if got := tc.gatherCounts(0); got != want {
			t.Fatalf("%s: gather counters %v, want %v (one uncached)", spec, got, want)
		}
	}

	// No cache yet: a degraded gather leaves none behind.
	degradedRead("cluster.partial-read:1:1", false)
	if tc.cachedGather(0, name) != nil {
		t.Fatal("a degraded gather filled the cache")
	}
	// With a cache: neither read nor replaced.
	tc.topk(0, name, 100)
	filled := tc.cachedGather(0, name)
	if filled == nil {
		t.Fatal("clean read did not fill the cache")
	}
	degradedRead("cluster.partial-read:1:1", false)
	degradedRead("cluster.slow-peer", true) // each remote owner loses to a local copy
	if tc.cachedGather(0, name) != filled {
		t.Fatal("a degraded gather replaced the cached gather")
	}
	hits := tc.gatherCounts(0)[gatherHit]
	if _, resp, raw := tc.topk(0, name, 100); resp.Degraded {
		t.Fatalf("clean read after the faults answered degraded: %s", raw)
	}
	if tc.gatherCounts(0)[gatherHit] != hits+1 {
		t.Fatal("the clean read after the degraded ones was not a cache hit")
	}
}

// TestGatherCacheConcurrentReadsAndWrites races gathered reads on every
// node, which share each node's cached handle, against synced writes;
// once the writes stop every node answers the exact counts.
func TestGatherCacheConcurrentReadsAndWrites(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	const name = "cc"
	tc.create(0, server.SketchConfig{Name: name, Kind: server.KindSharded, Shards: 4, Bins: 64, Seed: 10})
	reads := []string{
		"/v1/sketches/cc/topk?k=5",
		"/v1/sketches/cc/sum?prefix=u=1",
		"/v1/sketches/cc/estimate?item=u=2|v=0",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(tc.urls[i%3] + reads[i%len(reads)])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent read: status %d", resp.StatusCode)
					return
				}
			}
		}(r)
	}
	truth := make(map[string]float64)
	for batch := 0; batch < 20; batch++ {
		var rows strings.Builder
		for i := 0; i < 50; i++ {
			item := fmt.Sprintf("u=%d|v=%d", (batch+i)%6, i%3)
			truth[item]++
			rows.WriteString(item + "\n")
		}
		tc.ingestSync(batch%3, name, rows.String())
	}
	close(stop)
	wg.Wait()
	for node := range tc.urls {
		code, resp, raw := tc.topk(node, name, 100)
		if code != http.StatusOK {
			t.Fatalf("topk via node %d: status %d: %s", node, code, raw)
		}
		checkExact(t, truth, resp)
	}
}

// TestGatherCacheCountersExposed checks the cache's counters on the
// reader's and the owner's /metrics, every agent family declaring HELP
// and TYPE before its first sample, and in /v1/cluster/status.
func TestGatherCacheCountersExposed(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.create(0, server.SketchConfig{Name: "mx", Kind: server.KindWeighted, Bins: 64, Seed: 11})
	tc.ingestWeighted("mx", 100)
	owners := tc.ownerNodes("mx")
	r, remote := owners[0], owners[1]
	tc.topk(r, "mx", 5) // miss
	tc.topk(r, "mx", 5) // hit: the remote owner answers 304

	scrape := func(node int) string {
		code, b := tc.get(node, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("GET /metrics on node %d: status %d", node, code)
		}
		declared := map[string]int{}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				declared[strings.Fields(rest)[0]]++
			} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				f := strings.Fields(rest)
				if declared[f[0]] != 1 {
					t.Fatalf("node %d: %q without one HELP before it", node, line)
				}
				declared[f[0]]++
			} else if strings.HasPrefix(line, "ussd_cluster_") {
				family := line[:strings.IndexAny(line, "{ ")]
				if declared[family] != 2 {
					t.Fatalf("node %d: sample %q before its HELP and TYPE", node, line)
				}
			}
		}
		return string(b)
	}
	for node, wants := range map[int][]string{
		r: {
			`ussd_cluster_gather_reads_total{result="hit"} 1`,
			`ussd_cluster_gather_reads_total{result="partial"} 0`,
			`ussd_cluster_gather_reads_total{result="miss"} 1`,
			`ussd_cluster_gather_reads_total{result="uncached"} 0`,
		},
		remote: {"ussd_cluster_partials_not_modified_total 1"},
	} {
		body := scrape(node)
		for _, want := range wants {
			if !strings.Contains(body, want+"\n") {
				t.Errorf("node %d /metrics missing %q", node, want)
			}
		}
	}

	status := func(node int) map[string]int64 {
		var st statusDTO
		code, b := tc.get(node, "/v1/cluster/status")
		if code != http.StatusOK {
			t.Fatalf("status on node %d: %d", node, code)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		return st.Counters
	}
	if c := status(r); c["gather_reads_hit"] != 1 || c["gather_reads_miss"] != 1 {
		t.Errorf("reader status counters %v, want one hit and one miss", c)
	}
	if c := status(remote); c["partials_not_modified"] != 1 {
		t.Errorf("owner status counters %v, want one partial not modified", c)
	}
}
