package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePorts reserves n distinct loopback ports: cluster nodes need
// their peer URLs fixed before any of them starts listening.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

// startClusterNode launches one ussd cluster node and waits for it to
// answer /healthz on its fixed address.
func startClusterNode(t *testing.T, bin string, env []string, addr string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	if len(env) > 0 {
		cmd.Env = append(cmd.Environ(), env...)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	for i := 0; i < 250; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			return cmd
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cluster node at %s never became healthy", base)
	return nil
}

// clusterTopK fetches a cluster top-k without asserting on the status.
func clusterTopK(t *testing.T, base, name string, k int) (int, []struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/sketches/%s/topk?k=%d", base, name, k))
	if err != nil {
		t.Fatalf("topk: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Items []struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		} `json:"items"`
		Degraded bool `json:"degraded"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out.Items, out.Degraded
}

// sortBins orders a top-k deterministically for comparison: count
// descending, item ascending on ties.
func sortBins(bins []struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}) {
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].Count != bins[j].Count {
			return bins[i].Count > bins[j].Count
		}
		return bins[i].Item < bins[j].Item
	})
}

// TestClusterKillNodeE2E is the cluster acceptance scenario against
// real processes with cluster faultpoints armed: a 3-node cluster takes
// acknowledged traffic through fan drops and slow peers; one node is
// SIGKILLed mid-life and its disk wiped; while it is down every read
// answers 200 with degraded=true (never a 5xx); after restart, boot
// repair pulls its partitions back from co-owner copies and the cluster
// top-k must match the exact single-node merge of everything ever
// acknowledged, item for item.
func TestClusterKillNodeE2E(t *testing.T) {
	bin := buildUssd(t)
	ports := freePorts(t, 3)
	addrs := make([]string, 3)
	urls := make([]string, 3)
	dirs := make([]string, 3)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", ports[i])
		urls[i] = "http://" + addrs[i]
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i))
	}
	peers := strings.Join(urls, ",")
	nodeArgs := func(i int) []string {
		return []string{
			"-data-dir", dirs[i], "-fsync", "always", "-checkpoint-interval", "0",
			"-cluster", "-cluster-self", urls[i], "-peers", peers,
			"-replication-factor", "3", "-read-quorum", "2",
			"-anti-entropy-interval", "300ms", "-hedge-delay", "30ms",
		}
	}
	// Fan drops and slow peers armed on every node: retries and hedging
	// must absorb both without a single failed acknowledgement.
	faults := "USS_FAULTPOINTS=cluster.drop-fan:0.1,cluster.slow-peer:0.05"
	nodes := make([]*exec.Cmd, 3)
	for i := range nodes {
		nodes[i] = startClusterNode(t, bin, []string{faults}, addrs[i], nodeArgs(i)...)
	}
	defer func() {
		for _, n := range nodes {
			if n != nil && n.Process != nil {
				n.Process.Signal(syscall.SIGTERM)
				n.Wait()
			}
		}
	}()

	mustPost(t, urls[0]+"/v1/sketches", "application/json",
		[]byte(`{"name":"flows","kind":"weighted","bins":512,"seed":33}`))

	// Phase 1: acknowledged traffic, spread across all three proxies.
	// Every row is tracked in truth — capacity far exceeds the distinct
	// items, so the exact single-node merge is the per-item sum.
	truth := make(map[string]float64)
	ingest := func(node, rows, salt int) {
		var buf strings.Builder
		for i := 0; i < rows; i++ {
			item := fmt.Sprintf("flow-%02d", (i+salt)%37)
			w := float64(1 + (i+salt)%9)
			truth[item] += w
			fmt.Fprintf(&buf, "%s\t%g\n", item, w)
		}
		mustPost(t, urls[node]+"/v1/sketches/flows/ingest?sync=1", "text/plain", []byte(buf.String()))
	}
	for b := 0; b < 9; b++ {
		ingest(b%3, 120, b*1000)
	}

	// Anti-entropy pass on every node so each co-owner holds copies of
	// the others' partials before the kill.
	for _, u := range urls {
		mustPost(t, u+"/v1/cluster/antientropy", "", nil)
	}

	// SIGKILL node 2 — no drain, no checkpoint — and wipe its disk: the
	// rejoin below must rebuild purely from its co-owners' copies.
	if err := nodes[2].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	nodes[2].Wait()
	nodes[2] = nil
	if err := os.RemoveAll(dirs[2]); err != nil {
		t.Fatal(err)
	}

	// While the node is down: reads answer, degraded, never 5xx — and
	// thanks to the copies they are still the exact answer.
	sawDegraded := false
	for round := 0; round < 4; round++ {
		for _, u := range urls[:2] {
			code, items, degraded := clusterTopK(t, u, "flows", 50)
			if code >= 500 {
				t.Fatalf("read via %s answered %d with a node down", u, code)
			}
			if code != http.StatusOK {
				t.Fatalf("read via %s: status %d", u, code)
			}
			if degraded {
				sawDegraded = true
			}
			checkTruth(t, truth, items)
		}
	}
	if !sawDegraded {
		t.Fatal("no read reported degraded while a node was down")
	}

	// Phase 2: more acknowledged traffic with the node still dead — its
	// partitions fail over to the surviving owners.
	for b := 0; b < 6; b++ {
		ingest(b%2, 120, 50000+b*1000)
	}

	// Restart the wiped node: boot repair pulls its partitions from the
	// co-owners' copies before it serves, anti-entropy keeps converging.
	nodes[2] = startClusterNode(t, bin, []string{faults}, addrs[2], nodeArgs(2)...)

	// After rejoin the cluster answer must converge to the exact
	// single-node merge of every acknowledged row, from every node, with
	// no degradation. The assertions run on the round that ended the
	// wait, not on fresh reads: slow-peer stays armed, and a read whose
	// hedge a copy wins is degraded by contract, so re-sampling would
	// test the faultpoint's dice rather than convergence.
	type read struct {
		code     int
		degraded bool
		items    []struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		}
	}
	final := make([]read, len(urls))
	waitFor(t, "post-rejoin convergence", 20*time.Second, func() bool {
		for i, u := range urls {
			rd := &final[i]
			rd.code, rd.items, rd.degraded = clusterTopK(t, u, "flows", 50)
			if rd.code != http.StatusOK || rd.degraded || !truthMatches(truth, rd.items) {
				return false
			}
		}
		return true
	})
	for i, u := range urls {
		if rd := final[i]; rd.code != http.StatusOK || rd.degraded {
			t.Fatalf("final read via %s: status %d degraded %v", u, rd.code, rd.degraded)
		}
		checkTruth(t, truth, final[i].items)
	}
}

// truthMatches reports whether a served top-k equals the exact merge.
func truthMatches(truth map[string]float64, items []struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}) bool {
	if len(items) != len(truth) {
		return false
	}
	for _, it := range items {
		if truth[it.Item] != it.Count {
			return false
		}
	}
	return true
}

// checkTruth asserts a served top-k equals the exact single-node merge
// item for item (sorted identically first — ties carry no canonical
// order across nodes).
func checkTruth(t *testing.T, truth map[string]float64, items []struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}) {
	t.Helper()
	want := make([]struct {
		Item  string  `json:"item"`
		Count float64 `json:"count"`
	}, 0, len(truth))
	for item, c := range truth {
		want = append(want, struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		}{item, c})
	}
	sortBins(want)
	got := append(items[:0:0], items...)
	sortBins(got)
	if len(got) != len(want) {
		t.Fatalf("top-k has %d items, exact merge %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("top-k[%d]: cluster (%q, %v) != exact merge (%q, %v)",
				i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
}
