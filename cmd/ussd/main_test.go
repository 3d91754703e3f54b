package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	uss "repro"
	"repro/internal/server"
	"repro/internal/store"
)

// startServer runs a Server on a loopback listener and returns its base
// URL, shutting everything down with the test.
func startServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Config{IngestWorkers: 2, QueueDepth: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, "http://" + ln.Addr().String()
}

func mustPost(t *testing.T, url, contentType string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// agentStream builds one agent's row stream: a skewed draw over a window
// of the shared item universe, so the two agents overlap on part of it.
func agentStream(seed int64, lo, hi int, rows int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, rows)
	for i := range out {
		// Quadratic skew keeps a heavy head without needing Zipf state.
		span := hi - lo
		v := rng.Intn(span) * rng.Intn(span) / span
		out[i] = fmt.Sprintf("item-%04d", lo+v)
	}
	return out
}

// TestEndToEndPushMergeTopK is the acceptance scenario: two simulated
// agents sketch disjoint shards of a stream locally, ship wire-v2
// snapshots to ussd, the server merges them with MergeBins, and a top-k
// query over HTTP matches the same merge done in-process bit-for-bit
// (the accumulator is sized so the merge is the exact item-wise sum,
// which draws no randomness).
func TestEndToEndPushMergeTopK(t *testing.T) {
	_, base := startServer(t)

	const m = 2048 // accumulator capacity: > total agent bins, merge stays exact
	mustPost(t, base+"/v1/sketches", "application/json",
		[]byte(`{"name":"agg","kind":"weighted","bins":2048,"seed":5}`))

	// Two agents over overlapping item ranges, each small enough that its
	// sketch tracks every item exactly.
	streams := [][]string{
		agentStream(101, 0, 400, 30000),
		agentStream(202, 250, 650, 30000),
	}
	blobs := make([][]byte, len(streams))
	for i, rows := range streams {
		sk := uss.New(512, uss.WithSeed(int64(1000+i)))
		sk.UpdateAll(rows)
		var err error
		blobs[i], err = sk.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		reply := mustPost(t, base+"/v1/sketches/agg/snapshot", "application/octet-stream", blobs[i])
		var pr struct {
			MergedBins int `json:"merged_bins"`
		}
		if err := json.Unmarshal(reply, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.MergedBins == 0 {
			t.Fatalf("push %d merged no bins: %s", i, reply)
		}
	}

	// The same merge in-process: decode both shipped snapshots' bins and
	// reduce them with the same kernel and capacity the server used.
	lists := make([][]uss.Bin, len(blobs))
	for i, blob := range blobs {
		var err error
		lists[i], err = uss.DecodeBins(blob)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged := uss.MergeBins(m, uss.Pairwise, lists...)
	local, err := uss.NewWeightedFromBins(m, merged)
	if err != nil {
		t.Fatal(err)
	}

	const k = 100
	want := local.TopK(k)

	var got struct {
		Items []struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		} `json:"items"`
	}
	if err := json.Unmarshal(mustGet(t, fmt.Sprintf("%s/v1/sketches/agg/topk?k=%d", base, k)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(want) {
		t.Fatalf("HTTP top-k returned %d items, in-process %d", len(got.Items), len(want))
	}
	for i := range want {
		if got.Items[i].Item != want[i].Item || got.Items[i].Count != want[i].Count {
			t.Fatalf("top-k[%d]: HTTP (%q, %v) != in-process (%q, %v)",
				i, got.Items[i].Item, got.Items[i].Count, want[i].Item, want[i].Count)
		}
	}

	// The served total must be the exact mass of both streams.
	var info struct {
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal(mustGet(t, base+"/v1/sketches/agg"), &info); err != nil {
		t.Fatal(err)
	}
	if wantTotal := float64(len(streams[0]) + len(streams[1])); info.Total != wantTotal {
		t.Fatalf("merged total %v, want %v", info.Total, wantTotal)
	}

	// Pull the merged snapshot back and cross-check a few estimates.
	pulled := mustGet(t, base+"/v1/sketches/agg/snapshot")
	var back uss.WeightedSketch
	if err := back.UnmarshalBinary(pulled); err != nil {
		t.Fatal(err)
	}
	for _, b := range want[:5] {
		if got := back.Estimate(b.Item); got != b.Count {
			t.Fatalf("pulled estimate %q = %v, want %v", b.Item, got, b.Count)
		}
	}
}

// buildUssd compiles the real ussd binary for process-level tests.
func buildUssd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ussd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build ussd: %v\n%s", err, out)
	}
	return bin
}

// startUssd launches the binary and waits for its "listening on" line,
// returning the process and base URL.
func startUssd(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	return startUssdEnv(t, bin, nil, args...)
}

// startUssdEnv is startUssd with extra environment entries (the
// fault-injection tests arm USS_FAULTPOINTS this way).
func startUssdEnv(t *testing.T, bin string, env []string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	if len(env) > 0 {
		cmd.Env = append(cmd.Environ(), env...)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("ussd: %s", line)
			// The slog text handler renders the startup line as
			// `msg=listening ... addr=HOST:PORT` (quoted msg for the
			// cluster variant); grab the addr field.
			if !strings.Contains(line, "msg=listening") &&
				!strings.Contains(line, `msg="cluster node listening"`) {
				continue
			}
			if _, rest, ok := strings.Cut(line, "addr="); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addrc <- strings.Trim(f[0], `"`):
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		base := "http://" + addr
		for i := 0; i < 100; i++ {
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				return cmd, base
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("ussd at %s never became healthy", base)
	case <-time.After(10 * time.Second):
		t.Fatal("ussd never logged its listen address")
	}
	return nil, ""
}

// TestKillDashNineRecovery is the durability acceptance scenario against
// the real binary: sync-ingest rows and push a snapshot with -fsync
// always, SIGKILL the process mid-flight, restart on the same data dir,
// and require the recovered top-k to match both the pre-kill answers and
// an in-process replay of the same WAL records, bit for bit.
func TestKillDashNineRecovery(t *testing.T) {
	bin := buildUssd(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-data-dir", dataDir, "-fsync", "always", "-checkpoint-interval", "0",
		"-create", `{"name":"agg","kind":"weighted","bins":1024,"seed":21}`,
		"-create", `{"name":"clicks","kind":"unit","bins":128,"seed":22}`,
	}
	cmd, base := startUssd(t, bin, args...)

	// Acknowledged synchronous ingest: on disk before the 200.
	var rows strings.Builder
	for i := 0; i < 900; i++ {
		fmt.Fprintf(&rows, "click-%03d\n", i%57)
	}
	mustPost(t, base+"/v1/sketches/clicks/ingest?sync=1", "text/plain", []byte(rows.String()))

	// Acknowledged snapshot push: on disk before the 200.
	agent := uss.New(256, uss.WithSeed(77))
	for i := 0; i < 5000; i++ {
		agent.Update(fmt.Sprintf("pushed-%04d", i%111))
	}
	blob, err := agent.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPost(t, base+"/v1/sketches/agg/snapshot", "application/octet-stream", blob)

	var preKill, preKillAgg struct {
		Items []struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		} `json:"items"`
	}
	if err := json.Unmarshal(mustGet(t, base+"/v1/sketches/clicks/topk?k=20"), &preKill); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustGet(t, base+"/v1/sketches/agg/topk?k=20"), &preKillAgg); err != nil {
		t.Fatal(err)
	}

	// kill -9: no drain, no checkpoint, no goodbye.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// In-process replay of the same records — the ground truth the
	// recovered server must match bit for bit.
	replay, err := store.Rebuild(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	replayTopK := replay.Sketches["clicks"].Unit.TopK(20)
	replayAggTopK := replay.Sketches["agg"].Weighted.TopK(20)

	cmd2, base2 := startUssd(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	var got, gotAgg struct {
		Items []struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		} `json:"items"`
	}
	if err := json.Unmarshal(mustGet(t, base2+"/v1/sketches/clicks/topk?k=20"), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustGet(t, base2+"/v1/sketches/agg/topk?k=20"), &gotAgg); err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []struct {
		Item  string  `json:"item"`
		Count float64 `json:"count"`
	}, pre []struct {
		Item  string  `json:"item"`
		Count float64 `json:"count"`
	}, replay []uss.Bin) {
		t.Helper()
		if len(got) != len(pre) || len(got) != len(replay) {
			t.Fatalf("%s: top-k sizes diverge: got %d, pre-kill %d, replay %d", label, len(got), len(pre), len(replay))
		}
		for i := range got {
			if got[i] != pre[i] {
				t.Fatalf("%s[%d]: recovered (%q, %v) != pre-kill (%q, %v)",
					label, i, got[i].Item, got[i].Count, pre[i].Item, pre[i].Count)
			}
			if got[i].Item != replay[i].Item || got[i].Count != replay[i].Count {
				t.Fatalf("%s[%d]: recovered (%q, %v) != in-process replay (%q, %v)",
					label, i, got[i].Item, got[i].Count, replay[i].Item, replay[i].Count)
			}
		}
	}
	check("clicks", got.Items, preKill.Items, replayTopK)
	check("agg", gotAgg.Items, preKillAgg.Items, replayAggTopK)

	// Row counters and totals survived too.
	var info struct {
		Rows  int64   `json:"rows"`
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal(mustGet(t, base2+"/v1/sketches/clicks"), &info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 900 || info.Total != 900 {
		t.Fatalf("recovered clicks rows=%d total=%v, want 900", info.Rows, info.Total)
	}
}

// TestKillDashNineAfterRejectedWeight: a text row weighted NaN must be a
// 400 that never reaches the WAL. Logged, it is a record recovery cannot
// decode, and replay stops there, so a batch acknowledged after it would
// vanish in the next crash. Here the acknowledged batch survives kill -9.
func TestKillDashNineAfterRejectedWeight(t *testing.T) {
	bin := buildUssd(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-data-dir", dataDir, "-fsync", "always", "-checkpoint-interval", "0",
		"-create", `{"name":"w","kind":"weighted","bins":64,"seed":1}`,
		"-create", `{"name":"u","kind":"unit","bins":64,"seed":2}`,
	}
	cmd, base := startUssd(t, bin, args...)
	defer cmd.Process.Kill() // a failure before the kill below must not leak the process
	resp, err := http.Post(base+"/v1/sketches/w/ingest?sync=1", "text/plain", strings.NewReader("a\tNaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN weight: status %d, want 400", resp.StatusCode)
	}
	mustPost(t, base+"/v1/sketches/u/ingest?sync=1", "text/plain", []byte("x\nx\ny\n"))
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, base2 := startUssd(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	var info struct {
		Rows  int64   `json:"rows"`
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal(mustGet(t, base2+"/v1/sketches/u"), &info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 3 || info.Total != 3 {
		t.Fatalf("recovered u rows=%d total=%v, want the acknowledged 3", info.Rows, info.Total)
	}
}

// TestKillDashNineRecoveryGroupCommit is the same SIGKILL scenario under
// group commit: `-fsync interval -group-commit` amortizes one fsync over
// many appends but still withholds every ack until a covering fsync ran,
// so a kill -9 straight after the last 200 must lose nothing. The
// recovered top-k has to match the pre-kill answers and an in-process
// replay bit for bit — group commit may batch durability, not weaken it.
func TestKillDashNineRecoveryGroupCommit(t *testing.T) {
	bin := buildUssd(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-data-dir", dataDir,
		"-fsync", "interval", "-fsync-every", "10ms", "-group-commit",
		"-checkpoint-interval", "0",
		"-create", `{"name":"clicks","kind":"unit","bins":128,"seed":31}`,
	}
	cmd, base := startUssd(t, bin, args...)

	// Acknowledged synchronous ingests: each 200 means a shared interval
	// fsync covered the batch before the ack left the server.
	for batch := 0; batch < 8; batch++ {
		var rows strings.Builder
		for i := 0; i < 120; i++ {
			fmt.Fprintf(&rows, "gc-click-%03d\n", (batch*120+i)%43)
		}
		mustPost(t, base+"/v1/sketches/clicks/ingest?sync=1", "text/plain", []byte(rows.String()))
	}

	var preKill struct {
		Items []struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		} `json:"items"`
	}
	if err := json.Unmarshal(mustGet(t, base+"/v1/sketches/clicks/topk?k=20"), &preKill); err != nil {
		t.Fatal(err)
	}

	// kill -9 immediately after the last ack: the group's fsync already
	// happened, so nothing acknowledged may be missing.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	replay, err := store.Rebuild(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	replayTopK := replay.Sketches["clicks"].Unit.TopK(20)

	cmd2, base2 := startUssd(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	var got struct {
		Items []struct {
			Item  string  `json:"item"`
			Count float64 `json:"count"`
		} `json:"items"`
	}
	if err := json.Unmarshal(mustGet(t, base2+"/v1/sketches/clicks/topk?k=20"), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(preKill.Items) || len(got.Items) != len(replayTopK) {
		t.Fatalf("top-k sizes diverge: got %d, pre-kill %d, replay %d",
			len(got.Items), len(preKill.Items), len(replayTopK))
	}
	for i := range got.Items {
		if got.Items[i] != preKill.Items[i] {
			t.Fatalf("[%d]: recovered (%q, %v) != pre-kill (%q, %v)",
				i, got.Items[i].Item, got.Items[i].Count, preKill.Items[i].Item, preKill.Items[i].Count)
		}
		if got.Items[i].Item != replayTopK[i].Item || got.Items[i].Count != replayTopK[i].Count {
			t.Fatalf("[%d]: recovered (%q, %v) != in-process replay (%q, %v)",
				i, got.Items[i].Item, got.Items[i].Count, replayTopK[i].Item, replayTopK[i].Count)
		}
	}

	var info struct {
		Rows  int64   `json:"rows"`
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal(mustGet(t, base2+"/v1/sketches/clicks"), &info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 960 || info.Total != 960 {
		t.Fatalf("recovered clicks rows=%d total=%v, want 960 (8 acked batches × 120)", info.Rows, info.Total)
	}
}

// TestServerSmokeIngestQueryShutdown drives the CLI-shaped path: create a
// sharded sketch, async-ingest text batches, query, then shut down and
// confirm the drain applied everything.
func TestServerSmokeIngestQueryShutdown(t *testing.T) {
	s, base := startServer(t)
	mustPost(t, base+"/v1/sketches", "application/json",
		[]byte(`{"name":"clicks","kind":"sharded","bins":256,"shards":4,"seed":9}`))

	var rows strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&rows, "country=%s|ad=ad-%d\n", []string{"us", "de", "jp", "br"}[i%4], i%50)
	}
	for batch := 0; batch < 5; batch++ {
		mustPost(t, base+"/v1/sketches/clicks/ingest", "text/plain", []byte(rows.String()))
	}
	// Sync barrier: one empty-bodied sync ingest doesn't flush the queue,
	// so issue a sync batch and then poll info until the rows land.
	mustPost(t, base+"/v1/sketches/clicks/ingest?sync=1", "text/plain", []byte("country=us|ad=ad-0\n"))

	deadline := 0
	for {
		var info struct {
			Rows int64 `json:"rows"`
		}
		if err := json.Unmarshal(mustGet(t, base+"/v1/sketches/clicks"), &info); err != nil {
			t.Fatal(err)
		}
		if info.Rows == 10001 {
			break
		}
		if deadline++; deadline > 500 {
			t.Fatalf("ingest never drained: %d rows applied", info.Rows)
		}
	}

	var qr struct {
		Groups []struct {
			KeyString string  `json:"key_string"`
			Value     float64 `json:"value"`
		} `json:"groups"`
	}
	reply := mustPost(t, base+"/v1/sketches/clicks/query", "application/json",
		[]byte(`{"group_by":["country"]}`))
	if err := json.Unmarshal(reply, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Groups) != 4 {
		t.Fatalf("group-by country: %d groups, want 4: %s", len(qr.Groups), reply)
	}
	var total float64
	for _, g := range qr.Groups {
		total += g.Value
	}
	if total != 10001 {
		t.Fatalf("group sums total %v, want 10001", total)
	}

	// Cleanup's Shutdown asserts the drain; double-shutdown must be safe.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
