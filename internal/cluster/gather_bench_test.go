package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// BenchmarkGatherRead times one gathered top-k read through a 3-node
// in-process cluster at the shape of perfbench's cluster-gather
// workload: replication factor 2 and a sharded sketch of 4 shards × 128
// bins per owner partial, filled past capacity. Reads go round-robin
// over the three nodes, so two in three gather one local and one remote
// partial and one in three gathers two remote partials.
//
//   - unchanged: no writes between reads.
//   - one-owner-changed: before each read, an untimed synced write to
//     one owner's partition.
//   - all-changed: before each read, an untimed synced write to both
//     owners' partitions.
func BenchmarkGatherRead(b *testing.B) {
	urls, owners := benchGatherCluster(b)
	const name = "ads"
	var rows strings.Builder
	for i := 0; i < 40000; i++ {
		fmt.Fprintf(&rows, "a=%d|b=%d|c=%d\n", i%61, (i*7)%37, (i*13)%29)
		if (i+1)%4000 == 0 {
			benchPost(b, urls[i%3]+"/v1/sketches/"+name+"/ingest?sync=1", rows.String())
			rows.Reset()
		}
	}
	// One write item per owner slot.
	var slotItem [2]string
	for i, found := 0, 0; found < len(slotItem); i++ {
		it := fmt.Sprintf("w=%d", i)
		if slot := partitionIdx(it, len(owners)); slotItem[slot] == "" {
			slotItem[slot] = it
			found++
		}
	}
	read := func(i int) {
		resp, err := http.Get(urls[i%len(urls)] + "/v1/sketches/" + name + "/topk?k=10")
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("topk: status %d", resp.StatusCode)
		}
	}
	for _, bc := range []struct {
		name   string
		writes []string
	}{
		{"unchanged", nil},
		{"one-owner-changed", slotItem[:1]},
		{"all-changed", slotItem[:]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < 3; i++ {
				read(i) // every node's first read after the prefill
			}
			body := strings.Join(bc.writes, "\n")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if body != "" {
					b.StopTimer()
					benchPost(b, urls[i%3]+"/v1/sketches/"+name+"/ingest?sync=1", body)
					b.StartTimer()
				}
				read(i)
			}
		})
	}
}

// benchGatherCluster stands up three in-memory nodes and creates the
// sharded benchmark sketch; it returns the node URLs and the sketch's
// owner set.
func benchGatherCluster(b *testing.B) ([]string, []string) {
	b.Helper()
	var urls []string
	var hss []*httptest.Server
	muxes := make([]*http.ServeMux, 3)
	for i := range muxes {
		muxes[i] = http.NewServeMux()
		hs := httptest.NewServer(muxes[i])
		hss = append(hss, hs)
		urls = append(urls, hs.URL)
	}
	var agents []*Agent
	var srvs []*server.Server
	for i := range muxes {
		srv := server.New(server.Config{})
		ag, err := New(Config{Self: urls[i], Peers: urls, HedgeDelay: 75 * time.Millisecond}, srv)
		if err != nil {
			b.Fatal(err)
		}
		ag.Start()
		muxes[i].Handle("/", ag.Handler())
		agents = append(agents, ag)
		srvs = append(srvs, srv)
	}
	b.Cleanup(func() {
		for _, ag := range agents {
			_ = ag.Shutdown(context.Background())
		}
		for _, s := range srvs {
			_ = s.Shutdown(context.Background())
		}
		for _, hs := range hss {
			hs.Close()
		}
		http.DefaultClient.CloseIdleConnections()
	})
	benchPost(b, urls[0]+"/v1/sketches", `{"name":"ads","kind":"sharded","shards":4,"bins":128,"seed":1}`)
	return urls, agents[0].owners("ads")
}

// benchPost posts body to u and fails the benchmark on a non-2xx answer.
func benchPost(b *testing.B, u, body string) {
	b.Helper()
	resp, err := http.Post(u, "text/plain", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b.Fatalf("POST %s: status %d: %s", u, resp.StatusCode, msg)
	}
}
