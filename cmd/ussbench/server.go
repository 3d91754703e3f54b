package main

// ussbench -bench server: load-drives an in-process ussd over real
// loopback HTTP and reports ingest throughput (async batches, then a
// drain barrier) and query latency percentiles for the cached read
// paths. -scale multiplies the workload.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// serverClient wraps the load driver's HTTP plumbing.
type serverClient struct {
	base string
	hc   *http.Client
}

func (c *serverClient) post(path, ct string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, ct, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	return data, nil
}

func (c *serverClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, data)
	}
	return data, nil
}

// percentile reads the p-th percentile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// perfServer runs the service workload: async text ingest to a sharded
// sketch, a drain barrier, then repeated top-k and group-by queries.
func perfServer(w io.Writer, rec *benchRecorder, scale float64) error {
	batches := int(100 * scale)
	if batches < 4 {
		batches = 4
	}
	const rowsPerBatch = 2000
	queryReps := int(300 * scale)
	if queryReps < 20 {
		queryReps = 20
	}

	s := server.New(server.Config{IngestWorkers: 4, QueueDepth: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	defer func() {
		_ = s.Shutdown(context.Background())
		<-done
	}()
	c := &serverClient{base: "http://" + ln.Addr().String(), hc: &http.Client{}}

	if _, err := c.post("/v1/sketches", "application/json",
		[]byte(`{"name":"bench","kind":"sharded","bins":1024,"shards":8,"seed":20180614}`)); err != nil {
		return err
	}

	// Pre-render the batch bodies so the driver measures the server, not
	// fmt.Sprintf.
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 1, 20000)
	countries := []string{"us", "de", "jp", "br", "in", "fr"}
	bodies := make([][]byte, batches)
	for b := range bodies {
		var buf bytes.Buffer
		for i := 0; i < rowsPerBatch; i++ {
			fmt.Fprintf(&buf, "country=%s|ad=ad-%d\n", countries[rng.Intn(len(countries))], zipf.Uint64())
		}
		bodies[b] = buf.Bytes()
	}

	totalRows := int64(batches * rowsPerBatch)
	fmt.Fprintf(w, "# server: %d async batches × %d rows into sharded 8×1024, then %d reps/query\n",
		batches, rowsPerBatch, queryReps)

	ingestStart := time.Now()
	for _, body := range bodies {
		if _, err := c.post("/v1/sketches/bench/ingest", "text/plain", body); err != nil {
			return err
		}
	}
	// Drain barrier: poll until every accepted row is applied.
	for {
		data, err := c.get("/v1/sketches/bench")
		if err != nil {
			return err
		}
		var info struct {
			Rows int64 `json:"rows"`
		}
		if err := json.Unmarshal(data, &info); err != nil {
			return err
		}
		if info.Rows >= totalRows {
			break
		}
	}
	ingestD := time.Since(ingestStart)
	fmt.Fprintf(w, "%-34s %14v %14.0f rows/s\n", "ingest (accept + apply)", ingestD,
		float64(totalRows)/ingestD.Seconds())
	rec.set("ingest_rows", totalRows)
	rec.set("ingest_total", ingestD)
	rec.set("ingest_rows_per_second", float64(totalRows)/ingestD.Seconds())

	queries := []struct {
		name string
		key  string
		run  func() error
	}{
		{"topk k=10", "topk", func() error {
			_, err := c.get("/v1/sketches/bench/topk?k=10")
			return err
		}},
		{"query group_by country", "groupby", func() error {
			_, err := c.post("/v1/sketches/bench/query", "application/json",
				[]byte(`{"where":[{"dim":"country","in":["us","de"]}],"group_by":["country"]}`))
			return err
		}},
		{"sum prefix", "sum", func() error {
			_, err := c.get("/v1/sketches/bench/sum?prefix=country=jp")
			return err
		}},
	}
	fmt.Fprintf(w, "%-34s %14s %14s %14s\n", "query (quiescent sketch)", "p50", "p99", "max")
	for _, q := range queries {
		if err := q.run(); err != nil { // warm: build snapshot + prepared query
			return err
		}
		lat := make([]time.Duration, queryReps)
		for i := range lat {
			t0 := time.Now()
			if err := q.run(); err != nil {
				return err
			}
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Fprintf(w, "%-34s %14v %14v %14v\n", q.name,
			percentile(lat, 0.50), percentile(lat, 0.99), lat[len(lat)-1])
		rec.set(q.key+"_p50", percentile(lat, 0.50))
		rec.set(q.key+"_p99", percentile(lat, 0.99))
	}

	return perfServerDurable(w, rec, bodies, totalRows)
}

// perfServerDurable re-runs the ingest phase against a WAL-backed server
// with the default store: every 202 is withheld until an fsync covers the
// batch, so the reported rate is durable rows/s — rows that would survive
// a kill -9 the instant the ack was read. The client is serial, so each
// batch pays its own fsync.
func perfServerDurable(w io.Writer, rec *benchRecorder, bodies [][]byte, totalRows int64) error {
	dir, err := os.MkdirTemp("", "ussbench-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		return err
	}
	s := server.New(server.Config{IngestWorkers: 4, QueueDepth: 64})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	defer func() {
		_ = s.Shutdown(context.Background())
		<-done
	}()
	c := &serverClient{base: "http://" + ln.Addr().String(), hc: &http.Client{}}
	if _, err := c.post("/v1/sketches", "application/json",
		[]byte(`{"name":"bench","kind":"sharded","bins":1024,"shards":8,"seed":20180614}`)); err != nil {
		return err
	}

	start := time.Now()
	for _, body := range bodies {
		if _, err := c.post("/v1/sketches/bench/ingest", "text/plain", body); err != nil {
			return err
		}
	}
	for {
		data, err := c.get("/v1/sketches/bench")
		if err != nil {
			return err
		}
		var info struct {
			Rows int64 `json:"rows"`
		}
		if err := json.Unmarshal(data, &info); err != nil {
			return err
		}
		if info.Rows >= totalRows {
			break
		}
	}
	d := time.Since(start)
	syncs := st.Metrics().Syncs.Load()
	fmt.Fprintf(w, "%-34s %14v %14.0f rows/s (%d fsyncs)\n",
		"durable ingest (ack after fsync)", d, float64(totalRows)/d.Seconds(), syncs)
	rec.set("durable_ingest_total", d)
	rec.set("durable_ingest_rows_per_second", float64(totalRows)/d.Seconds())
	rec.set("durable_ingest_fsyncs", syncs)
	return nil
}
