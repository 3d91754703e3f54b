package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// Operation classes. Every workload measures all five, so every
// end-to-end metric exists on every workload.
const (
	clsIngest = iota
	clsTopK
	clsSum
	clsQuery
	clsRange
	numClasses
)

var classNames = [numClasses]string{"ingest", "topk", "sum", "query", "range"}

// The two sketches every workload serves: a sharded sketch of marginal
// keys and a windowed rollup of the same rows.
const (
	mainSketch   = "ads"
	rollupSketch = "adsr"
)

// spec defines one workload. BENCHMARK.json says why each exists.
type spec struct {
	name      string
	nodes     int  // ussd processes
	clustered bool // -cluster mode
	durable   bool // -data-dir
	in        inputSpec
	// Sketch geometry: shards × bins for the sharded sketch, bins per
	// window for the rollup.
	shards, bins, rollupBins int
	// rates are the open-loop offered rates per class in ops/s. A zero
	// ingest rate means a closed ingest loop over nproc connections.
	rates [numClasses]float64
	// readPhase, when positive, runs that many reads of each read class
	// the window does not offer, after the window and its drain, one at a
	// time over one connection: latency there is service time, with no
	// queueing behind the generator's other requests.
	readPhase int
}

// workloads are the benchmark's traffic mixes, by name.
var workloads = []*spec{
	{
		name:  "ingest-saturate",
		nodes: 1, shards: 8, bins: 1024, rollupBins: 1024,
		in:        inputSpec{prefillRollupRows: 48000, ingestBatches: 256, ingestRows: 2000},
		readPhase: 2000,
	},
	{
		// 700 batches/s is about half of what a closed loop sustains
		// against the default fsync-per-append store on a 2-vCPU host.
		name:  "durable-ingest",
		nodes: 1, durable: true, shards: 8, bins: 1024, rollupBins: 1024,
		in:        inputSpec{prefillRollupRows: 48000, ingestBatches: 512, ingestRows: 500},
		rates:     [numClasses]float64{clsIngest: 700},
		readPhase: 2000,
	},
	{
		// Not in BENCHMARK.json: an open loop of reads is the traffic a
		// shared host's CPU steal disturbs most (see README.md). The
		// trickle alternates between the two sketches, so each is written
		// at a quarter of the read rate and a fixed quarter of the reads
		// of each class are the first after a write: the tail measures
		// those, p50 the cached reads.
		name:  "dashboard-mixed",
		nodes: 1, shards: 8, bins: 512, rollupBins: 256,
		in:    inputSpec{prefillRows: 400000, prefillRollupRows: 240000, ingestBatches: 600, ingestRows: 50, rollupBatches: 600},
		rates: [numClasses]float64{55, 110, 110, 110, 110},
	},
	{
		// Small sketches (4×128 per owner partial): every read gathers
		// over several HTTP hops.
		name:  "cluster-gather",
		nodes: 3, clustered: true, shards: 4, bins: 128, rollupBins: 128,
		in:        inputSpec{prefillRows: 200000, prefillRollupRows: 96000, ingestBatches: 600, ingestRows: 200, rollupBatches: 600},
		rates:     [numClasses]float64{clsIngest: 55},
		readPhase: 1000,
	},
}

func findWorkload(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run is one benchmark invocation's state.
type run struct {
	sp   *spec
	opt  options
	in   *inputs
	cl   *client
	c    *cluster
	dir  string
	conn int // load connections (nproc)

	// acked counts rows each sketch acknowledged; ackedHits counts
	// acknowledged rows of the main sketch matching each check predicate.
	ackedMain, ackedRollup atomic.Int64
	ackedHits              []atomic.Int64

	checks, checkFailures int
	checkErrs             []string
}

// target picks the node a task goes to: tasks spread round-robin.
func (r *run) target(idx int) string {
	return r.c.nodes[idx%len(r.c.nodes)].url
}

func sketchURL(base, name, rest string) string {
	return base + "/v1/sketches/" + name + rest
}

// exec performs one task against the servers.
func (r *run) exec(ctx context.Context, t task) error {
	base := r.target(t.idx)
	in := r.in
	switch t.class {
	case clsIngest:
		if len(in.ingestRollup) > 0 && t.idx%2 == 1 {
			b := in.ingestRollup[(t.idx/2)%len(in.ingestRollup)]
			if _, err := r.cl.post(ctx, sketchURL(base, rollupSketch, "/ingest"), "text/plain", b.body); err != nil {
				return err
			}
			r.ackedRollup.Add(int64(b.rows))
			return nil
		}
		k := t.idx
		if len(in.ingestRollup) > 0 {
			k /= 2
		}
		b := in.ingest[k%len(in.ingest)]
		if _, err := r.cl.post(ctx, sketchURL(base, mainSketch, "/ingest"), "text/plain", b.body); err != nil {
			return err
		}
		r.ack(b)
		return nil
	case clsTopK:
		_, err := r.cl.get(ctx, sketchURL(base, mainSketch, "/topk?k="+strconv.Itoa(in.topK[t.idx%len(in.topK)])))
		return err
	case clsSum:
		_, err := r.cl.get(ctx, sketchURL(base, mainSketch, "/sum?"+in.sums[t.idx%len(in.sums)].query))
		return err
	case clsQuery:
		_, err := r.cl.post(ctx, sketchURL(base, mainSketch, "/query"), "application/json", in.queries[t.idx%len(in.queries)])
		return err
	case clsRange:
		_, err := r.cl.get(ctx, sketchURL(base, rollupSketch, "/range/sum?"+in.ranges[t.idx%len(in.ranges)].query()))
		return err
	}
	return fmt.Errorf("unknown class %d", t.class)
}

// ack credits an acknowledged main-sketch batch to the exact counts.
func (r *run) ack(b batch) {
	r.ackedMain.Add(int64(b.rows))
	for p, h := range b.hits {
		r.ackedHits[p].Add(h)
	}
}

// setup launches the nodes, creates both sketches and loads the prefill,
// returning the elapsed time from the first launch to ready-with-data.
func (r *run) setup(ctx context.Context) (time.Duration, error) {
	for i := range r.ackedHits {
		r.ackedHits[i].Store(0)
	}
	r.ackedMain.Store(0)
	r.ackedRollup.Store(0)
	if err := os.RemoveAll(r.dir); err != nil {
		return 0, err
	}
	start := time.Now()
	c, err := launch(ctx, r.opt.ussd, r.dir, r.sp.nodes, r.sp.clustered, r.sp.durable, r.cl.hc)
	if err != nil {
		return 0, err
	}
	r.c = c
	base := c.nodes[0].url
	creates := []string{
		fmt.Sprintf(`{"name":%q,"kind":"sharded","shards":%d,"bins":%d,"seed":%d}`, mainSketch, r.sp.shards, r.sp.bins, r.opt.seed),
		fmt.Sprintf(`{"name":%q,"kind":"rollup","bins":%d,"window_length":%d,"seed":%d}`, rollupSketch, r.sp.rollupBins, rollupWindowLen, r.opt.seed),
	}
	for _, body := range creates {
		if _, err := r.cl.post(ctx, base+"/v1/sketches", "application/json", []byte(body)); err != nil {
			return 0, fmt.Errorf("create: %w", err)
		}
	}
	for i, b := range r.in.prefill {
		if _, err := r.cl.post(ctx, sketchURL(r.target(i), mainSketch, "/ingest?sync=1"), "text/plain", b.body); err != nil {
			return 0, fmt.Errorf("prefill: %w", err)
		}
		r.ack(b)
	}
	for i, b := range r.in.prefillRollup {
		if _, err := r.cl.post(ctx, sketchURL(r.target(i), rollupSketch, "/ingest?sync=1"), "text/plain", b.body); err != nil {
			return 0, fmt.Errorf("prefill rollup: %w", err)
		}
		r.ackedRollup.Add(int64(b.rows))
	}
	return time.Since(start), nil
}

// sketchInfo is the subset of a sketch's info answer the checks read.
type sketchInfo struct {
	Rows  int64   `json:"rows"`
	Total float64 `json:"total"`
}

// drain waits until both sketches show every acknowledged row — the
// barrier after which ingested rows count as applied and visible.
func (r *run) drain(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	base := r.c.nodes[0].url
	for _, sk := range []struct {
		name  string
		acked *atomic.Int64
	}{{mainSketch, &r.ackedMain}, {rollupSketch, &r.ackedRollup}} {
		for {
			var info sketchInfo
			if err := r.cl.getJSON(ctx, sketchURL(base, sk.name, ""), &info); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if info.Rows >= sk.acked.Load() {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("drain: %s shows %d of %d acked rows: %w", sk.name, info.Rows, sk.acked.Load(), ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// check records one output check.
func (r *run) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.checkFailures++
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// verify runs the output checks after the measured phases: mass
// conservation on both sketches, every checked subset sum within four
// standard errors of the exact count, and on a cluster a bit-identical
// top-k from every node.
func (r *run) verify(ctx context.Context) {
	base := r.c.nodes[0].url
	for _, sk := range []struct {
		name  string
		acked int64
	}{{mainSketch, r.ackedMain.Load()}, {rollupSketch, r.ackedRollup.Load()}} {
		var info sketchInfo
		err := r.cl.getJSON(ctx, sketchURL(base, sk.name, ""), &info)
		r.check(err == nil && info.Rows == sk.acked && info.Total == float64(sk.acked),
			"%s: rows %d total %v, want %d acked (err %v)", sk.name, info.Rows, info.Total, sk.acked, err)
	}
	for p, pred := range r.in.checks {
		var est struct {
			Value  float64 `json:"value"`
			StdErr float64 `json:"std_err"`
		}
		exact := float64(r.ackedHits[p].Load())
		err := r.cl.getJSON(ctx, sketchURL(base, mainSketch, "/sum?"+pred.query), &est)
		r.check(err == nil && math.Abs(est.Value-exact) <= 4*est.StdErr,
			"sum?%s = %v ± %v, exact %v (err %v)", pred.query, est.Value, est.StdErr, exact, err)
	}
	if r.sp.clustered {
		var want []byte
		for i, n := range r.c.nodes {
			var resp struct {
				Items json.RawMessage `json:"items"`
			}
			err := r.cl.getJSON(ctx, sketchURL(n.url, mainSketch, "/topk?k=50"), &resp)
			if i == 0 {
				want = resp.Items
			}
			r.check(err == nil && len(resp.Items) > 2 && string(resp.Items) == string(want),
				"node %s top-k differs from node %s (err %v)", n.url, r.c.nodes[0].url, err)
		}
	}
}

// readPhaseTasks lays out the post-window reads: sp.readPhase of each
// read class without an open-loop rate, interleaved.
func readPhaseTasks(sp *spec) []task {
	var tasks []task
	for i := 0; i < sp.readPhase; i++ {
		for c := clsTopK; c < numClasses; c++ {
			if sp.rates[c] == 0 {
				tasks = append(tasks, task{class: c, idx: i, bucket: i * subWindows / sp.readPhase})
			}
		}
	}
	return tasks
}

// feed hands out tasks to a closed loop's workers in order.
func feed(tasks []task) func() (task, bool) {
	var next atomic.Int64
	return func() (task, bool) {
		i := int(next.Add(1)) - 1
		if i >= len(tasks) {
			return task{}, false
		}
		return tasks[i], true
	}
}

// window is what the measured phases produced.
type window struct {
	res      *loopResult // window and read phase, merged
	warm     *loopResult // the discarded warm-up: its failures still count
	ingestS  float64     // window start until the drain completed
	ingested int64       // rows acknowledged in the window
	cpuUs    int64       // server CPU over the measured phases
	sent     int64       // client requests over the measured phases
}

// warmupSeconds of the workload's own load run before the timed window
// and are not measured: on a virtual machine that was idle, the first
// seconds of load run markedly slower.
const warmupSeconds = 3

// ingestLoop runs the workload's window load for seconds: a closed
// ingest loop when the workload has no ingest rate, else its open-loop
// schedule.
func (r *run) ingestLoop(ctx context.Context, seconds int) *loopResult {
	dur := time.Duration(seconds) * time.Second
	if r.sp.rates[clsIngest] == 0 {
		start := time.Now()
		var idx atomic.Int64
		return closedLoop(ctx, r.conn, numClasses, func() (task, bool) {
			el := time.Since(start)
			if el >= dur {
				return task{}, false
			}
			return task{class: clsIngest, idx: int(idx.Add(1)) - 1, bucket: int(el * subWindows / dur)}, true
		}, r.exec)
	}
	return openLoop(ctx, schedule(float64(seconds), r.sp.rates[:]), r.conn, numClasses, r.exec)
}

// measure runs the warm-up, then the timed window, the drain barrier and
// the read phase.
func (r *run) measure(ctx context.Context) (*window, error) {
	w := &window{warm: r.ingestLoop(ctx, warmupSeconds)}
	rows0 := r.ackedMain.Load() + r.ackedRollup.Load()
	cpu0, err := r.c.cpuMicros()
	if err != nil {
		return nil, err
	}
	sent0 := r.cl.sent.Load()
	start := time.Now()
	w.res = r.ingestLoop(ctx, r.opt.seconds)
	if err := r.drain(ctx); err != nil {
		return nil, err
	}
	w.ingestS = time.Since(start).Seconds()
	w.ingested = r.ackedMain.Load() + r.ackedRollup.Load() - rows0
	if r.sp.readPhase > 0 {
		w.res.merge(closedLoop(ctx, 1, numClasses, feed(readPhaseTasks(r.sp)), r.exec))
	}
	cpu1, err := r.c.cpuMicros()
	if err != nil {
		return nil, err
	}
	w.cpuUs = cpu1 - cpu0
	w.sent = r.cl.sent.Load() - sent0
	return w, nil
}

// workDir returns the run's scratch directory under the work root.
func workDir(root string, sp *spec, seed int64) string {
	return filepath.Join(root, fmt.Sprintf("%s-seed%d-pid%d", sp.name, seed, os.Getpid()))
}
