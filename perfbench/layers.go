package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	uss "repro"
	"repro/internal/hashx"
	"repro/internal/server"
	"repro/internal/store"
)

// Replay sizes: how many operations of each kind the traced run replays
// in-process. Enough for steady medians, small enough that the replay
// takes a few seconds.
const (
	replayIngest = 200
	replayReads  = 300
	writeRows    = 20 // rows of the write that precedes each after-write read
)

// traced is the per-layer half of a traced run: /metrics scrapes around
// the measured phases, a queue-depth sampler during them, and the spans
// of the in-process replay that follows.
type traced struct {
	r              *run
	before, after  []promText
	stop           chan struct{}
	wg             sync.WaitGroup
	queueMax       atomic.Int64
	samplerScrapes atomic.Int64
	t              *tracer
}

// beginTrace scrapes every node and starts sampling the ingest queue.
func (r *run) beginTrace(ctx context.Context) (*traced, error) {
	t := &traced{r: r, stop: make(chan struct{}), t: newTracer()}
	var err error
	if t.before, err = r.scrapeAll(ctx); err != nil {
		return nil, err
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			for _, n := range r.c.nodes {
				p, err := r.cl.scrape(ctx, n.url)
				if err != nil {
					continue
				}
				t.samplerScrapes.Add(1)
				storeMax(&t.queueMax, int64(p["ussd_ingest_queue_depth"]))
			}
		}
	}()
	return t, nil
}

// finish stops the sampler and takes the closing scrapes.
func (t *traced) finish(ctx context.Context) error {
	close(t.stop)
	t.wg.Wait()
	var err error
	t.after, err = t.r.scrapeAll(ctx)
	return err
}

func (r *run) scrapeAll(ctx context.Context) ([]promText, error) {
	out := make([]promText, len(r.c.nodes))
	for i, n := range r.c.nodes {
		p, err := r.cl.scrape(ctx, n.url)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// delta sums a counter's increase over the measured phases across nodes.
func (t *traced) delta(series string) float64 {
	var d float64
	for i := range t.after {
		d += t.after[i][series] - t.before[i][series]
	}
	return d
}

// histDelta sums a histogram's interval observations across nodes.
func (t *traced) histDelta(name, labels string) hist {
	var h hist
	for i := range t.after {
		h = h.plus(t.after[i].hist(name, labels).minus(t.before[i].hist(name, labels)))
	}
	return h
}

// layerMetrics derives the per-layer metrics: server-side ones from the
// /metrics deltas, the rest from the in-process replay's spans, and the
// residual of each class from both.
func (t *traced) layerMetrics(ctx context.Context, w *window) (map[string]metric, error) {
	r := t.r
	ms := map[string]metric{}
	us := func(name, span string) { ms[name] = metric{median(durations(t.t.spans, span, false)) / 1e3, "us"} }

	ms["server.queue_depth_max"] = metric{float64(t.queueMax.Load()), "count"}
	for _, class := range []string{"ingest", "query", "range"} {
		h := t.histDelta("ussd_request_duration_seconds", `class="`+class+`"`)
		ms["server.request_p50_ms."+class] = metric{h.quantile(0.5) * 1e3, "ms"}
	}
	rows := t.delta("ussd_rows_ingested_total")
	fsyncs := t.delta("ussd_wal_fsyncs_total")
	ms["store.fsyncs_per_krow"] = metric{ratio(fsyncs, rows/1000), "count"}
	ms["store.records_per_fsync"] = metric{t.histDelta("ussd_wal_group_commit_records", "").mean(), "count"}
	ms["store.wal_bytes_per_row"] = metric{ratio(t.delta("ussd_wal_bytes_total"), rows), "B/row"}
	var served float64
	for _, cls := range []string{"2xx", "4xx", "5xx"} {
		served += t.delta(`ussd_http_requests_total{class="` + cls + `"}`)
	}
	// The opening scrape and the sampler's scrapes are counted by the
	// servers but are not load.
	served -= float64(len(r.c.nodes)) + float64(t.samplerScrapes.Load())
	ms["cluster.peer_requests_per_op"] = metric{ratio(served, float64(w.sent)), "ratio"}
	ms["loadgen.lag_p99_ms"] = metric{percentile(sortedCopy(w.res.lag), 0.99).Value, "ms"}
	if r.sp.clustered {
		ms["cluster.gather_fanin_p50_ms"] = metric{t.histDelta("ussd_gather_fanin_duration_seconds", "").quantile(0.5) * 1e3, "ms"}
	}

	if err := t.replay(ctx); err != nil {
		return nil, err
	}
	spans := t.t.spans
	ms["server.decode_ns_per_row"] = metric{median(durations(spans, "server.decode", true)), "ns/row"}
	ms["core.update_ns_per_row"] = metric{median(durations(spans, "core.update", true)), "ns/row"}
	us("core.snapshot_refill_us", "core.snapshot_refill")
	us("core.topk_cached_us", "core.topk")
	us("core.subset_sum_us", "core.subset_sum")
	us("core.merge_bins_us", "core.merge_bins")
	us("query.run_after_write_us", "query.run_after_write")
	us("query.run_cached_us", "query.run")
	us("rollup.range_sum_us", "rollup.range_sum")
	us("rollup.range_sum_live_us", "rollup.range_sum_live")
	us("wire.encode_us", "wire.encode")
	us("wire.decode_bins_us", "wire.decode_bins")
	us("store.append_us_per_batch", "store.append")
	us("cluster.owner_fetch_us", "cluster.owner_fetch")
	ms["store.fsync_ms"] = metric{median(durations(spans, "store.fsync", false)) / 1e6, "ms"}
	if !r.sp.clustered {
		ms["cluster.gather_fanin_p50_ms"] = metric{median(durations(spans, "cluster.gather", false)) / 1e6, "ms"}
	}
	for c := 0; c < numClasses; c++ {
		client := percentile(sortedCopy(w.res.lat[c]), 0.5).Value
		layers := median(layerTimePerOp(spans, "op."+classNames[c]))
		ms["server.residual_share."+classNames[c]] = metric{residualShare(layers, client), "share"}
	}

	path, err := scratch(r.opt, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.sp.name, r.opt.seed))
	if err != nil {
		return nil, err
	}
	if err := t.t.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return ms, nil
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay drives the workload's own inputs through each layer's public
// entry points in this process, one span per call. Root spans named
// op.<class> enclose the layer calls one client operation of that class
// makes, for the residual.
func (t *traced) replay(ctx context.Context) error {
	r, tr, in, sp := t.r, t.t, t.r.in, t.r.sp
	sk := uss.NewSharded(sp.shards, sp.bins, uss.WithSeed(r.opt.seed))
	for _, b := range in.prefill {
		rows, err := server.ParseIngestBody(server.KindSharded, "text/plain", b.body)
		if err != nil {
			return err
		}
		sk.UpdateBatch(rows.Items)
	}

	// Ingest: decode and, on durable-ingest, log — what a batch passes
	// through before its ack — then apply. The store is opened without
	// fsync on append so the append and the fsync are timed apart;
	// durable-ingest pays both per batch before acking, as its server does
	// under the default policy.
	storeDir, err := scratch(r.opt, "replay-store", filepath.Base(r.dir))
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	st, err := store.Open(store.Options{Dir: storeDir, Sync: store.SyncNever})
	if err != nil {
		return err
	}
	defer st.Close()
	var ferr error
	logBatch := func(parent int, items []string) {
		tr.call(parent, "store.append", len(items), func() {
			if _, err := st.AppendIngest(mainSketch, items, nil, nil); err != nil && ferr == nil {
				ferr = err
			}
		})
		tr.call(parent, "store.fsync", 0, func() {
			if err := st.Sync(); err != nil && ferr == nil {
				ferr = err
			}
		})
	}
	for i := 0; i < replayIngest; i++ {
		b := in.ingest[i%len(in.ingest)]
		root := tr.begin(0, "op.ingest")
		var rows server.IngestRows
		tr.call(root, "server.decode", b.rows, func() {
			rows, err = server.ParseIngestBody(server.KindSharded, "text/plain", b.body)
		})
		if err != nil {
			return err
		}
		if sp.durable {
			logBatch(root, rows.Items)
		}
		tr.end(root, b.rows)
		if !sp.durable {
			logBatch(tr.begin(0, "replay.store"), rows.Items)
		}
		// Ingest is acknowledged once queued; the apply runs after the ack.
		tr.call(tr.begin(0, "replay.apply"), "core.update", b.rows, func() { sk.UpdateBatch(rows.Items) })
	}
	if ferr != nil {
		return ferr
	}

	// Reads against the replayed sketch, each cached and after a write.
	write := sk.TopK(writeRows)
	writeItems := make([]string, 0, len(write))
	for _, b := range write {
		writeItems = append(writeItems, b.Item)
	}
	specs, err := querySpecs(in.queries)
	if err != nil {
		return err
	}
	eng := sk.QueryEngine()
	prepared := make([]*uss.PreparedQuery, len(specs))
	for i, s := range specs {
		prepared[i] = eng.Prepare(s)
	}
	var gather func(root int) (*uss.WeightedSketch, error)
	if sp.clustered {
		if gather, err = t.clusterGather(ctx); err != nil {
			return err
		}
	}
	var qerr error
	runQuery := func(parent int, name string, p *uss.PreparedQuery) {
		tr.call(parent, name, 0, func() {
			if _, _, err := p.Run(); err != nil && qerr == nil {
				qerr = err
			}
		})
	}
	for i := 0; i < replayReads; i++ {
		k := in.topK[i%len(in.topK)]
		p := prepared[i%len(prepared)]
		pred := in.sums[i%len(in.sums)].match
		tr.call(tr.begin(0, "replay.write"), "core.write", len(writeItems), func() { sk.UpdateBatch(writeItems) })
		tr.call(tr.begin(0, "op.topk.after_write"), "core.snapshot_refill", 0, func() { sk.TopK(k) })
		runQuery(tr.begin(0, "op.query.after_write"), "query.run_after_write", p)
		if gather == nil {
			tr.call(tr.begin(0, "op.topk"), "core.topk", 0, func() { sk.TopK(k) })
			runQuery(tr.begin(0, "op.query"), "query.run", p)
			tr.call(tr.begin(0, "op.sum"), "core.subset_sum", 0, func() { sk.SubsetSum(pred) })
			continue
		}
		// A cluster read gathers the owner partials, merges them into a
		// weighted sketch and evaluates there, as the proxy does.
		tr.call(tr.begin(0, "replay.cached"), "core.topk", 0, func() { sk.TopK(k) })
		runQuery(tr.begin(0, "replay.cached"), "query.run", p)
		tr.call(tr.begin(0, "replay.cached"), "core.subset_sum", 0, func() { sk.SubsetSum(pred) })
		for c := clsTopK; c <= clsQuery; c++ {
			root := tr.begin(0, "op."+classNames[c])
			ws, err := gather(root)
			if err != nil {
				return err
			}
			switch c {
			case clsTopK:
				tr.call(root, "core.topk_merged", 0, func() { ws.TopK(k) })
			case clsSum:
				tr.call(root, "core.subset_sum_merged", 0, func() { ws.SubsetSum(pred) })
			case clsQuery:
				runQuery(root, "query.run_merged", ws.QueryEngine().Prepare(specs[i%len(specs)]))
			}
		}
	}
	if qerr != nil {
		return qerr
	}
	closeRoots(tr)

	if err := t.replayRollup(); err != nil {
		return err
	}
	if err := t.replayWire(ctx, sk); err != nil {
		return err
	}
	closeRoots(tr)
	return nil
}

// querySpecs decodes the workload's /query bodies.
func querySpecs(bodies [][]byte) ([]uss.QuerySpec, error) {
	specs := make([]uss.QuerySpec, len(bodies))
	for i, q := range bodies {
		var req struct {
			Where []struct {
				Dim string   `json:"dim"`
				In  []string `json:"in"`
			} `json:"where"`
			GroupBy []string `json:"group_by"`
		}
		if err := json.Unmarshal(q, &req); err != nil {
			return nil, err
		}
		specs[i].GroupBy = req.GroupBy
		for _, f := range req.Where {
			specs[i].Where = append(specs[i].Where, uss.QueryFilter{Dim: f.Dim, In: f.In})
		}
	}
	return specs, nil
}

// ownerURLs returns the state URLs of the main sketch's two owners on a
// cluster: the nodes holding the largest local partials.
func (t *traced) ownerURLs(ctx context.Context) ([]string, error) {
	type held struct {
		url  string
		rows int64
	}
	var hs []held
	for _, n := range t.r.c.nodes {
		var info sketchInfo
		if err := t.r.cl.getJSON(ctx, n.url+"/v1/cluster/sketches/"+mainSketch, &info); err != nil {
			return nil, err
		}
		hs = append(hs, held{n.url + "/v1/cluster/state/" + mainSketch + "?format=bins", info.Rows})
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].rows > hs[j].rows })
	if len(hs) < 2 || hs[1].rows == 0 {
		return nil, fmt.Errorf("expected two owners holding rows of %s", mainSketch)
	}
	return []string{hs[0].url, hs[1].url}, nil
}

// clusterGather returns a function that replays one cluster read's
// gather under root: fetch the first owner's partial over HTTP, decode
// it, merge it with the second owner's (fetched once up front, standing
// in for the gathering node's local partial) and materialize the merged
// weighted sketch.
func (t *traced) clusterGather(ctx context.Context) (func(root int) (*uss.WeightedSketch, error), error) {
	owners, err := t.ownerURLs(ctx)
	if err != nil {
		return nil, err
	}
	body, err := t.r.cl.get(ctx, owners[1])
	if err != nil {
		return nil, err
	}
	local, err := uss.DecodeBins(body)
	if err != nil {
		return nil, err
	}
	tr := t.t
	return func(root int) (*uss.WeightedSketch, error) {
		var body []byte
		var remote, merged []uss.Bin
		var err error
		tr.call(root, "cluster.owner_fetch", 0, func() { body, err = t.r.cl.get(ctx, owners[0]) })
		if err != nil {
			return nil, err
		}
		tr.call(root, "wire.decode_bins", 0, func() { remote, err = uss.DecodeBins(body) })
		if err != nil {
			return nil, err
		}
		m := len(remote) + len(local)
		tr.call(root, "core.merge_bins", m, func() { merged = uss.MergeBinsParallel(m, uss.Pairwise, remote, local) })
		var ws *uss.WeightedSketch
		tr.call(root, "core.materialize", len(merged), func() { ws, err = uss.NewWeightedFromBins(max(len(merged), 1), merged) })
		return ws, err
	}, nil
}

// closeRoots ends every still-open root span at its last child's end,
// so root spans opened inline around a single call get an extent.
func closeRoots(tr *tracer) {
	last := make(map[int]int64)
	for _, s := range tr.spans {
		if s.Parent != 0 && s.End > last[s.Parent] {
			last[s.Parent] = s.End
		}
	}
	for i := range tr.spans {
		if s := &tr.spans[i]; s.End == 0 {
			s.End = last[s.ID]
		}
	}
}

// replayRollup rebuilds the workload's rollup and times range sums,
// quiescent (memoized) and right after a write to the live window.
func (t *traced) replayRollup() error {
	r, tr, in := t.r, t.t, t.r.in
	ro, err := uss.NewRollup(uss.RollupConfig{Bins: r.sp.rollupBins, WindowLength: rollupWindowLen, Seed: r.opt.seed})
	if err != nil {
		return err
	}
	for _, b := range in.prefillRollup {
		rows, err := server.ParseIngestBody(server.KindRollup, "text/plain", b.body)
		if err != nil {
			return err
		}
		for i, it := range rows.Items {
			ro.Update(it, rows.Ats[i])
		}
	}
	live := liveWindow(0)
	for i := 0; i < replayReads; i++ {
		rs := in.ranges[i%len(in.ranges)]
		tr.call(tr.begin(0, "op.range"), "rollup.range_sum", 0, func() { ro.SubsetSumRange(rs.from, rs.to, rs.pred.match) })
		tr.call(tr.begin(0, "replay.write"), "rollup.update", 1, func() { ro.Update("0=0|3=0|6=0", live) })
		tr.call(tr.begin(0, "op.range.after_write"), "rollup.range_sum_live", 0, func() { ro.SubsetSumRange(rs.from, rs.to, rs.pred.match) })
	}
	return nil
}

// replayWire times the snapshot wire path — encode, decode, merge of
// owner partials — and fetching a node's partial over HTTP. On a cluster
// the fetch is one owner's /v1/cluster/state?format=bins; on a single
// node it is the sketch's /snapshot pull, and two concurrent pulls stand
// in for the gather fan-in.
func (t *traced) replayWire(ctx context.Context, sk *uss.ShardedSketch) error {
	r, tr := t.r, t.t
	snap := sk.Snapshot(0)
	var blob []byte
	var err error
	halves := [2]*uss.ShardedSketch{
		uss.NewSharded(r.sp.shards, r.sp.bins, uss.WithSeed(r.opt.seed)),
		uss.NewSharded(r.sp.shards, r.sp.bins, uss.WithSeed(r.opt.seed+1)),
	}
	for _, b := range snap.Bins() {
		// Partition like the cluster does: by item hash over the owners.
		h := halves[hashx.Sum64a(b.Item)%2]
		for c := 0; c < int(b.Count); c++ {
			h.Update(b.Item)
		}
	}
	partials := [][]uss.Bin{halves[0].Snapshot(0).Bins(), halves[1].Snapshot(0).Bins()}
	m := len(partials[0]) + len(partials[1])

	fetchURL := sketchURL(r.c.nodes[0].url, mainSketch, "/snapshot")
	if r.sp.clustered {
		owners, err := t.ownerURLs(ctx)
		if err != nil {
			return err
		}
		fetchURL = owners[0]
	}
	var fetched []uss.Bin
	for i := 0; i < replayReads; i++ {
		tr.call(tr.begin(0, "replay.wire"), "wire.encode", 0, func() { blob, err = snap.AppendBinary(blob[:0]) })
		if err != nil {
			return err
		}
		tr.call(tr.begin(0, "replay.wire"), "wire.decode_bins", 0, func() { _, err = uss.DecodeBins(blob) })
		if err != nil {
			return err
		}
		tr.call(tr.begin(0, "replay.merge"), "core.merge_bins", m, func() { uss.MergeBinsParallel(m, uss.Pairwise, partials...) })

		root := tr.begin(0, "replay.fetch")
		var body []byte
		tr.call(root, "cluster.owner_fetch", 0, func() { body, err = r.cl.get(ctx, fetchURL) })
		if err != nil {
			return err
		}
		tr.call(root, "wire.decode_bins", 0, func() { fetched, err = uss.DecodeBins(body) })
		if err != nil {
			return err
		}
		if !r.sp.clustered {
			if err := t.pullPair(ctx, fetchURL); err != nil {
				return err
			}
		}
	}
	if len(fetched) == 0 {
		return fmt.Errorf("fetched partial from %s is empty", fetchURL)
	}
	return nil
}

// pullPair times two concurrent pulls of the same partial: the fan-in
// of a two-owner gather against one node.
func (t *traced) pullPair(ctx context.Context, url string) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t.t.call(t.t.begin(0, "replay.gather"), "cluster.gather", 0, func() {
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = t.r.cl.get(ctx, url)
			}(i)
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
