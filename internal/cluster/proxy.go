package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	uss "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// Public proxy handlers: the single-node sketch API re-served with
// cluster semantics. Writes fan to owners and range reads scatter; point
// reads are the node's own handlers over the gathered sketch (gatherRead).

// binDTO mirrors the single-node (item, count) response pair.
type binDTO struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}

func toBinDTOs(bins []uss.Bin) []binDTO {
	out := make([]binDTO, len(bins))
	for i, b := range bins {
		out[i] = binDTO{Item: b.Item, Count: b.Count}
	}
	return out
}

// estimateDTO mirrors the single-node estimate response.
type estimateDTO struct {
	Value      float64    `json:"value"`
	StdErr     float64    `json:"std_err"`
	SampleBins int        `json:"sample_bins"`
	CI95       [2]float64 `json:"ci95"`
}

func toEstimateDTO(e uss.Estimate) estimateDTO {
	lo, hi := e.ConfidenceInterval(0.95)
	return estimateDTO{Value: e.Value, StdErr: e.StdErr, SampleBins: e.SampleBins, CI95: [2]float64{lo, hi}}
}

// traceOf extracts the request's span context for attachment to queued
// fan tasks (zero when tracing found no edge span).
func traceOf(r *http.Request) obs.SpanContext {
	sc, _ := obs.FromContext(r.Context())
	return sc
}

// readBody slurps a request body under the configured cap.
func (a *Agent) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, a.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return nil, false
	}
	return body, true
}

// handleCreate creates the sketch on every node: locally first (the
// authoritative answer — 409 for a duplicate, 400 for a bad config),
// then broadcast to the peers. A peer that is down simply misses the
// create; anti-entropy's manifest convergence installs it on rejoin, so
// the response only marks the miss as degraded.
func (a *Agent) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := a.readBody(w, r)
	if !ok {
		return
	}
	var cfg server.SketchConfig
	if err := json.Unmarshal(body, &cfg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode config: %w", err))
		return
	}
	if err := a.srv.CreateSketch(cfg); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, server.ErrExists) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	peers, degraded := a.broadcastOthers(r.Context(), http.MethodPost, "/v1/cluster/sketches", "", "application/json", body, http.StatusCreated, http.StatusConflict)
	server.WriteJSON(w, http.StatusCreated, map[string]any{
		"name": cfg.Name, "owners": a.owners(cfg.Name), "peers": peers, "degraded": degraded,
	})
}

// handleDelete drops the sketch cluster-wide: locally, then broadcast.
// Copies of the deleted sketch on nodes that missed the broadcast are
// garbage-collected by anti-entropy.
func (a *Agent) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	existed, err := a.srv.DeleteSketch(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound))
		return
	}
	a.dropCopies(name)
	a.dropGather(name)
	a.broadcastOthers(r.Context(), http.MethodDelete, "/v1/cluster/sketches/"+name, "", "", nil, http.StatusNoContent, http.StatusNotFound)
	w.WriteHeader(http.StatusNoContent)
}

// dropCopies forgets this node's copies of name.
func (a *Agent) dropCopies(name string) {
	a.copyMu.Lock()
	for k := range a.copies {
		if k.name == name {
			delete(a.copies, k)
		}
	}
	a.copyMu.Unlock()
}

// broadcastOthers sends one request to every peer but self and folds
// the results into a per-peer status map; statuses outside okStatuses
// and transport failures mark the broadcast degraded.
func (a *Agent) broadcastOthers(ctx context.Context, method, path, rawQuery, ctype string, body []byte, okStatuses ...int) (map[string]string, bool) {
	trace, _ := obs.FromContext(ctx)
	peers := make(map[string]string, len(a.cfg.Peers))
	degraded := false
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range a.cfg.Peers {
		if p == a.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			t := &fanTask{method: method, path: path, rawQuery: rawQuery, ctype: ctype, body: body, trace: trace}
			status, err := a.send(p, t)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				peers[p] = err.Error()
				degraded = true
				a.markDown(p)
				return
			}
			a.markUp(p)
			peers[p] = strconv.Itoa(status)
			ok := false
			for _, s := range okStatuses {
				if status == s {
					ok = true
				}
			}
			if !ok {
				degraded = true
			}
		}(p)
	}
	wg.Wait()
	return peers, degraded
}

// handleIngest fans an ingest batch to the sketch's owner set: the body
// is parsed once, partitioned by item hash so each item's whole
// substream lands on one owner, and each partition is queued to its
// owner with retries and next-owner failover. ?sync=1 waits for every
// partition to be applied (200); the default acknowledges the fan
// (202). A partition that fails on every owner fails the request — the
// rows were never acknowledged.
func (a *Agent) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cfg, ok := a.srv.SketchConfigOf(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound))
		return
	}
	body, ok := a.readBody(w, r)
	if !ok {
		return
	}
	rows, err := server.ParseIngestBody(cfg.Kind, r.Header.Get("Content-Type"), body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	n := len(rows.Items)
	if n == 0 {
		server.WriteJSON(w, http.StatusOK, map[string]any{"rows": 0})
		return
	}
	owners := a.owners(name)
	parts := partitionRows(rows, len(owners))
	sync := r.URL.Query().Get("sync") != ""
	rawQuery := ""
	if sync {
		rawQuery = "sync=1"
	}
	var tasks []*fanTask
	for idx, part := range parts {
		if len(part.Items) == 0 {
			continue
		}
		pbody, perr := renderRows(cfg.Kind, part)
		if perr != nil {
			writeError(w, http.StatusInternalServerError, perr)
			return
		}
		t := &fanTask{
			owners: owners, idx: idx, tried: 1,
			method: http.MethodPost, path: "/v1/cluster/sketches/" + name + "/ingest",
			rawQuery: rawQuery, ctype: "application/json", body: pbody,
			trace: traceOf(r), done: make(chan fanResult, 1),
		}
		if !a.fanOut(t) {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("ingest fan queues full"))
			return
		}
		tasks = append(tasks, t)
	}
	if !sync {
		server.WriteJSON(w, http.StatusAccepted, map[string]any{"rows": n, "queued": true, "fanned": len(tasks)})
		return
	}
	peers := make(map[string]string, len(tasks))
	failed := false
	for _, t := range tasks {
		select {
		case res := <-t.done:
			if res.err != nil {
				peers[res.peer] = res.err.Error()
				failed = true
			} else if res.status >= 300 {
				peers[res.peer] = strconv.Itoa(res.status)
				failed = true
			} else {
				peers[res.peer] = "ok"
			}
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("request context done before fan completed (%w)", r.Context().Err()))
			return
		}
	}
	if failed {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "ingest fan failed on some partitions", "peers": peers,
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"rows": n, "fanned": len(tasks), "peers": peers})
}

// partitionRows splits a parsed batch into n per-owner column sets by
// item hash.
func partitionRows(rows server.IngestRows, n int) []server.IngestRows {
	parts := make([]server.IngestRows, n)
	for i, item := range rows.Items {
		p := &parts[partitionIdx(item, n)]
		p.Items = append(p.Items, item)
		if len(rows.Weights) > 0 {
			p.Weights = append(p.Weights, rows.Weights[i])
		}
		if len(rows.Ats) > 0 {
			p.Ats = append(p.Ats, rows.Ats[i])
		}
	}
	return parts
}

// renderRows re-encodes one partition as a JSON ingest body.
func renderRows(kind server.Kind, part server.IngestRows) ([]byte, error) {
	switch kind {
	case server.KindUnit, server.KindSharded:
		return json.Marshal(map[string]any{"items": part.Items})
	case server.KindWeighted:
		rows := make([]map[string]any, len(part.Items))
		for i, it := range part.Items {
			w := 1.0
			if i < len(part.Weights) {
				w = part.Weights[i]
			}
			rows[i] = map[string]any{"item": it, "weight": w}
		}
		return json.Marshal(map[string]any{"rows": rows})
	case server.KindRollup:
		rows := make([]map[string]any, len(part.Items))
		for i, it := range part.Items {
			var at int64
			if i < len(part.Ats) {
				at = part.Ats[i]
			}
			rows[i] = map[string]any{"item": it, "at": at}
		}
		return json.Marshal(map[string]any{"rows": rows})
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// handlePushFan fans a pushed wire snapshot: decode once, partition the
// bins by item hash, re-encode each slice and deliver it to its owner
// like an ingest partition. Pushes are synchronous, as on a single
// node.
func (a *Agent) handlePushFan(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cfg, ok := a.srv.SketchConfigOf(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound))
		return
	}
	if cfg.Kind != server.KindWeighted {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is %s; snapshots push into weighted sketches", name, cfg.Kind))
		return
	}
	body, ok := a.readBody(w, r)
	if !ok {
		return
	}
	pushed, err := uss.DecodeBins(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rawQuery := ""
	if red := r.URL.Query().Get("reduction"); red != "" {
		rawQuery = "reduction=" + red
	}
	owners := a.owners(name)
	parts := make([][]uss.Bin, len(owners))
	for _, b := range pushed {
		idx := partitionIdx(b.Item, len(owners))
		parts[idx] = append(parts[idx], b)
	}
	var tasks []*fanTask
	for idx, part := range parts {
		if len(part) == 0 {
			continue
		}
		blob, eerr := uss.EncodeBins(len(part), part)
		if eerr != nil {
			writeError(w, http.StatusBadRequest, eerr)
			return
		}
		t := &fanTask{
			owners: owners, idx: idx, tried: 1,
			method: http.MethodPost, path: "/v1/cluster/sketches/" + name + "/snapshot",
			rawQuery: rawQuery, ctype: "application/octet-stream", body: blob,
			trace: traceOf(r), done: make(chan fanResult, 1),
		}
		if !a.fanOut(t) {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("snapshot fan queues full"))
			return
		}
		tasks = append(tasks, t)
	}
	for _, t := range tasks {
		select {
		case res := <-t.done:
			if res.err != nil || res.status >= 300 {
				writeError(w, http.StatusServiceUnavailable,
					fmt.Errorf("snapshot fan failed on %s: status %d err %v", res.peer, res.status, res.err))
				return
			}
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("request context done before fan completed (%w)", r.Context().Err()))
			return
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"merged_bins": len(pushed), "fanned": len(tasks)})
}

// handlePullGather serves the cluster-wide state of a sketch as one
// wire-v2 snapshot: gather the owner partials, merge exactly, encode.
// Degradation rides the X-Uss-Degraded header since the body is binary.
func (a *Agent) handlePullGather(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if cfg, ok := a.srv.SketchConfigOf(name); ok && cfg.Kind == server.KindRollup {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; pull a range with /range endpoints", name))
		return
	}
	g, code, err := a.gatherBins(r.Context(), name, nil)
	if err != nil {
		writeError(w, code, err)
		return
	}
	merged := g.merged()
	m := g.cfg.Bins
	if g.cfg.Kind == server.KindSharded {
		m = g.cfg.Shards * g.cfg.Bins
	}
	if m < len(merged) {
		m = len(merged)
	}
	if m < 1 {
		m = 1
	}
	blob, err := uss.EncodeBins(m, merged)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Header().Set("X-Uss-Degraded", strconv.FormatBool(g.degraded))
	_, _ = w.Write(blob)
}

// handleInfo aggregates a sketch's stats across its owner set by
// digest: rows, pushes and total are summed over the disjoint partials.
func (a *Agent) handleInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cfg, ok := a.srv.SketchConfigOf(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound))
		return
	}
	sums, reads, degraded := a.sumDigests(r, name)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"name": cfg.Name, "kind": cfg.Kind, "config": cfg,
		"rows": sums.Rows, "pushes": sums.Pushes, "total": sums.total,
		"degraded": degraded, "peers": reads,
	})
}

// digestSums accumulates owner-partial counters.
type digestSums struct {
	server.SketchStats
	total float64
}

// sumDigests folds name's digest across its owner set.
func (a *Agent) sumDigests(r *http.Request, name string) (digestSums, []peerRead, bool) {
	owners := a.owners(name)
	var sums digestSums
	reads := make([]peerRead, 0, len(owners))
	degraded := false
	for _, o := range owners {
		var dig nodeDigest
		var err error
		if o == a.cfg.Self {
			dig = a.localDigest()
		} else {
			dig, err = a.fetchDigest(r.Context(), o)
		}
		if err != nil {
			reads = append(reads, peerRead{Owner: o, Source: "miss", Error: err.Error()})
			degraded = true
			continue
		}
		src := "owner"
		if o == a.cfg.Self {
			src = "local"
		}
		reads = append(reads, peerRead{Owner: o, Source: src})
		for _, ds := range dig.Sketches {
			if ds.Config.Name == name {
				sums.Rows += ds.Stats.Rows
				sums.Pushes += ds.Stats.Pushes
				sums.Dropped += ds.Stats.Dropped
				sums.total += ds.Total
			}
		}
	}
	return sums, reads, degraded
}

// handleList merges every peer's digest into a cluster-wide sketch
// listing: per sketch, stats are summed over its owner partials only.
func (a *Agent) handleList(w http.ResponseWriter, r *http.Request) {
	type listEntry struct {
		Config server.SketchConfig `json:"config"`
		Rows   int64               `json:"rows"`
		Pushes int64               `json:"pushes"`
		Total  float64             `json:"total"`
		Owners []string            `json:"owners"`
	}
	entries := make(map[string]*listEntry)
	degraded := false
	for _, p := range a.cfg.Peers {
		var dig nodeDigest
		var err error
		if p == a.cfg.Self {
			dig = a.localDigest()
		} else {
			dig, err = a.fetchDigest(r.Context(), p)
		}
		if err != nil {
			degraded = true
			continue
		}
		for _, ds := range dig.Sketches {
			le := entries[ds.Config.Name]
			if le == nil {
				le = &listEntry{Config: ds.Config, Owners: a.owners(ds.Config.Name)}
				entries[ds.Config.Name] = le
			}
			if slices := le.Owners; contains(slices, p) {
				le.Rows += ds.Stats.Rows
				le.Pushes += ds.Stats.Pushes
				le.Total += ds.Total
			}
		}
	}
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*listEntry, len(names))
	for i, n := range names {
		out[i] = entries[n]
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"sketches": out, "degraded": degraded})
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// handleRange forwards a rollup range query to every owner and merges
// the JSON answers: top-k lists merge bin-wise and re-rank, sums add
// values with root-sum-square errors, totals add. A missed owner marks
// the response degraded; below read quorum the read fails 503.
func (a *Agent) handleRange(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cfg, ok := a.srv.SketchConfigOf(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound))
		return
	}
	if cfg.Kind != server.KindRollup {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is %s; /range endpoints need a rollup", name, cfg.Kind))
		return
	}
	op := r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:]
	owners := a.owners(name)
	type rangeRes struct {
		owner  string
		status int
		body   []byte
		err    error
	}
	results := make([]rangeRes, len(owners))
	var wg sync.WaitGroup
	for i, o := range owners {
		wg.Add(1)
		go func(i int, o string) {
			defer wg.Done()
			u := o + "/v1/cluster/sketches/" + name + "/range/" + op
			if r.URL.RawQuery != "" {
				u += "?" + r.URL.RawQuery
			}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
			if err != nil {
				results[i] = rangeRes{owner: o, err: err}
				return
			}
			resp, err := a.doPeer(o, req)
			if err != nil {
				results[i] = rangeRes{owner: o, err: err}
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, a.cfg.MaxBodyBytes))
			resp.Body.Close()
			results[i] = rangeRes{owner: o, status: resp.StatusCode, body: body}
		}(i, o)
	}
	wg.Wait()

	reads := make([]peerRead, len(owners))
	answered, missed := 0, 0
	var bodies [][]byte
	var notFound []byte
	for i, res := range results {
		pr := peerRead{Owner: res.owner, Source: "owner"}
		if res.owner == a.cfg.Self {
			pr.Source = "local"
		}
		switch {
		case res.err != nil:
			pr.Source, pr.Error = "miss", res.err.Error()
			missed++
		case res.status == http.StatusNotFound:
			// No retained window on this owner: a valid empty answer.
			answered++
			notFound = res.body
		case res.status >= 400 && res.status < 500:
			// A bad parameter is the caller's error, not a missed partial.
			writeRaw(w, res.status, res.body)
			return
		case res.status != http.StatusOK:
			pr.Source, pr.Error = "miss", fmt.Sprintf("status %d: %s", res.status, truncate(res.body, 120))
			missed++
		default:
			answered++
			bodies = append(bodies, res.body)
		}
		reads[i] = pr
	}
	if answered < a.cfg.ReadQuorum {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("read quorum not met for %q range/%s: %d of %d answered (need %d)",
				name, op, answered, len(owners), a.cfg.ReadQuorum))
		return
	}
	degraded := missed > 0
	if degraded {
		a.met.degraded.Add(1)
	}
	if len(bodies) == 0 && notFound != nil {
		// Every answering owner said 404: relay the single-node answer.
		writeRaw(w, http.StatusNotFound, notFound)
		return
	}
	out, err := mergeRange(op, r, bodies)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out["degraded"] = degraded
	if degraded {
		out["peers"] = reads
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// mergeRange folds per-owner range answers into the cluster answer.
func mergeRange(op string, r *http.Request, bodies [][]byte) (map[string]any, error) {
	switch op {
	case "topk":
		k := 10
		if v := r.URL.Query().Get("k"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				k = n
			}
		}
		var lists [][]uss.Bin
		m := 0
		for _, b := range bodies {
			var resp struct {
				Items []binDTO `json:"items"`
			}
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, err
			}
			bins := make([]uss.Bin, len(resp.Items))
			for i, it := range resp.Items {
				bins[i] = uss.Bin{Item: it.Item, Count: it.Count}
			}
			lists = append(lists, bins)
			m += len(bins)
		}
		if m < 1 {
			return map[string]any{"items": []binDTO{}}, nil
		}
		merged := uss.MergeBins(m, uss.Pairwise, lists...)
		sk, err := uss.NewWeightedFromBins(max(len(merged), 1), merged)
		if err != nil {
			return nil, err
		}
		return map[string]any{"items": toBinDTOs(sk.TopK(k))}, nil
	case "sum":
		var value, varSum float64
		sampleBins := 0
		for _, b := range bodies {
			var resp estimateDTO
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, err
			}
			value += resp.Value
			varSum += resp.StdErr * resp.StdErr
			sampleBins += resp.SampleBins
		}
		est := toEstimateDTO(uss.Estimate{Value: value, StdErr: math.Sqrt(varSum), SampleBins: sampleBins})
		return map[string]any{
			"value": est.Value, "std_err": est.StdErr, "sample_bins": est.SampleBins, "ci95": est.CI95,
		}, nil
	case "total":
		var total float64
		for _, b := range bodies {
			var resp struct {
				Total float64 `json:"total"`
			}
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, err
			}
			total += resp.Total
		}
		return map[string]any{"total": total}, nil
	}
	return nil, fmt.Errorf("unknown range op %q", op)
}
