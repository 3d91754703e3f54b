package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"time"

	uss "repro"
	"repro/internal/store"
)

// writeJSON serializes v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError reports a failure as {"error": ...}.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// statusFor maps a registry error to its status: ErrExists is a
// conflict, ErrNotFound a miss, anything else the caller's bad request.
// Every handler routes registry errors through this one table so the
// API's error contract cannot drift per endpoint (it briefly did:
// create used to answer 409 for validation errors).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// sketchInfo is the list/info response shape.
type sketchInfo struct {
	SketchConfig
	Capacity int     `json:"capacity"`
	Size     int     `json:"size"`
	Rows     int64   `json:"rows"`
	Total    float64 `json:"total"`
	Pushes   int64   `json:"pushes,omitempty"`
	Windows  int     `json:"windows,omitempty"`
	Dropped  int64   `json:"dropped_rows,omitempty"`
}

// info assembles the stats snapshot for one entry. A demoted entry
// answers from its preserved cold stats without reviving, so listing
// sketches (and anti-entropy digests, which build on info) never drags
// cold state back into memory.
func (e *entry) info() sketchInfo {
	out := sketchInfo{
		SketchConfig: e.cfg,
		Capacity:     e.capacity(),
		Rows:         e.rows.Load(),
		Pushes:       e.pushes.Load(),
		Dropped:      e.dropped.Load(),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cold.Load() {
		out.Size, out.Total = e.coldSize, e.coldTotal
		return out
	}
	switch e.cfg.Kind {
	case KindSharded:
		out.Size = e.sharded.Size()
		out.Total = e.sharded.Total()
	case KindUnit:
		out.Size = e.unit.Size()
		out.Total = e.unit.Total()
	case KindWeighted:
		out.Size = e.weighted.Size()
		out.Total = e.weighted.Total()
	case KindRollup:
		ws := e.rollup.Windows()
		out.Windows = len(ws)
		if len(ws) > 0 {
			out.Total = e.rollup.TotalRange(ws[0], ws[len(ws)-1])
		}
	}
	return out
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.followerRejects(w) {
		return
	}
	var cfg SketchConfig
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode config: %w", err))
		return
	}
	e, err := s.createSketch(cfg)
	if err != nil {
		if errors.Is(err, store.ErrReadOnly) {
			writeRetryError(w, http.StatusServiceUnavailable, readOnlyRetryAfter, err)
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	if s.dur != nil && s.dur.ackAfterFsync {
		// Manifest records honor the same group-commit ack gate as
		// ingest: no 201 before a covering fsync. Creates are rare, so
		// waiting on the log's current tail is fine.
		if err := s.dur.st.WaitDurable(r.Context(), s.dur.st.LastLSN()); err != nil {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("create logged but not yet durable (%v); not acknowledged", err))
			return
		}
	}
	writeJSON(w, http.StatusCreated, e.info())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.List()
	infos := make([]sketchInfo, len(entries))
	for i, e := range entries {
		infos[i] = e.info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"sketches": infos})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	// Stats only — resolved without lookup's revive step, so polling a
	// demoted sketch's info (like listing it) never drags it back into
	// memory.
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		err := fmt.Errorf("sketch %q: %w", name, ErrNotFound)
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.followerRejects(w) {
		return
	}
	ok, err := s.deleteSketch(r.PathValue("name"))
	if err != nil {
		if errors.Is(err, store.ErrReadOnly) {
			writeRetryError(w, http.StatusServiceUnavailable, readOnlyRetryAfter, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		err := fmt.Errorf("sketch %q: %w", r.PathValue("name"), ErrNotFound)
		writeError(w, statusFor(err), err)
		return
	}
	if s.dur != nil && s.dur.ackAfterFsync {
		// See handleCreate: the delete's manifest record must be fsynced
		// before the 204.
		if err := s.dur.st.WaitDurable(r.Context(), s.dur.st.LastLSN()); err != nil {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("delete logged but not yet durable (%v); not acknowledged", err))
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// ingestJSON is the JSON ingest request body: either bare items (unit,
// sharded) or full rows (any kind).
type ingestJSON struct {
	Items []string `json:"items"`
	Rows  []struct {
		Item   string  `json:"item"`
		Weight float64 `json:"weight"`
		At     int64   `json:"at"`
	} `json:"rows"`
}

// handleIngest decodes a batch (pooled text fast path, or JSON) and either
// queues it (default, 202) or applies it inline (?sync=1, 200). Admission
// runs first: the body's bytes charge the global in-flight budget before
// decoding, and the decoded row count draws from the sketch's token
// bucket; either gate sheds with a Retry-After hint.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.followerRejects(w) {
		return
	}
	charge, admitted := s.admitBody(w, r)
	if !admitted {
		return
	}
	handedOff := false
	defer func() {
		if !handedOff {
			s.adm.release(charge)
		}
	}()
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	b := getBatch()
	if err := s.decodeIngest(r, e.cfg.Kind, b); err != nil {
		putBatch(b)
		s.met.ingestRejected.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	n := len(b.items)
	if n == 0 {
		putBatch(b)
		writeJSON(w, http.StatusOK, map[string]any{"rows": 0})
		return
	}
	if rate := s.cfg.IngestRateRows; rate > 0 {
		if ok, wait := e.takeTokens(float64(n), rate, s.cfg.IngestBurstRows); !ok {
			putBatch(b)
			s.met.shed429.Add(1)
			writeRetryError(w, http.StatusTooManyRequests, wait,
				fmt.Errorf("sketch %q over its ingest rate (%g rows/s)", e.cfg.Name, rate))
			return
		}
	}
	s.met.batchesQueued.Add(1)
	sync := r.URL.Query().Get("sync") != ""
	if s.dur != nil {
		handedOff = s.ingestDurable(w, r, e, b, n, sync, charge)
		return
	}
	if sync {
		s.applyBatch(e, b, 0)
		putBatch(b)
		writeJSON(w, http.StatusOK, map[string]any{"rows": n})
		return
	}
	queued, err := s.enqueue(r.Context(), ingestJob{e: e, b: b, charge: charge})
	if err != nil {
		// Queue full until the client's deadline: shed the batch — the
		// rows were never acknowledged, so dropping them here is the
		// backpressure contract, not loss.
		putBatch(b)
		writeRetryError(w, http.StatusServiceUnavailable, time.Second, fmt.Errorf("ingest queue full: %w", err))
		return
	}
	if !queued {
		// Shutting down: the queue is closed, apply inline rather than
		// dropping accepted rows.
		s.applyBatch(e, b, 0)
		putBatch(b)
		writeJSON(w, http.StatusOK, map[string]any{"rows": n})
		return
	}
	handedOff = true // the worker releases the charge after the apply
	writeJSON(w, http.StatusAccepted, map[string]any{"rows": n, "queued": true})
}

// ingestDurable is the write-ahead ingest path: the batch's WAL record
// and its queue slot are claimed in one walMu critical section (so the
// entry's worker sees jobs in LSN order), and nothing is acknowledged
// before the append — under -fsync always an acknowledged batch is on
// disk. Sync callers wait for the worker to apply instead of applying
// inline, which would break per-entry ordering; the wait observes the
// request context, so a dead client releases its handler while the
// already-logged batch still applies in order.
func (s *Server) ingestDurable(w http.ResponseWriter, r *http.Request, e *entry, b *ingestBatch, n int, sync bool, charge int64) (handedOff bool) {
	var done chan applyResult
	if sync {
		done = make(chan applyResult, 1)
	}
	s.dur.walMu.Lock()
	lsn, err := s.appendIngestWAL(e, b)
	if err != nil {
		s.dur.walMu.Unlock()
		putBatch(b)
		if errors.Is(err, store.ErrReadOnly) {
			// Disk below the hard watermark: the store is read-only until
			// space returns. The batch was never logged or acknowledged.
			writeRetryError(w, http.StatusServiceUnavailable, readOnlyRetryAfter, err)
			return false
		}
		writeError(w, http.StatusInternalServerError, fmt.Errorf("wal append: %w", err))
		return false
	}
	e.appendedLSN.Store(lsn)
	// The record is on the log, so the batch must not be dropped on any
	// path below: enqueue without a context deadline (the queue slot wait
	// is bounded by shutdown, and the batch's worker never blocks on the
	// buffered done channel).
	queued, _ := s.enqueue(context.Background(), ingestJob{e: e, b: b, lsn: lsn, done: done, charge: charge})
	s.dur.walMu.Unlock()
	if !queued {
		// Shutting down after the drain deadline: the queues are closed.
		// Applying inline here would race the entry's worker and could
		// invert per-entry LSN order — the one invariant checkpoints
		// stand on — so refuse instead. The record is already on the
		// log above the entry's watermark, so the drain checkpoint's
		// cutoff spares it and the next boot replays it: a 503 here
		// still means at-least-once, never loss.
		putBatch(b)
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shutting down; batch is logged and will apply on restart"))
		return false
	}
	if s.dur.ackAfterFsync {
		// Group commit: the record is logged and queued, but the ack
		// must not outrun the interval fsync that covers it. The wait
		// runs outside walMu, so many batches share one fsync. On
		// timeout nothing was acknowledged — the batch still applies
		// (and survives only if the log reached disk), exactly the
		// SyncAlways contract.
		if err := s.dur.st.WaitDurable(r.Context(), lsn); err != nil {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("batch logged but not yet durable (%v); not acknowledged", err))
			return true
		}
	}
	if sync {
		select {
		case <-done:
			writeJSON(w, http.StatusOK, map[string]any{"rows": n})
		case <-r.Context().Done():
			// Client gone or deadline struck: free the handler. The batch
			// is logged and queued, so it still applies in LSN order.
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("request context done before apply (%w); batch is logged and queued", r.Context().Err()))
		}
		return true
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"rows": n, "queued": true})
	return true
}

// decodeIngest parses the request body into b according to content type:
// anything but application/json takes the pooled newline-text path.
func (s *Server) decodeIngest(r *http.Request, kind Kind, b *ingestBatch) error {
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		if err := b.readBody(r.Body, s.cfg.MaxBodyBytes); err != nil {
			return err
		}
		return b.parseText(kind)
	}
	var req ingestJSON
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("decode ingest body: %w", err)
	}
	return b.appendJSONRows(kind, &req)
}

// appendJSONRows validates a decoded JSON ingest body and appends its
// rows to the batch's columns — shared by the ingest handler and
// ParseIngestBody so the proxy and the node reject identical bodies.
func (b *ingestBatch) appendJSONRows(kind Kind, req *ingestJSON) error {
	if len(req.Items) > 0 {
		if kind == KindRollup {
			return fmt.Errorf("rollup ingest needs rows with timestamps, not bare items")
		}
		b.items = append(b.items, req.Items...)
		if kind == KindWeighted {
			// Keep the weight column positionally aligned with items, so
			// a body mixing bare items and weighted rows pairs each
			// weight with its own row.
			for range req.Items {
				b.ws = append(b.ws, 1)
			}
		}
	}
	for i, row := range req.Rows {
		if row.Item == "" {
			return fmt.Errorf("row %d: empty item", i)
		}
		b.items = append(b.items, row.Item)
		switch kind {
		case KindWeighted:
			wt := row.Weight
			if wt == 0 {
				wt = 1
			}
			if wt < 0 {
				return fmt.Errorf("row %d: negative weight %v", i, row.Weight)
			}
			b.ws = append(b.ws, wt)
		case KindRollup:
			b.ats = append(b.ats, row.At)
		}
	}
	return nil
}

// parseReduction maps the ?reduction= parameter.
func parseReduction(name string) (uss.Reduction, error) {
	switch name {
	case "", "pairwise":
		return uss.Pairwise, nil
	case "pivotal":
		return uss.Pivotal, nil
	case "misra-gries":
		return uss.MisraGries, nil
	default:
		return 0, fmt.Errorf("unknown reduction %q (want pairwise, pivotal or misra-gries)", name)
	}
}

// handlePush merges a shipped wire-format snapshot into a weighted entry:
// DecodeBins → MergeBins under the entry lock → the entry's sketch is
// replaced by the merged state. Only weighted entries accept pushes — the
// merge of arbitrary snapshots is weighted by nature, so the natural
// aggregator is a KindWeighted sketch sized to hold the union.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	if s.followerRejects(w) {
		return
	}
	charge, admitted := s.admitBody(w, r)
	if !admitted {
		return
	}
	handedOff := false
	defer func() {
		if !handedOff {
			s.adm.release(charge)
		}
	}()
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if e.cfg.Kind != KindWeighted {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is %s; snapshots push into weighted sketches", e.cfg.Name, e.cfg.Kind))
		return
	}
	red, err := parseReduction(r.URL.Query().Get("reduction"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	b := getBatch()
	defer putBatch(b)
	if err := b.readBody(r.Body, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Decoded bins copy their items out of the body (one shared arena),
	// so the pooled buffer is free for reuse as soon as this returns.
	pushed, err := uss.DecodeBins(b.buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var res applyResult
	if s.dur != nil {
		// Write-ahead: log the validated snapshot and its reduction,
		// then apply on the entry's worker in LSN order.
		done := make(chan applyResult, 1)
		s.dur.walMu.Lock()
		lsn, err := s.dur.st.AppendSnapshot(e.cfg.Name, byte(red), b.buf)
		if err != nil {
			s.dur.walMu.Unlock()
			if errors.Is(err, store.ErrReadOnly) {
				writeRetryError(w, http.StatusServiceUnavailable, readOnlyRetryAfter, err)
				return
			}
			writeError(w, http.StatusInternalServerError, fmt.Errorf("wal append: %w", err))
			return
		}
		e.appendedLSN.Store(lsn)
		queued, _ := s.enqueue(context.Background(), ingestJob{e: e, push: pushed, red: red, lsn: lsn, done: done, charge: charge})
		s.dur.walMu.Unlock()
		if !queued {
			// See ingestDurable: applying inline post-drain could invert
			// per-entry LSN order; the logged record replays on restart.
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("shutting down; snapshot is logged and will merge on restart"))
			return
		}
		handedOff = true // the worker releases the charge after the merge
		if s.dur.ackAfterFsync {
			// See ingestDurable: no ack before a covering fsync.
			if err := s.dur.st.WaitDurable(r.Context(), lsn); err != nil {
				writeError(w, http.StatusServiceUnavailable,
					fmt.Errorf("snapshot logged but not yet durable (%v); not acknowledged", err))
				return
			}
		}
		select {
		case res = <-done:
		case <-r.Context().Done():
			// The push is logged and queued; it merges in order without us.
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("request context done before merge (%w); snapshot is logged and queued", r.Context().Err()))
			return
		}
	} else {
		res = s.applyPush(e, pushed, red, 0)
	}
	if res.err != nil {
		writeError(w, http.StatusInternalServerError, res.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"merged_bins": len(pushed),
		"size":        res.size,
		"capacity":    e.cfg.Bins,
		"total":       res.total,
	})
}

// handlePull serves the entry's current state as a wire-v2 snapshot. The
// encode runs into the entry's reused buffer under its lock; the response
// writes from a detached copy so a slow client never holds the lock.
func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var blob []byte
	var err error
	switch e.cfg.Kind {
	case KindUnit:
		e.mu.Lock()
		e.enc, err = e.unit.AppendBinary(e.enc[:0])
		blob = append([]byte(nil), e.enc...)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		e.enc, err = e.weighted.AppendBinary(e.enc[:0])
		blob = append([]byte(nil), e.enc...)
		e.mu.Unlock()
	case KindSharded:
		blob, err = e.sharded.Snapshot(0).MarshalBinary()
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; pull a range with /range endpoints", e.cfg.Name))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.met.snapshotsOut.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

// binDTO is one (item, count) pair in JSON responses.
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

// intParam parses an integer query parameter with a default.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

// pointRead resolves the sketch a point read answers from, writing the
// error response when it cannot. With a nil gather that is the registry
// entry (a node's read). Otherwise it is a transient weighted entry over
// gather's sketch, plus the read's health, so the handler takes the very
// path a weighted node entry takes; a rollup needs no gather, since every
// handler rejects it.
func (s *Server) pointRead(w http.ResponseWriter, r *http.Request, gather Gather) (*entry, *ReadHealth, bool) {
	if gather == nil {
		e, ok := s.lookup(w, r)
		return e, nil, ok
	}
	name := r.PathValue("name")
	if e, ok := s.reg.Get(name); ok && e.cfg.Kind == KindRollup {
		return e, nil, true
	}
	sk, rh, code, err := gather(r.Context(), name)
	if err != nil {
		writeError(w, code, err)
		return nil, nil, false
	}
	return &entry{cfg: SketchConfig{Name: name, Kind: KindWeighted, Bins: sk.Capacity()}, weighted: sk}, rh, true
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, rh, ok := s.pointRead(w, r, gather)
	if !ok {
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var bins []uss.Bin
	switch e.cfg.Kind {
	case KindSharded:
		bins = e.sharded.TopK(k) // lock-free cached read path
	case KindUnit:
		e.mu.Lock()
		bins = e.unit.TopK(k)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		bins = e.weighted.TopK(k)
		e.mu.Unlock()
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range/topk", e.cfg.Name))
		return
	}
	s.met.queriesServed.Add(1)
	writeJSON(w, http.StatusOK, rh.add(map[string]any{"items": toBinDTOs(bins)}))
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, rh, ok := s.pointRead(w, r, gather)
	if !ok {
		return
	}
	item := r.URL.Query().Get("item")
	if item == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing item parameter"))
		return
	}
	var est float64
	switch e.cfg.Kind {
	case KindSharded:
		est = e.sharded.Estimate(item)
	case KindUnit:
		e.mu.Lock()
		est = e.unit.Estimate(item)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		est = e.weighted.Estimate(item)
		e.mu.Unlock()
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range endpoints", e.cfg.Name))
		return
	}
	s.met.queriesServed.Add(1)
	writeJSON(w, http.StatusOK, rh.add(map[string]any{"item": item, "estimate": est}))
}

// estimateDTO renders an Estimate with its conservative 95% interval.
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

// sumPredicate builds a label predicate from the prefix/suffix/items
// query parameters (exactly one must be given).
func sumPredicate(r *http.Request) (func(string) bool, error) {
	q := r.URL.Query()
	prefix, suffix, items := q.Get("prefix"), q.Get("suffix"), q.Get("items")
	given := 0
	for _, v := range []string{prefix, suffix, items} {
		if v != "" {
			given++
		}
	}
	if given != 1 {
		return nil, fmt.Errorf("give exactly one of prefix=, suffix= or items=")
	}
	switch {
	case prefix != "":
		return func(s string) bool { return strings.HasPrefix(s, prefix) }, nil
	case suffix != "":
		return func(s string) bool { return strings.HasSuffix(s, suffix) }, nil
	default:
		set := make(map[string]bool)
		for _, it := range strings.Split(items, ",") {
			set[it] = true
		}
		return func(s string) bool { return set[s] }, nil
	}
}

func (s *Server) handleSum(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, rh, ok := s.pointRead(w, r, gather)
	if !ok {
		return
	}
	pred, err := sumPredicate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var est uss.Estimate
	switch e.cfg.Kind {
	case KindSharded:
		est = e.sharded.SubsetSum(pred)
	case KindUnit:
		e.mu.Lock()
		est = e.unit.SubsetSum(pred)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		est = e.weighted.SubsetSum(pred)
		e.mu.Unlock()
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range/sum", e.cfg.Name))
		return
	}
	s.met.queriesServed.Add(1)
	// A struct, not a map, so the node's answer keeps its field order.
	writeJSON(w, http.StatusOK, struct {
		estimateDTO
		*ReadHealth
	}{toEstimateDTO(est), rh})
}

// queryRequest is the POST /query body: the §2 template.
type queryRequest struct {
	Where []struct {
		Dim string   `json:"dim"`
		In  []string `json:"in"`
	} `json:"where"`
	GroupBy []string `json:"group_by"`
}

// groupDTO is one result row of a template query.
type groupDTO struct {
	Key        map[string]string `json:"key,omitempty"`
	KeyString  string            `json:"key_string"`
	Value      float64           `json:"value"`
	StdErr     float64           `json:"std_err"`
	SampleBins int               `json:"sample_bins"`
}

// queryCacheKey renders spec unambiguously: every dim and value is
// quoted (escaping the separators), so distinct specs can never collide
// the way a fmt %v rendering would (e.g. In:["us","de"] vs In:["us de"]).
func queryCacheKey(q uss.QuerySpec) string {
	var sb strings.Builder
	for _, f := range q.Where {
		sb.WriteString(strconv.Quote(f.Dim))
		for _, v := range f.In {
			sb.WriteByte(':')
			sb.WriteString(strconv.Quote(v))
		}
		sb.WriteByte(';')
	}
	sb.WriteByte('|')
	for _, d := range q.GroupBy {
		sb.WriteString(strconv.Quote(d))
		sb.WriteByte(';')
	}
	return sb.String()
}

// prepared resolves the entry's cached PreparedQuery for spec, compiling
// and caching on miss. Caller holds e.mu. The cache is reset wholesale
// past 128 distinct specs — a safety valve, not an LRU; steady workloads
// repeat a handful of shapes.
func (e *entry) prepared(spec uss.QuerySpec) *uss.PreparedQuery {
	key := queryCacheKey(spec)
	if p, ok := e.prep[key]; ok {
		return p
	}
	if e.qe == nil {
		switch e.cfg.Kind {
		case KindUnit:
			e.qe = e.unit.QueryEngine()
		case KindWeighted:
			e.qe = e.weighted.QueryEngine()
		case KindSharded:
			e.qe = e.sharded.QueryEngine()
		}
	}
	if e.prep == nil || len(e.prep) >= 128 {
		e.prep = make(map[string]*uss.PreparedQuery)
	}
	p := e.qe.Prepare(spec)
	e.prep[key] = p
	return p
}

// handleQuery evaluates the filter/group-by template through the entry's
// prepared-query cache: repeat query shapes reuse their compiled program
// and the sketch's columnar label index, so a query against an unchanged
// sketch re-parses nothing (PR 2 read path).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, rh, ok := s.pointRead(w, r, gather)
	if !ok {
		return
	}
	if e.cfg.Kind == KindRollup {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range endpoints", e.cfg.Name))
		return
	}
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode query: %w", err))
		return
	}
	spec := uss.QuerySpec{GroupBy: req.GroupBy}
	for _, f := range req.Where {
		spec.Where = append(spec.Where, uss.QueryFilter{Dim: f.Dim, In: f.In})
	}
	e.mu.Lock()
	groups, skipped, err := e.prepared(spec).Run()
	if err != nil {
		e.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Prepared results are engine-owned and reused by the next run, so
	// they are detached into DTOs (including cloned Key maps — JSON
	// rendering happens after the lock drops) before the unlock.
	out := make([]groupDTO, len(groups))
	for i, g := range groups {
		out[i] = groupDTO{
			Key:        maps.Clone(g.Key),
			KeyString:  g.KeyString(),
			Value:      g.Sum.Value,
			StdErr:     g.Sum.StdErr,
			SampleBins: g.Sum.SampleBins,
		}
	}
	e.mu.Unlock()
	s.met.queriesServed.Add(1)
	writeJSON(w, http.StatusOK, rh.add(map[string]any{"groups": out, "skipped": skipped}))
}

// rangeParams parses from/to for the rollup range endpoints.
func rangeParams(r *http.Request) (from, to int64, err error) {
	q := r.URL.Query()
	from, err = strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad from=%q", q.Get("from"))
	}
	to, err = strconv.ParseInt(q.Get("to"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad to=%q", q.Get("to"))
	}
	return from, to, nil
}

// rollupEntry gates the /range endpoints to rollup entries.
func (s *Server) rollupEntry(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	e, ok := s.lookup(w, r)
	if !ok {
		return nil, false
	}
	if e.cfg.Kind != KindRollup {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is %s; /range endpoints need a rollup", e.cfg.Name, e.cfg.Kind))
		return nil, false
	}
	return e, true
}

// handleRangeTopK serves top-k over a window range off the rollup's
// incremental merge tree and per-range memos (PR 3 read path).
func (s *Server) handleRangeTopK(w http.ResponseWriter, r *http.Request) {
	e, ok := s.rollupEntry(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e.mu.Lock()
	bins := e.rollup.TopKRange(from, to, k)
	e.mu.Unlock()
	s.met.queriesServed.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"items": toBinDTOs(bins)})
}

func (s *Server) handleRangeSum(w http.ResponseWriter, r *http.Request) {
	e, ok := s.rollupEntry(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pred, err := sumPredicate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e.mu.Lock()
	est, covered := e.rollup.SubsetSumRange(from, to, pred)
	e.mu.Unlock()
	if !covered {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no retained window intersects [%d, %d]", from, to))
		return
	}
	s.met.queriesServed.Add(1)
	writeJSON(w, http.StatusOK, toEstimateDTO(est))
}

func (s *Server) handleRangeTotal(w http.ResponseWriter, r *http.Request) {
	e, ok := s.rollupEntry(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e.mu.Lock()
	total := e.rollup.TotalRange(from, to)
	e.mu.Unlock()
	s.met.queriesServed.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"total": total})
}
