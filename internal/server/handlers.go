package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	uss "repro"
	"repro/internal/store"
)

// WriteJSON serializes v with a status code. v is encoded before the
// status goes out, so a value encoding/json refuses (a non-finite float)
// answers 500 naming the failure rather than a 200 with an empty body.
// Exported so embedders (the cluster agent) answer through the same
// encoder.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encode response: " + err.Error()})
	}
	writeBody(w, code, append(body, '\n'))
}

// writeError reports a failure as {"error": ...}.
func writeError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// writeLogError answers a mutation whose log step failed: a read-only
// disk and a record no fsync covered are 503s, the first with a
// Retry-After; anything else answers fallback.
func writeLogError(w http.ResponseWriter, fallback int, err error) {
	switch {
	case errors.Is(err, store.ErrReadOnly):
		writeRetryError(w, http.StatusServiceUnavailable, readOnlyRetryAfter, err)
	case errors.Is(err, errNotDurable):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, fallback, err)
	}
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
	if e.sk.Load() == nil {
		out.Size, out.Total = e.coldSize, e.coldTotal
		return out
	}
	out.Size, out.Total, out.Windows = e.sizeTotalLocked()
	return out
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.followerRejects(w) {
		return
	}
	body, ok := ReadBody(w, r, nil, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	var cfg SketchConfig
	if err := json.Unmarshal(body, &cfg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode config: %w", err))
		return
	}
	e, err := s.createSketch(r.Context(), cfg)
	if err != nil {
		writeLogError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusCreated, e.info())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.List()
	infos := make([]sketchInfo, len(entries))
	for i, e := range entries {
		infos[i] = e.info()
	}
	WriteJSON(w, http.StatusOK, map[string]any{"sketches": infos})
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
	WriteJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.followerRejects(w) {
		return
	}
	ok, err := s.deleteSketch(r.Context(), r.PathValue("name"))
	if err != nil {
		writeLogError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		err := fmt.Errorf("sketch %q: %w", r.PathValue("name"), ErrNotFound)
		writeError(w, statusFor(err), err)
		return
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

// handleIngest decodes a batch (pooled text fast path, or JSON) and queues
// it, acknowledging once it is durable (202) or, with ?sync=1, once its
// entry's worker applied it (200). Admission runs first: the body's bytes
// charge the global in-flight budget before decoding, and the decoded row
// count draws from the sketch's token bucket; either gate sheds with a
// Retry-After hint.
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
	e, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	b := getBatch()
	if !s.decodeIngest(w, r, e.cfg.Kind, b) {
		putBatch(b)
		s.met.ingestRejected.Add(1)
		return
	}
	n := len(b.items)
	if n == 0 {
		putBatch(b)
		WriteJSON(w, http.StatusOK, map[string]any{"rows": 0})
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
	j := ingestJob{e: e, b: b, charge: charge}
	if r.URL.Query().Get("sync") != "" {
		j.done = make(chan applyResult, 1)
	}
	_, handedOff, ok = s.write(w, r, j, "batch", func() (uint64, error) { return s.appendIngestWAL(e, b) })
	if !handedOff {
		putBatch(b)
	}
	if !ok {
		return
	}
	if j.done != nil {
		WriteJSON(w, http.StatusOK, map[string]any{"rows": n})
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{"rows": n, "queued": true})
}

// write takes one ingest batch or snapshot push down the route every
// mutation shares: log, enqueue, then one ack wait. A durable server
// appends the record with logRec and enqueues j in one walMu section, so
// each entry's queue order is its LSN order; an in-memory server only
// enqueues. The ack waits for WaitDurable when the server is durable,
// then, when j.done is set, for the entry's worker to apply the job —
// and since the worker applies its entry's jobs in queue order, an
// applied ack also means every earlier job on that entry applied. what
// names the mutation in error answers. write answers every failure
// itself; ok reports whether the caller may send its 2xx, and queued
// whether the worker took the job, with its batch and admission charge.
func (s *Server) write(w http.ResponseWriter, r *http.Request, j ingestJob, what string, logRec func() (uint64, error)) (res applyResult, queued, ok bool) {
	d := s.dur
	ctx := r.Context()
	if d != nil {
		d.walMu.Lock()
		lsn, err := logRec()
		if err != nil {
			d.walMu.Unlock()
			writeLogError(w, http.StatusInternalServerError, fmt.Errorf("wal append: %w", err))
			return res, false, false
		}
		j.lsn = lsn
		j.e.appendedLSN.Store(lsn)
		// The record is on the log, so the job must not be dropped: the
		// queue slot wait is bounded by shutdown, not by the client.
		ctx = context.Background()
	}
	queued, err := s.enqueue(ctx, j)
	if d != nil {
		d.walMu.Unlock()
	}
	if err != nil {
		// Queue full until the client's deadline: shed the job. Nothing
		// was logged or acknowledged, so this is backpressure, not loss.
		writeRetryError(w, http.StatusServiceUnavailable, time.Second, fmt.Errorf("ingest queue full: %w", err))
		return res, false, false
	}
	if !queued {
		// Shutdown closed the queues. Applying inline here would race the
		// entry's worker and could invert its order, so refuse. A logged
		// record sits above its entry's watermark, so the drain
		// checkpoint's cutoff spares it and the next boot replays it.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shutting down; %s not acknowledged", what))
		return res, false, false
	}
	if d != nil {
		if err := d.waitDurable(r.Context(), j.lsn, what); err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return res, true, false
		}
	}
	if j.done != nil {
		select {
		case res = <-j.done:
		case <-r.Context().Done():
			// Client gone or deadline struck: free the handler. The job is
			// queued, so it still applies in order.
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("request context done before apply (%w); %s is queued", r.Context().Err(), what))
			return res, true, false
		}
	}
	return res, true, true
}

// decodeIngest reads the request body into b's pooled buffer and parses
// it according to content type, answering the request itself when
// either fails.
func (s *Server) decodeIngest(w http.ResponseWriter, r *http.Request, kind Kind, b *ingestBatch) bool {
	var ok bool
	if b.buf, ok = ReadBody(w, r, b.buf, s.cfg.MaxBodyBytes); !ok {
		return false
	}
	if err := b.parse(kind, r.Header.Get("Content-Type")); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// parse decodes b.buf, an ingest body of contentType, into the batch's
// columns: JSON for application/json, newline text otherwise.
func (b *ingestBatch) parse(kind Kind, contentType string) error {
	if !JSONIngest(contentType) {
		return b.parseText(kind)
	}
	// Unmarshal, unlike a stream decoder, rejects anything but
	// whitespace after the first value.
	var req ingestJSON
	if err := json.Unmarshal(b.buf, &req); err != nil {
		return fmt.Errorf("decode ingest body: %w", err)
	}
	return b.appendJSONRows(kind, &req)
}

// appendJSONRows validates a decoded JSON ingest body and appends its
// rows to the batch's columns.
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
	e, _, ok := s.lookup(w, r)
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
	if b.buf, ok = ReadBody(w, r, b.buf, s.cfg.MaxBodyBytes); !ok {
		return
	}
	// Decoded bins copy their items out of the body (one shared arena),
	// so the pooled buffer is free for reuse as soon as this returns.
	pushed, err := uss.DecodeBins(b.buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := ingestJob{e: e, push: pushed, red: red, charge: charge, done: make(chan applyResult, 1)}
	res, handedOff, ok := s.write(w, r, j, "snapshot", func() (uint64, error) {
		return s.dur.st.AppendSnapshot(e.cfg.Name, byte(red), b.buf)
	})
	if !ok {
		return
	}
	if res.err != nil {
		writeError(w, http.StatusInternalServerError, res.err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
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
	e, sk, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var blob []byte
	var err error
	switch e.cfg.Kind {
	case KindUnit, KindWeighted:
		// Their state encoding is the wire-v2 snapshot.
		e.mu.Lock()
		e.enc, err = sk.AppendState(e.enc[:0])
		blob = append([]byte(nil), e.enc...)
		e.mu.Unlock()
	case KindSharded:
		blob, err = sk.Sharded.Snapshot(0).MarshalBinary()
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

// pointRead resolves the entry and sketch a point read answers from,
// writing the error response when it cannot. With a nil gather that is
// the registry entry (a node's read). Otherwise it is the weighted entry
// of gather's GatheredRead, plus the read's health, so the handler takes
// the very path a weighted node entry takes; a rollup needs no gather
// (nor a sketch), since every handler rejects it.
func (s *Server) pointRead(w http.ResponseWriter, r *http.Request, gather Gather) (*entry, *store.RebuiltSketch, *ReadHealth, bool) {
	if gather == nil {
		e, sk, ok := s.lookup(w, r)
		return e, sk, nil, ok
	}
	name := r.PathValue("name")
	if e, ok := s.reg.Get(name); ok && e.cfg.Kind == KindRollup {
		return e, nil, nil, true
	}
	gr, rh, code, err := gather(r.Context(), name)
	if err != nil {
		writeError(w, code, err)
		return nil, nil, nil, false
	}
	return gr.e, gr.e.sk.Load(), rh, true
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, sk, rh, ok := s.pointRead(w, r, gather)
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
		bins = sk.Sharded.TopK(k) // lock-free cached read path
	case KindUnit:
		e.mu.Lock()
		bins = sk.Unit.TopK(k)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		bins = sk.Weighted.TopK(k)
		e.mu.Unlock()
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range/topk", e.cfg.Name))
		return
	}
	s.met.queriesServed.Add(1)
	WriteJSON(w, http.StatusOK, rh.add(map[string]any{"items": toBinDTOs(bins)}))
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, sk, rh, ok := s.pointRead(w, r, gather)
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
		est = sk.Sharded.Estimate(item)
	case KindUnit:
		e.mu.Lock()
		est = sk.Unit.Estimate(item)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		est = sk.Weighted.Estimate(item)
		e.mu.Unlock()
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range endpoints", e.cfg.Name))
		return
	}
	s.met.queriesServed.Add(1)
	WriteJSON(w, http.StatusOK, rh.add(map[string]any{"item": item, "estimate": est}))
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

// sumSpec is a subset-sum predicate parsed from the prefix/suffix/items
// query parameters; exactly one form is set.
type sumSpec struct {
	prefix, suffix string
	items          []string // nil unless items= was given
}

func parseSumSpec(r *http.Request) (sumSpec, error) {
	q := r.URL.Query()
	prefix, suffix, items := q.Get("prefix"), q.Get("suffix"), q.Get("items")
	given := 0
	for _, v := range []string{prefix, suffix, items} {
		if v != "" {
			given++
		}
	}
	if given != 1 {
		return sumSpec{}, fmt.Errorf("give exactly one of prefix=, suffix= or items=")
	}
	spec := sumSpec{prefix: prefix, suffix: suffix}
	if items != "" {
		spec.items = strings.Split(items, ",")
	}
	return spec, nil
}

// pred returns the spec as a label predicate, for the sums that scan
// every bin: suffixes, weighted sketches and rollup ranges.
func (q sumSpec) pred() func(string) bool {
	switch {
	case q.prefix != "":
		return func(s string) bool { return strings.HasPrefix(s, q.prefix) }
	case q.suffix != "":
		return func(s string) bool { return strings.HasSuffix(s, q.suffix) }
	default:
		set := make(map[string]bool, len(q.items))
		for _, it := range q.items {
			set[it] = true
		}
		return func(s string) bool { return set[s] }
	}
}

// unitSummer is the subset-sum surface unit and sharded sketches share:
// the predicate scan plus the prefix and item sums served from the
// Stream-Summary without reading every label.
type unitSummer interface {
	SubsetSum(pred func(string) bool) uss.Estimate
	SubsetSumPrefix(prefix string) uss.Estimate
	SubsetSumItems(items ...string) uss.Estimate
}

// on answers the spec on a unit or sharded sketch: prefixes and item
// lists take the indexed sums, suffixes the scan. Each form returns the
// estimate the scan would, bit for bit.
func (q sumSpec) on(sk unitSummer) uss.Estimate {
	switch {
	case q.prefix != "":
		return sk.SubsetSumPrefix(q.prefix)
	case q.items != nil:
		return sk.SubsetSumItems(q.items...)
	default:
		return sk.SubsetSum(q.pred())
	}
}

func (s *Server) handleSum(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, sk, rh, ok := s.pointRead(w, r, gather)
	if !ok {
		return
	}
	spec, err := parseSumSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var est uss.Estimate
	switch e.cfg.Kind {
	case KindSharded:
		est = spec.on(sk.Sharded)
	case KindUnit:
		e.mu.Lock()
		est = spec.on(sk.Unit)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		est = sk.Weighted.SubsetSum(spec.pred())
		e.mu.Unlock()
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range/sum", e.cfg.Name))
		return
	}
	s.met.queriesServed.Add(1)
	// A struct, not a map, so the node's answer keeps its field order.
	WriteJSON(w, http.StatusOK, struct {
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

// appendQueryCacheKey renders spec unambiguously: every dim and value is
// quoted (escaping the separators), so distinct specs can never collide
// the way a fmt %v rendering would (e.g. In:["us","de"] vs In:["us de"]).
func appendQueryCacheKey(b []byte, q uss.QuerySpec) []byte {
	for _, f := range q.Where {
		b = strconv.AppendQuote(b, f.Dim)
		for _, v := range f.In {
			b = append(b, ':')
			b = strconv.AppendQuote(b, v)
		}
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, d := range q.GroupBy {
		b = strconv.AppendQuote(b, d)
		b = append(b, ';')
	}
	return b
}

// prepared resolves sk's cached PreparedQuery for spec, compiling and
// caching on miss. Caller holds e.mu. The cache is reset wholesale past
// 128 distinct specs — a safety valve, not an LRU; steady workloads
// repeat a handful of shapes. A hit allocates nothing. The cache serves
// the entry's live sketch only: when a demotion dropped sk after the
// caller resolved it, the query is prepared over sk uncached.
func (e *entry) prepared(sk *store.RebuiltSketch, spec uss.QuerySpec) *uss.PreparedQuery {
	if sk != e.sk.Load() {
		return queryEngine(e.cfg.Kind, sk).Prepare(spec)
	}
	var kb [256]byte
	key := appendQueryCacheKey(kb[:0], spec)
	if p, ok := e.prep[string(key)]; ok {
		return p
	}
	if e.qe == nil {
		e.qe = queryEngine(e.cfg.Kind, sk)
	}
	if e.prep == nil || len(e.prep) >= 128 {
		e.prep = make(map[string]*uss.PreparedQuery)
	}
	p := e.qe.Prepare(spec)
	e.prep[string(key)] = p
	return p
}

// queryEngine returns a query engine over a unit, weighted or sharded
// sketch.
func queryEngine(kind Kind, sk *store.RebuiltSketch) *uss.QueryEngine {
	switch kind {
	case KindUnit:
		return sk.Unit.QueryEngine()
	case KindWeighted:
		return sk.Weighted.QueryEngine()
	default:
		return sk.Sharded.QueryEngine()
	}
}

// decodeQuery decodes a /query body into the template's spec. Like
// create's config, the body is one JSON value: anything after it fails.
func decodeQuery(body []byte) (uss.QuerySpec, error) {
	var req queryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return uss.QuerySpec{}, fmt.Errorf("decode query: %w", err)
	}
	spec := uss.QuerySpec{GroupBy: req.GroupBy}
	for _, f := range req.Where {
		spec.Where = append(spec.Where, uss.QueryFilter{Dim: f.Dim, In: f.In})
	}
	return spec, nil
}

// handleQuery evaluates the filter/group-by template through the entry's
// prepared-query cache: repeat query shapes reuse their compiled program
// and the sketch's columnar label index, and a shape that already ran
// since the sketch's last write reuses its groups (query.Prepared's
// memo). The answer is rendered under the entry lock, straight from the
// engine-owned groups into a pooled buffer, byte for byte what
// encoding/json made of the old per-group DTOs.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, gather Gather) {
	e, sk, rh, ok := s.pointRead(w, r, gather)
	if !ok {
		return
	}
	if e.cfg.Kind == KindRollup {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is a rollup; use /range endpoints", e.cfg.Name))
		return
	}
	req, ok := ReadBody(w, r, nil, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	spec, err := decodeQuery(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var peers []byte
	if rh != nil && rh.Peers != nil {
		if peers, err = json.Marshal(rh.Peers); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
			return
		}
	}
	e.mu.Lock()
	groups, skipped, err := e.prepared(sk, spec).Run()
	if err != nil {
		e.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bp := answerPool.Get().(*[]byte)
	body, err := appendQueryAnswer((*bp)[:0], groups, skipped, rh, peers)
	e.mu.Unlock()
	if err != nil {
		putAnswer(bp, body)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	s.met.queriesServed.Add(1)
	writeBody(w, http.StatusOK, body)
	putAnswer(bp, body)
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
func (s *Server) rollupEntry(w http.ResponseWriter, r *http.Request) (*entry, *store.RebuiltSketch, bool) {
	e, sk, ok := s.lookup(w, r)
	if !ok {
		return nil, nil, false
	}
	if e.cfg.Kind != KindRollup {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch %q is %s; /range endpoints need a rollup", e.cfg.Name, e.cfg.Kind))
		return nil, nil, false
	}
	return e, sk, true
}

// handleRangeTopK serves top-k over a window range off the rollup's
// incremental merge tree and per-range memos (PR 3 read path).
func (s *Server) handleRangeTopK(w http.ResponseWriter, r *http.Request) {
	e, sk, ok := s.rollupEntry(w, r)
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
	bins := sk.Rollup.TopKRange(from, to, k)
	e.mu.Unlock()
	s.met.queriesServed.Add(1)
	WriteJSON(w, http.StatusOK, map[string]any{"items": toBinDTOs(bins)})
}

func (s *Server) handleRangeSum(w http.ResponseWriter, r *http.Request) {
	e, sk, ok := s.rollupEntry(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := parseSumSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e.mu.Lock()
	est, covered := sk.Rollup.SubsetSumRange(from, to, spec.pred())
	e.mu.Unlock()
	if !covered {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no retained window intersects [%d, %d]", from, to))
		return
	}
	s.met.queriesServed.Add(1)
	WriteJSON(w, http.StatusOK, toEstimateDTO(est))
}

func (s *Server) handleRangeTotal(w http.ResponseWriter, r *http.Request) {
	e, sk, ok := s.rollupEntry(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e.mu.Lock()
	total := sk.Rollup.TotalRange(from, to)
	e.mu.Unlock()
	s.met.queriesServed.Add(1)
	WriteJSON(w, http.StatusOK, map[string]any{"total": total})
}
