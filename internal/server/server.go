// Package server implements ussd, the multi-tenant HTTP sketch service:
// a registry of named Unbiased Space Saving sketches (unit, weighted,
// sharded, rollup) behind a REST-ish API for ingesting rows, shipping
// snapshots and querying — the paper's §5.5 serialize → ship → merge
// pipeline with a network in the middle.
//
// # Endpoints
//
//	POST   /v1/sketches                      create (SketchConfig JSON)
//	GET    /v1/sketches                      list configs + stats
//	GET    /v1/sketches/{name}               info/stats
//	DELETE /v1/sketches/{name}               drop
//	POST   /v1/sketches/{name}/ingest        batched rows (text or JSON)
//	POST   /v1/sketches/{name}/snapshot      push a wire-v2 snapshot (merge in)
//	GET    /v1/sketches/{name}/snapshot      pull the current state as wire v2
//	GET    /v1/sketches/{name}/topk?k=       heavy hitters
//	GET    /v1/sketches/{name}/estimate?item= per-item estimate
//	GET    /v1/sketches/{name}/sum?prefix=|suffix=|items=  subset sum
//	POST   /v1/sketches/{name}/query         §2 filter/group-by template
//	GET    /v1/sketches/{name}/range/topk    rollup: top-k over [from,to]
//	GET    /v1/sketches/{name}/range/sum     rollup: subset sum over [from,to]
//	GET    /v1/sketches/{name}/range/total   rollup: exact row count
//	GET    /healthz                          liveness
//	GET    /readyz                           readiness (recovery/catch-up done; follower lag)
//	GET    /metrics                          Prometheus text counters + histograms
//	GET    /debug/traces                     span ring (?trace=<32 hex> filters)
//	GET    /v1/introspect/hot                self-instrumented heavy hitters (?k=)
//	GET    /v1/replication/status            role, timeline, log position
//	GET    /v1/replication/wal?from=&wait_ms= WAL stream (long-poll, framed records)
//	GET    /v1/replication/checkpoint        checkpoint bundle (follower catch-up)
//	POST   /v1/replication/promote           promote this follower to primary
//
// # Concurrency and ownership
//
// The registry is a read-mostly map: request handlers take its read lock
// only to resolve a name to an entry pointer, never across sketch work.
// Each entry owns its sketch behind an entry mutex — except sharded
// entries, whose ShardedSketch is internally synchronized, so ingest
// batches flow into ShardedSketch.UpdateBatch and top-k reads come off
// its lock-free cached snapshot without the entry lock. Query evaluation
// reuses the PR 2 cached read path: one engine and a prepared-query cache
// per entry, revalidated against the sketch's version counters, so a
// query against an unchanged sketch re-parses nothing. Rollup range
// queries land on internal/rollup's incremental merge tree and memos.
//
// Ingest is batched and, by default, asynchronous: the handler decodes
// the request body into a pooled batch (see ingestBatch), enqueues it and
// replies 202; a fixed pool of worker goroutines applies batches in
// arrival order per queue. `?sync=1` waits for the entry's worker to
// apply the batch and replies 200 for read-after-write callers. Pushed
// snapshots take the same queue; they are decoded with uss.DecodeBins
// and merged under the entry lock with uss.MergeBins — bins, never
// sketches, cross the wire.
//
// Shutdown drains: the HTTP server stops accepting, in-flight handlers
// finish, the ingest queue runs dry, then workers exit. Rows accepted
// with a 202 are therefore applied before Shutdown returns.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	uss "repro"
	"repro/internal/hashx"
	"repro/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8632").
	Addr string
	// IngestWorkers is the number of goroutines applying async ingest
	// batches (default 4).
	IngestWorkers int
	// QueueDepth is the async ingest queue length in batches; a full
	// queue applies backpressure by blocking the handler (default 256).
	QueueDepth int
	// MaxBodyBytes caps ingest/push request bodies (default 32 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds every request's context — handlers observe
	// client disconnects and this deadline through r.Context(), so a
	// dead client can no longer park a sync ingest on a worker slot
	// forever (default 60s; < 0 disables).
	RequestTimeout time.Duration
	// IngestRateRows caps each sketch's ingest rate in rows/second.
	// Batches past the rate are shed with 429 + Retry-After computed
	// from the deficit. 0 disables per-sketch admission control.
	IngestRateRows float64
	// IngestBurstRows is the token-bucket capacity — the largest batch
	// admitted instantly (default 2× IngestRateRows). Size it above the
	// biggest legitimate batch or that batch can never be admitted.
	IngestBurstRows float64
	// MaxInflightBytes bounds the total mutation-body bytes admitted but
	// not yet applied; over budget, mutations are shed with 503 +
	// Retry-After before decoding. 0 disables the budget.
	MaxInflightBytes int64
	// MemorySoftBytes is the resident sketch-memory watermark: above it
	// a durable server demotes sketches idle longer than ColdAfter to
	// on-disk blobs, reviving them on next access. 0 disables demotion.
	MemorySoftBytes int64
	// ColdAfter is how long a sketch must go untouched before it is a
	// demotion candidate (default 5m). Keep it above RequestTimeout so
	// an in-flight request can never see its sketch demoted under it.
	ColdAfter time.Duration
	// Node labels this instance's spans and log lines (default Addr).
	Node string
	// Log receives structured events; nil discards. Handlers and the
	// background loops attach component + trace fields to it.
	Log *slog.Logger
	// SlowRequest is the slow-span structured-log threshold; spans at
	// least this long are logged at Warn (0 disables).
	SlowRequest time.Duration
	// TraceDisabled turns off span/histogram recording (the overhead
	// benchmark's baseline; trace *propagation* still works).
	TraceDisabled bool
}

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = ":8632"
	}
	if c.IngestWorkers <= 0 {
		c.IngestWorkers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.IngestBurstRows <= 0 {
		c.IngestBurstRows = 2 * c.IngestRateRows
	}
	if c.ColdAfter <= 0 {
		c.ColdAfter = 5 * time.Minute
	}
	if c.Node == "" {
		c.Node = c.Addr
	}
	if c.Log == nil {
		c.Log = obs.NopLogger()
	}
}

// ingestJob is one queued unit of sketch work bound for one entry:
// either a decoded ingest batch (b non-nil) or a decoded snapshot push
// (push non-nil). lsn is the job's WAL record on a durable server (0
// otherwise); done, when non-nil, receives the apply's result so sync
// callers wait for the entry's worker, which applies everything in
// queue order.
type ingestJob struct {
	e    *entry
	b    *ingestBatch
	push []uss.Bin
	red  uss.Reduction
	lsn  uint64
	done chan applyResult
	// charge is the job's admitted in-flight bytes, released by the
	// worker after the apply (admission.go).
	charge int64
}

// applyResult reports one applied job back to a waiting handler.
type applyResult struct {
	size  int
	total float64
	err   error
}

// Server is one ussd instance: registry, router, metrics and the async
// ingest worker pool. Create with New, serve with ListenAndServe (or
// mount Handler in a test server), stop with Shutdown.
type Server struct {
	cfg Config
	reg *Registry
	met *metrics
	mux *http.ServeMux

	// ob is the instance's observability bundle: tracer + span ring,
	// latency histograms, hot-traffic sketches, structured logger. Per
	// instance, not per process, so in-process multi-node tests keep
	// separate rings with distinct node labels.
	ob  *obs.Observer
	log *slog.Logger

	// hs is built in New (never nil), so Shutdown always has a server to
	// stop even when it races a Serve goroutine that has not run yet —
	// net/http makes Shutdown-before-Serve well-defined (the later Serve
	// returns ErrServerClosed).
	hs   *http.Server
	lnMu sync.Mutex
	ln   net.Listener

	// jobs is one queue per ingest worker; an entry's jobs always land
	// on the same queue (by name hash), so each entry has a single
	// applier and sees its jobs in enqueue order — the ordering durable
	// mode's applied-LSN watermark relies on.
	jobs    []chan ingestJob
	workers sync.WaitGroup
	qmu     sync.RWMutex
	closed  bool

	// dur is the durability harness, nil unless AttachStore was called.
	dur *durableState

	// adm is the global in-flight-bytes admission gate (admission.go).
	adm admission

	// extraMetrics are embedder-registered /metrics emitters (the
	// cluster agent exports its breaker states through one).
	extraMu      sync.Mutex
	extraMetrics []func(w io.Writer)

	// Replication state: role and readiness gates, the timeline this
	// node's log belongs to, and the follower lag gauges (see
	// replication.go). A fresh server is a ready primary on epoch 0.
	role         atomic.Int32
	ready        atomic.Bool
	epoch        atomic.Uint64
	promoteLSN   atomic.Uint64
	replLagLSNs  atomic.Int64
	replCaughtUp atomic.Int64 // unix nanos of the last caught-up moment
}

// New builds a Server and starts its ingest workers. Callers must
// eventually Shutdown it, even when it never listens.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:  cfg,
		reg:  NewRegistry(),
		met:  &metrics{start: time.Now()},
		mux:  http.NewServeMux(),
		jobs: make([]chan ingestJob, cfg.IngestWorkers),
		ob: obs.New(obs.Options{
			Node:        cfg.Node,
			SlowRequest: cfg.SlowRequest,
			Disabled:    cfg.TraceDisabled,
			Log:         cfg.Log,
		}),
	}
	s.log = cfg.Log.With("component", "server", "node", cfg.Node)
	s.RegisterMetrics(s.ob.EmitMetrics)
	s.adm.max = cfg.MaxInflightBytes
	depth := cfg.QueueDepth / cfg.IngestWorkers
	if depth < 1 {
		depth = 1
	}
	for i := range s.jobs {
		s.jobs[i] = make(chan ingestJob, depth)
	}
	s.ready.Store(true) // a fresh in-memory server is immediately ready
	s.routes()
	s.hs = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.workers.Add(cfg.IngestWorkers)
	for i := 0; i < cfg.IngestWorkers; i++ {
		go s.ingestWorker(i)
	}
	return s
}

// Registry exposes the sketch table, letting embedders (tests, the bench
// driver, examples) pre-create sketches without an HTTP round-trip.
func (s *Server) Registry() *Registry { return s.reg }

// Obs exposes the instance's observability bundle so embedders (the
// cluster agent, the store wiring in cmd/ussd) record into the same
// tracer, histograms and hot-traffic sketches the node exports.
func (s *Server) Obs() *obs.Observer { return s.ob }

// Log exposes the instance's structured logger so embedders log with the
// same handler and node field.
func (s *Server) Log() *slog.Logger { return s.cfg.Log }

// Handler returns the routed handler with tracing, metrics
// instrumentation and the request-timeout context wrapper, for mounting
// under httptest or an external server. The obs middleware is outermost
// so the per-class latency histograms and the edge span cover the whole
// request, timeout wrapper included.
func (s *Server) Handler() http.Handler {
	h := http.Handler(s.mux)
	if s.cfg.RequestTimeout > 0 {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			inner.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	return s.ob.Middleware(s.met.instrument(h))
}

// ListenAndServe binds cfg.Addr and serves until Shutdown. It returns
// nil after a clean Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Shutdown. A Serve that loses the race with
// Shutdown returns nil without accepting anything.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	err := s.hs.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr returns the bound listen address, once Serve has been called.
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops accepting requests, waits for in-flight handlers, then
// drains the async ingest queues so every batch acknowledged with 202 is
// applied before it returns. On a durable server the drain is followed
// by a final checkpoint — the SIGTERM checkpoint-on-drain — and the
// store is closed. ctx bounds only the HTTP connection drain; queued
// sketch work always completes.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	first := false
	s.qmu.Lock()
	if !s.closed {
		s.closed = true
		first = true
		for _, q := range s.jobs {
			close(q)
		}
	}
	s.qmu.Unlock()
	s.workers.Wait()
	if d := s.dur; d != nil && first {
		close(d.stop) // stops the checkpoint and pressure loops
		d.wg.Wait()
		cerr := s.Checkpoint() // checkpoint-on-drain: the clean-exit baseline
		s.dur = nil
		if serr := d.st.Close(); cerr == nil {
			cerr = serr
		}
		if err == nil {
			err = cerr
		}
	}
	return err
}

// queueFor routes an entry to its worker queue by name hash.
func (s *Server) queueFor(e *entry) chan ingestJob {
	return s.jobs[int(hashx.Sum32a(e.cfg.Name)%uint32(len(s.jobs)))]
}

// enqueue hands a job to its entry's worker, blocking for backpressure
// when that queue is full — but no further than ctx allows, so a dead
// or timed-out client cannot park its handler on a full queue forever.
// queued=false with a nil error means the server is shutting down;
// queued=false with ctx's error means the deadline struck first.
func (s *Server) enqueue(ctx context.Context, j ingestJob) (queued bool, err error) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return false, nil
	}
	select {
	case s.queueFor(j.e) <- j:
		s.met.queueDepth.Add(1)
		return true, nil
	default:
	}
	select {
	case s.queueFor(j.e) <- j:
		s.met.queueDepth.Add(1)
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// ingestWorker applies its queue's jobs until the queue closes.
func (s *Server) ingestWorker(i int) {
	defer s.workers.Done()
	for j := range s.jobs[i] {
		s.met.queueDepth.Add(-1)
		if j.b != nil {
			s.applyBatch(j.e, j.b, j.lsn)
			s.adm.release(j.charge)
			if j.done != nil {
				j.done <- applyResult{}
			}
			putBatch(j.b)
			continue
		}
		res := s.applyPush(j.e, j.push, j.red, j.lsn)
		s.adm.release(j.charge)
		j.done <- res
	}
}

// applyBatch routes one decoded batch into its entry's sketch, taking the
// entry lock for the single-writer kinds and going straight to the
// internally synchronized batched path for sharded entries — except in
// durable mode (lsn > 0), where sharded applies also take the entry lock
// so the applied-LSN watermark and checkpoint encoding see one
// consistent state. The row/dropped counters advance inside the same
// locked region as the watermark: a checkpoint reading (appliedLSN,
// rows) under e.mu must see a batch in both or in neither, or recovery
// would gate the batch's record out while its rows are missing from the
// persisted counter. This mirrors the per-kind replay in
// internal/store's rebuild (RebuiltSketch.applyIngest) — the two must
// stay in lockstep for recovery to be bit-identical, which
// TestKillDashNineRecovery pins.
//
// Sketch-update semantics are identical with and without the lock; the
// non-durable sharded path skips it because nothing checkpoints an
// in-memory entry.
func (s *Server) applyBatch(e *entry, b *ingestBatch, lsn uint64) {
	if s.ensureLive(e) != nil {
		// The cold blob failed to restore; the batch cannot apply. The
		// record (when durable) is still on the log and replays on the
		// next boot against the checkpointed state.
		return
	}
	rows := int64(len(b.items))
	finish := func(dropped int64) { // caller holds e.mu (or is lock-free sharded)
		e.rows.Add(rows)
		e.dropped.Add(dropped)
		if lsn > 0 {
			e.appliedLSN.Store(lsn)
		}
	}
	switch e.cfg.Kind {
	case KindSharded:
		if lsn > 0 {
			e.mu.Lock()
			e.sharded.UpdateBatch(b.items)
			finish(0)
			e.mu.Unlock()
		} else {
			e.sharded.UpdateBatch(b.items)
			finish(0)
		}
	case KindUnit:
		e.mu.Lock()
		e.unit.UpdateAll(b.items)
		finish(0)
		e.mu.Unlock()
	case KindWeighted:
		e.mu.Lock()
		for i, it := range b.items {
			w := 1.0
			if i < len(b.ws) {
				w = b.ws[i]
			}
			e.weighted.Update(it, w)
		}
		finish(0)
		e.mu.Unlock()
	case KindRollup:
		var dropped int64
		e.mu.Lock()
		for i, it := range b.items {
			if !e.rollup.Update(it, b.ats[i]) {
				dropped++
			}
		}
		finish(dropped)
		e.mu.Unlock()
	}
	s.met.rowsIngested.Add(rows)
	if !s.ob.Disabled() {
		s.ob.Hot.ObserveIngest(e.cfg.Name, b.items)
	}
}

// routes wires the endpoint table. Method-qualified patterns need the
// Go 1.22 ServeMux; {name} segments never match slashes.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.ob.HandleTraces)
	s.mux.HandleFunc("GET /v1/introspect/hot", s.handleIntrospectHot)

	s.mux.HandleFunc("GET /v1/replication/status", s.handleReplStatus)
	s.mux.HandleFunc("GET /v1/replication/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /v1/replication/checkpoint", s.handleReplCheckpoint)
	s.mux.HandleFunc("POST /v1/replication/promote", s.handleReplPromote)

	s.mux.HandleFunc("POST /v1/sketches", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sketches", s.handleList)
	s.mux.HandleFunc("GET /v1/sketches/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/sketches/{name}", s.handleDelete)

	s.mux.HandleFunc("POST /v1/sketches/{name}/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/sketches/{name}/snapshot", s.handlePush)
	s.mux.HandleFunc("GET /v1/sketches/{name}/snapshot", s.handlePull)

	for pattern, h := range s.PointReads(nil) {
		s.mux.HandleFunc(pattern, h)
	}

	s.mux.HandleFunc("GET /v1/sketches/{name}/range/topk", s.handleRangeTopK)
	s.mux.HandleFunc("GET /v1/sketches/{name}/range/sum", s.handleRangeSum)
	s.mux.HandleFunc("GET /v1/sketches/{name}/range/total", s.handleRangeTotal)
}

// lookup resolves {name} or writes the statusFor-mapped 404. It also
// revives a demoted entry before the handler touches sketch pointers.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		err := fmt.Errorf("sketch %q: %w", name, ErrNotFound)
		writeError(w, statusFor(err), err)
		return nil, false
	}
	if err := s.ensureLive(e); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil, false
	}
	if !s.ob.Disabled() {
		s.ob.Hot.ObserveRequest(name)
	}
	return e, true
}
