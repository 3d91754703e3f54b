package server

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// metrics holds the server's counters. Everything is an atomic so the hot
// paths (ingest workers, query handlers) never share a lock with the
// scrape endpoint, and the hottest counters — touched on every row, batch,
// query, and 2xx response — are striped across cache lines (stripedInt64)
// so parallel workers don't serialize on one shared line either.
type metrics struct {
	start time.Time

	requests2xx stripedInt64
	requests4xx atomic.Int64
	requests5xx atomic.Int64

	rowsIngested   stripedInt64 // rows applied to sketches
	batchesQueued  stripedInt64 // ingest batches accepted (sync + async)
	queueDepth     atomic.Int64 // batches currently waiting for a worker
	snapshotsIn    atomic.Int64 // push requests merged
	snapshotsOut   atomic.Int64 // pull responses served
	queriesServed  stripedInt64 // query/topk/estimate/sum/range requests
	ingestRejected atomic.Int64 // ingest requests refused (parse, size, kind)

	checkpoints      atomic.Int64 // durable checkpoints committed
	checkpointErrors atomic.Int64 // background checkpoint failures

	shed429      atomic.Int64 // batches shed by the per-sketch token bucket
	shed503      atomic.Int64 // bodies shed by the in-flight-bytes budget
	demotions    atomic.Int64 // sketches demoted to cold blobs
	revivals     atomic.Int64 // cold sketches revived on access
	reviveErrors atomic.Int64 // cold blobs that failed to restore

	promotions      atomic.Int64 // follower→primary promotions
	replApplied     atomic.Int64 // records applied from the replication stream
	replReconnects  atomic.Int64 // replication stream reconnects
	replResyncs     atomic.Int64 // full resyncs (checkpoint catch-up restarts)
	replMergedTails atomic.Int64 // diverged-tail records merged on rejoin
}

// boolGauge renders a bool as a 0/1 gauge value.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countStatus buckets one response code.
func (m *metrics) countStatus(code int) {
	switch {
	case code >= 500:
		m.requests5xx.Add(1)
	case code >= 400:
		m.requests4xx.Add(1)
	default:
		m.requests2xx.Add(1)
	}
}

// statusRecorder captures the response code for the metrics middleware.
// It forwards the optional ResponseWriter interfaces it would otherwise
// swallow: Flush for the replication WAL long-poll and other streaming
// responses, Unwrap for http.ResponseController callers.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming endpoints keep
// flushing through the metrics middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController,
// which walks Unwrap chains to find Flusher/Hijacker/deadline support.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps h so every response is counted by status class.
func (m *metrics) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, req)
		m.countStatus(rec.code)
	})
}

// handleMetrics serves the counters in the Prometheus text exposition
// format, plus per-sketch row counts from the registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.met
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	// fam opens a metric family: HELP then TYPE, each exactly once, both
	// before the family's first sample — the exposition-format contract
	// the strict-checker test pins.
	fam := func(name, typ, help string) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s %s\n", name, typ)
	}
	fam("ussd_uptime_seconds", "gauge", "Seconds since the server started.")
	p("ussd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	fam("ussd_http_requests_total", "counter", "HTTP responses by status class.")
	p("ussd_http_requests_total{class=\"2xx\"} %d\n", m.requests2xx.Load())
	p("ussd_http_requests_total{class=\"4xx\"} %d\n", m.requests4xx.Load())
	p("ussd_http_requests_total{class=\"5xx\"} %d\n", m.requests5xx.Load())
	fam("ussd_rows_ingested_total", "counter", "Rows applied to sketches.")
	p("ussd_rows_ingested_total %d\n", m.rowsIngested.Load())
	fam("ussd_ingest_batches_total", "counter", "Ingest batches accepted (sync and async).")
	p("ussd_ingest_batches_total %d\n", m.batchesQueued.Load())
	fam("ussd_ingest_rejected_total", "counter", "Ingest requests refused (parse, size, kind).")
	p("ussd_ingest_rejected_total %d\n", m.ingestRejected.Load())
	fam("ussd_ingest_queue_depth", "gauge", "Batches waiting for an ingest worker.")
	p("ussd_ingest_queue_depth %d\n", m.queueDepth.Load())
	fam("ussd_snapshots_pushed_total", "counter", "Snapshot push requests merged in.")
	p("ussd_snapshots_pushed_total %d\n", m.snapshotsIn.Load())
	fam("ussd_snapshots_pulled_total", "counter", "Snapshot pull responses served.")
	p("ussd_snapshots_pulled_total %d\n", m.snapshotsOut.Load())
	fam("ussd_queries_total", "counter", "Query/topk/estimate/sum/range requests served.")
	p("ussd_queries_total %d\n", m.queriesServed.Load())
	fam("ussd_admission_shed_total", "counter", "Requests shed by admission control, by response code.")
	p("ussd_admission_shed_total{code=\"429\"} %d\n", m.shed429.Load())
	p("ussd_admission_shed_total{code=\"503\"} %d\n", m.shed503.Load())
	fam("ussd_inflight_bytes", "gauge", "Mutation-body bytes admitted but not yet applied.")
	p("ussd_inflight_bytes %d\n", s.adm.inflight.Load())
	fam("ussd_shedding", "gauge", "1 while the in-flight-bytes budget is shedding mutations.")
	p("ussd_shedding %d\n", boolGauge(s.adm.shedding()))
	fam("ussd_sketch_demotions_total", "counter", "Sketches demoted to cold on-disk blobs.")
	p("ussd_sketch_demotions_total %d\n", m.demotions.Load())
	fam("ussd_sketch_revivals_total", "counter", "Cold sketches revived on access.")
	p("ussd_sketch_revivals_total %d\n", m.revivals.Load())
	fam("ussd_sketch_revive_errors_total", "counter", "Cold blobs that failed to restore.")
	p("ussd_sketch_revive_errors_total %d\n", m.reviveErrors.Load())

	if d := s.dur; d != nil {
		sm := d.st.Metrics()
		fam("ussd_wal_appends_total", "counter", "Records appended to the WAL.")
		p("ussd_wal_appends_total %d\n", sm.Appends.Load())
		fam("ussd_wal_bytes_total", "counter", "Framed bytes written to the WAL.")
		p("ussd_wal_bytes_total %d\n", sm.Bytes.Load())
		fam("ussd_wal_fsyncs_total", "counter", "WAL fsync calls.")
		p("ussd_wal_fsyncs_total %d\n", sm.Syncs.Load())
		fam("ussd_wal_rotations_total", "counter", "WAL segment rotations.")
		p("ussd_wal_rotations_total %d\n", sm.Rotations.Load())
		fam("ussd_wal_last_lsn", "gauge", "Highest LSN appended to the WAL.")
		p("ussd_wal_last_lsn %d\n", d.st.LastLSN())
		fam("ussd_checkpoints_total", "counter", "Durable checkpoints committed.")
		p("ussd_checkpoints_total %d\n", m.checkpoints.Load())
		fam("ussd_checkpoint_errors_total", "counter", "Background checkpoint failures.")
		p("ussd_checkpoint_errors_total %d\n", m.checkpointErrors.Load())
		fam("ussd_wal_sync_errors_total", "counter", "WAL fsync failures.")
		p("ussd_wal_sync_errors_total %d\n", sm.SyncErrors.Load())
		fam("ussd_disk_pressure", "gauge", "Disk pressure level (0 ok, 1 soft, 2 hard/read-only).")
		p("ussd_disk_pressure %d\n", d.st.Pressure())
		fam("ussd_disk_soft_trips_total", "counter", "Transitions into soft disk pressure.")
		p("ussd_disk_soft_trips_total %d\n", sm.DiskSoftTrips.Load())
		fam("ussd_disk_hard_trips_total", "counter", "Transitions into hard (read-only) disk pressure.")
		p("ussd_disk_hard_trips_total %d\n", sm.DiskHardTrips.Load())
		fam("ussd_readonly_rejects_total", "counter", "Mutations rejected while the store was read-only.")
		p("ussd_readonly_rejects_total %d\n", sm.ReadOnlyRejects.Load())
		fam("ussd_recovery_unapplied_records", "gauge", "Log records boot recovery did not apply: replay stopped at an undecodable record.")
		p("ussd_recovery_unapplied_records %d\n", d.unapplied)
	}

	fam("ussd_replication_role", "gauge", "Replication role of this node (label carries the role).")
	p("ussd_replication_role{role=%q} 1\n", s.Role())
	fam("ussd_ready", "gauge", "1 once recovery/catch-up is done and the node serves reads.")
	p("ussd_ready %d\n", boolGauge(s.Ready()))
	fam("ussd_replication_epoch", "gauge", "Timeline epoch this node's log belongs to.")
	p("ussd_replication_epoch %d\n", s.Epoch())
	fam("ussd_promotions_total", "counter", "Follower-to-primary promotions.")
	p("ussd_promotions_total %d\n", m.promotions.Load())
	fam("ussd_replication_merged_tail_total", "counter", "Diverged-tail records merged on rejoin.")
	p("ussd_replication_merged_tail_total %d\n", m.replMergedTails.Load())
	if s.Role() == RoleFollower {
		lagLSNs, lagSec := s.replicationLag()
		fam("ussd_replication_lag_lsns", "gauge", "LSNs behind the primary.")
		p("ussd_replication_lag_lsns %d\n", lagLSNs)
		fam("ussd_replication_lag_seconds", "gauge", "Seconds since this follower was last caught up.")
		p("ussd_replication_lag_seconds %.3f\n", lagSec)
		fam("ussd_replication_applied_total", "counter", "Records applied from the replication stream.")
		p("ussd_replication_applied_total %d\n", m.replApplied.Load())
		fam("ussd_replication_reconnects_total", "counter", "Replication stream reconnects.")
		p("ussd_replication_reconnects_total %d\n", m.replReconnects.Load())
		fam("ussd_replication_resyncs_total", "counter", "Full resyncs (checkpoint catch-up restarts).")
		p("ussd_replication_resyncs_total %d\n", m.replResyncs.Load())
	}

	entries := s.reg.List()
	fam("ussd_sketches", "gauge", "Registered sketches.")
	p("ussd_sketches %d\n", len(entries))
	fam("ussd_sketch_rows", "counter", "Rows ingested per sketch.")
	for _, e := range entries {
		p("ussd_sketch_rows{name=%q,kind=%q} %d\n", e.cfg.Name, e.cfg.Kind, e.rows.Load())
	}

	s.extraMu.Lock()
	extras := make([]func(io.Writer), len(s.extraMetrics))
	copy(extras, s.extraMetrics)
	s.extraMu.Unlock()
	for _, f := range extras {
		f(w)
	}
}

// RegisterMetrics adds an emitter the /metrics endpoint appends after
// the server's own series — how embedders (the cluster agent, the bench
// harness) export their counters through the node's scrape endpoint.
func (s *Server) RegisterMetrics(f func(w io.Writer)) {
	s.extraMu.Lock()
	s.extraMetrics = append(s.extraMetrics, f)
	s.extraMu.Unlock()
}

// handleHealthz reports liveness. It never touches sketch state, so a
// wedged merge cannot take the probe down with it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.met.start).Seconds(),
	})
}
