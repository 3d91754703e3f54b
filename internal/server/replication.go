package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// Role is a server's replication role. A primary accepts client
// mutations and serves the WAL stream; a follower rejects client
// mutations and applies records its replica loop pulls from the
// primary. Queries are served in both roles.
type Role int32

// The two replication roles.
const (
	RolePrimary Role = iota
	RoleFollower
)

// String renders the role for status endpoints and logs.
func (r Role) String() string {
	if r == RoleFollower {
		return "follower"
	}
	return "primary"
}

// ErrNotFollower reports a replicated apply on a server that is not (or
// is no longer) a follower — the replica loop stops on it.
var ErrNotFollower = errors.New("server: not a follower")

// streamLSNBytes prefixes every WAL-stream frame payload: the record's
// LSN, big-endian. The stream must carry LSNs explicitly — the
// fault-injection harness drops and duplicates frames on purpose, and
// the follower detects both only because each frame names its position.
const streamLSNBytes = 8

// maxStreamWait caps the WAL stream's long-poll so a poll always
// returns well inside the request timeout.
const maxStreamWait = 20 * time.Second

// defaultStreamBytes bounds one WAL stream response's payload bytes.
const defaultStreamBytes = 4 << 20

// Role returns the server's current replication role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// SetRole sets the replication role without promotion bookkeeping — the
// startup knob (`ussd -follow` boots as RoleFollower). Promotion during
// failover must go through Promote instead.
func (s *Server) SetRole(r Role) { s.role.Store(int32(r)) }

// Ready reports readiness: recovery finished and, on a follower, the
// first catch-up with the primary completed.
func (s *Server) Ready() bool { return s.ready.Load() }

// SetReady flips the /readyz readiness gate (the replica loop raises it
// after first catch-up; `ussd -follow` boots not-ready).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Epoch returns the replication timeline epoch this server is on.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// PromoteLSN returns the LSN at which this server's epoch began (0 on
// the initial timeline).
func (s *Server) PromoteLSN() uint64 { return s.promoteLSN.Load() }

// AdoptTimeline records that this server now follows the given timeline
// (a follower syncing onto a promoted primary's epoch), persisting it
// when durable.
func (s *Server) AdoptTimeline(tl store.Timeline) error {
	if d := s.dur; d != nil {
		if err := store.SaveTimeline(d.st.Dir(), tl); err != nil {
			return err
		}
	}
	s.epoch.Store(tl.Epoch)
	s.promoteLSN.Store(tl.PromoteLSN)
	return nil
}

// SetReplicationLag records the follower's distance behind the primary
// in LSNs (the replica loop calls it after every stream batch and
// heartbeat); lag 0 stamps the caught-up time the lag-seconds gauge
// measures from.
func (s *Server) SetReplicationLag(lagLSNs int64) {
	s.replLagLSNs.Store(lagLSNs)
	if lagLSNs == 0 {
		s.replCaughtUp.Store(time.Now().UnixNano())
	}
}

// replicationLag returns the current lag in LSNs and seconds. Lag in
// seconds is 0 while caught up, otherwise the time since the follower
// was last caught up (process start when it never was).
func (s *Server) replicationLag() (int64, float64) {
	lag := s.replLagLSNs.Load()
	if lag == 0 {
		return 0, 0
	}
	since := s.replCaughtUp.Load()
	if since == 0 {
		return lag, time.Since(s.met.start).Seconds()
	}
	return lag, time.Since(time.Unix(0, since)).Seconds()
}

// Promote turns a follower into the primary: the current log end is
// recorded as the new epoch's starting point and the timeline file is
// durably rewritten before the role flips, so a crash straddling
// promotion cannot lose the epoch. Records the old primary acknowledged
// but never replicated sit above the recorded PromoteLSN on its own log
// — it reconciles them by merging when it rejoins. Idempotent on a
// primary.
func (s *Server) Promote() error {
	d := s.dur
	if d != nil {
		// walMu serializes promotion against replicated applies: once the
		// role flips, ApplyReplicated refuses, so no old-epoch record can
		// land above the recorded PromoteLSN, and every replicated record
		// logged before it is already in its entry's queue, ahead of any
		// client write the promoted server takes.
		d.walMu.Lock()
		defer d.walMu.Unlock()
	}
	if s.Role() == RolePrimary {
		return nil
	}
	tl := store.Timeline{Epoch: s.epoch.Load() + 1}
	if d != nil {
		// The new epoch starts at the log end, so that end must be durable
		// before the timeline names it.
		tl.PromoteLSN = d.st.LastLSN()
		if err := d.waitDurable(context.Background(), tl.PromoteLSN, "promotion"); err != nil {
			return err
		}
		if err := store.SaveTimeline(d.st.Dir(), tl); err != nil {
			return err
		}
	}
	s.epoch.Store(tl.Epoch)
	s.promoteLSN.Store(tl.PromoteLSN)
	s.role.Store(int32(RolePrimary))
	s.ready.Store(true)
	s.SetReplicationLag(0)
	s.met.promotions.Add(1)
	return nil
}

// ApplyReplicated logs and applies one record pulled from the primary's
// WAL stream, pinned to the LSN the primary assigned. It decodes the
// record first; then, in one walMu section, it appends the record to the
// local log (byte-identical to the primary's) and hands it on the way the
// primary's own mutations go: a create or delete changes the registry
// inline, as createSketch and deleteSketch do, and an ingest or snapshot
// record joins its entry's queue, as write does. So queue order is LSN
// order, the entry's worker applies the record through the same
// store.RebuiltSketch methods recovery replays with, and a Promote
// (which takes walMu) finds every replicated record queued ahead of the
// first client write. It returns once the record is durable and applied.
// A record recovery would skip — for a sketch the log never created, with
// a bad reduction or blob, or a snapshot into a non-weighted sketch — is
// logged but not applied, with a warning, and the stream goes on. A
// duplicate LSN is skipped silently (dup-frame faults, stream resumes); a
// gap is an error and the caller must re-request from its log end.
func (s *Server) ApplyReplicated(lsn uint64, payload []byte) error {
	d := s.dur
	if d == nil {
		return fmt.Errorf("server: replicated apply needs an attached store")
	}
	rec, err := store.DecodePayload(lsn, payload)
	if err != nil {
		return fmt.Errorf("server: replicated record %d: %w", lsn, err)
	}
	j := ingestJob{lsn: lsn}
	var skip error
	switch rec.Type {
	case store.TypeIngest:
		j.b = &ingestBatch{items: rec.Items, ws: rec.Weights, ats: rec.Ats}
	case store.TypeSnapshot:
		j.red, j.push, skip = rec.PushedBins()
	}

	d.walMu.Lock()
	if s.Role() != RoleFollower {
		d.walMu.Unlock()
		return ErrNotFollower
	}
	logged, err := d.st.AppendReplicated(lsn, payload)
	if err != nil {
		d.walMu.Unlock()
		return err
	}
	if logged {
		s.met.replApplied.Add(1)
		switch rec.Type {
		case store.TypeCreate:
			e, cerr := s.reg.Create(configFromSpec(rec.Spec))
			if cerr == nil {
				e.appliedLSN.Store(lsn)
				e.appendedLSN.Store(lsn)
			} else if !errors.Is(cerr, ErrExists) {
				err = fmt.Errorf("server: replicated create %q: %w", rec.Name, cerr)
			}
		case store.TypeDelete:
			s.reg.Delete(rec.Name)
		case store.TypeIngest, store.TypeSnapshot:
			e, ok := s.reg.Get(rec.Name)
			if !ok {
				skip = ErrNotFound
			} else if skip == nil {
				j.e, j.done = e, make(chan applyResult, 1)
				e.appendedLSN.Store(lsn)
				if queued, _ := s.enqueue(context.Background(), j); !queued {
					// The record sits above the entry's watermark, so the
					// drain checkpoint spares it and the next boot replays it.
					err = fmt.Errorf("server: shutting down; replicated record %d logged, not applied", lsn)
				}
			}
		}
	}
	d.walMu.Unlock()
	// No append fsyncs by itself, so every logged or duplicate record waits
	// here: a re-request after a failed wait sees its record as a duplicate.
	if werr := d.waitDurable(context.Background(), lsn, "replicated record"); err == nil {
		err = werr
	}
	if err != nil || !logged {
		return err
	}
	if j.done != nil {
		skip = (<-j.done).err
	}
	if skip != nil {
		s.log.Warn("replicated record logged but not applied", "lsn", lsn, "sketch", rec.Name, "err", skip)
	}
	return nil
}

// WALNextLSN returns the attached store's next LSN (0 when the server
// is not durable) — the position a follower's stream request resumes
// from.
func (s *Server) WALNextLSN() uint64 {
	if d := s.dur; d != nil {
		return d.st.NextLSN()
	}
	return 0
}

// NoteReconnect counts one replication-stream reconnect (replica loop).
func (s *Server) NoteReconnect() { s.met.replReconnects.Add(1) }

// NoteResync counts one full resync from a checkpoint bundle (replica
// loop).
func (s *Server) NoteResync() { s.met.replResyncs.Add(1) }

// NoteMergedTail counts diverged-tail records merged back into the new
// primary during rejoin reconciliation (replica loop).
func (s *Server) NoteMergedTail(n int64) { s.met.replMergedTails.Add(n) }

// followerRejects writes a 503 and reports true when this server is a
// follower — client mutations must go to the primary (replicated
// applies bypass the HTTP mutation handlers entirely).
func (s *Server) followerRejects(w http.ResponseWriter) bool {
	if s.Role() != RoleFollower {
		return false
	}
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("this server is a replication follower; send writes to the primary"))
	return true
}

// ReplStatus is the GET /v1/replication/status response: everything a
// follower (or operator) needs to decide how to sync — role, timeline,
// log position and readiness.
type ReplStatus struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Ready mirrors /readyz.
	Ready bool `json:"ready"`
	// Epoch and PromoteLSN identify the replication timeline.
	Epoch      uint64 `json:"epoch"`
	PromoteLSN uint64 `json:"promote_lsn"`
	// Durable reports whether a store is attached; the remaining fields
	// are meaningful only when it is.
	Durable bool `json:"durable"`
	// LastLSN and NextLSN are the log's current extent.
	LastLSN uint64 `json:"last_lsn"`
	NextLSN uint64 `json:"next_lsn"`
	// CheckpointGen is the newest committed checkpoint generation.
	CheckpointGen uint64 `json:"checkpoint_gen"`
	// LagLSNs and LagSeconds are the follower's replication lag.
	LagLSNs    int64   `json:"lag_lsns,omitempty"`
	LagSeconds float64 `json:"lag_seconds,omitempty"`
}

// replStatus assembles the current ReplStatus.
func (s *Server) replStatus() ReplStatus {
	st := ReplStatus{
		Role:       s.Role().String(),
		Ready:      s.Ready(),
		Epoch:      s.Epoch(),
		PromoteLSN: s.PromoteLSN(),
	}
	if d := s.dur; d != nil {
		st.Durable = true
		st.LastLSN = d.st.LastLSN()
		st.NextLSN = d.st.NextLSN()
	}
	if s.Role() == RoleFollower {
		st.LagLSNs, st.LagSeconds = s.replicationLag()
	}
	return st
}

func (s *Server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.replStatus())
}

func (s *Server) handleReplPromote(w http.ResponseWriter, _ *http.Request) {
	if err := s.Promote(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, s.replStatus())
}

// handleReplCheckpoint streams the newest committed checkpoint as a
// transport bundle (manifest + state blobs, log-framed) — the follower
// catch-up baseline. 204 means no checkpoint exists yet and the
// follower streams the log from LSN 1 instead.
func (s *Server) handleReplCheckpoint(w http.ResponseWriter, _ *http.Request) {
	d := s.dur
	if d == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("replication needs a durable server (-data-dir)"))
		return
	}
	bundle, gen, err := store.EncodeCheckpointBundle(d.st.Dir())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Uss-Checkpoint-Gen", strconv.FormatUint(gen, 10))
	if gen == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(bundle)))
	_, _ = w.Write(bundle)
}

// handleReplWAL serves the replication stream: record payloads from
// ?from= onward, each framed with the log's len|crc32 framing over an
// 8-byte big-endian LSN prefix plus the payload exactly as logged.
// ?wait_ms long-polls until a record at or above from exists. Responses
// carry the primary's position and timeline in X-Uss-* headers. 410
// means from was checkpoint-truncated away — fall back to the
// checkpoint bundle. The repl.drop-frame, repl.dup-frame and
// repl.delay-frame failpoints act here, per frame.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	d := s.dur
	if d == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("replication needs a durable server (-data-dir)"))
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q (want a positive LSN)", q.Get("from")))
		return
	}
	next := d.st.NextLSN()
	if from > next {
		// The follower's log extends past ours: it is from a diverged
		// timeline (or talking to the wrong primary).
		writeError(w, http.StatusConflict,
			fmt.Errorf("from=%d is past this primary's next LSN %d; resync required", from, next))
		return
	}
	if waitMS, _ := strconv.Atoi(q.Get("wait_ms")); waitMS > 0 && d.st.LastLSN() < from {
		wait := time.Duration(waitMS) * time.Millisecond
		if wait > maxStreamWait {
			wait = maxStreamWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		d.st.WaitForLSN(ctx, from)
		cancel()
	}

	budget := int64(defaultStreamBytes)
	if mb, _ := strconv.ParseInt(q.Get("max_bytes"), 10, 64); mb > 0 {
		budget = mb
	}
	// Read the log position before scanning: every record below it was
	// fully written before this point, so a scan that comes up short
	// below scanNext proves truncation, not a mid-append race.
	scanNext := d.st.NextLSN()
	var body []byte
	var frame []byte
	count, first, last := 0, uint64(0), uint64(0)
	oldest, err := store.StreamPayloads(d.st.Dir(), from, budget, func(lsn uint64, payload []byte) error {
		// count/first track what the scan found on disk — the 410 decision
		// below must not be confused by frames injection then drops.
		if count == 0 {
			first = lsn
		}
		count++
		last = lsn
		if faultinject.Hit("repl.drop-frame") {
			return nil // dropped on the floor: the follower sees the gap and re-requests
		}
		faultinject.Sleep("repl.delay-frame", 30*time.Millisecond)
		frame = binary.BigEndian.AppendUint64(frame[:0], lsn)
		frame = append(frame, payload...)
		body = store.AppendFramed(body, frame)
		if faultinject.Hit("repl.dup-frame") {
			body = store.AppendFramed(body, frame)
		}
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if from < scanNext && (count == 0 || first > from) {
		// Nothing on disk at from even though the log extends past it:
		// those records were truncated by a checkpoint. The stream cannot
		// serve them, catch up from the checkpoint bundle instead.
		writeError(w, http.StatusGone,
			fmt.Errorf("LSN %d was checkpoint-truncated (oldest on disk is %d); catch up from the checkpoint", from, oldest))
		return
	}
	w.Header().Set("X-Uss-First-Lsn", strconv.FormatUint(first, 10))
	w.Header().Set("X-Uss-Count", strconv.Itoa(count))
	w.Header().Set("X-Uss-Last-Lsn", strconv.FormatUint(d.st.LastLSN(), 10))
	w.Header().Set("X-Uss-Stream-Last", strconv.FormatUint(last, 10))
	w.Header().Set("X-Uss-Epoch", strconv.FormatUint(s.Epoch(), 10))
	w.Header().Set("X-Uss-Promote-Lsn", strconv.FormatUint(s.PromoteLSN(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// CutStreamFrame parses one WAL-stream frame off the front of b: the
// frame's LSN, its record payload (aliasing b) and the remainder. A
// clean empty b returns lsn 0 with no error.
func CutStreamFrame(b []byte) (lsn uint64, payload, rest []byte, err error) {
	inner, rest, err := store.CutFrame(b)
	if err != nil || inner == nil {
		return 0, nil, rest, err
	}
	if len(inner) <= streamLSNBytes {
		return 0, nil, nil, fmt.Errorf("server: stream frame too short (%d bytes)", len(inner))
	}
	return binary.BigEndian.Uint64(inner), inner[streamLSNBytes:], rest, nil
}

// handleReadyz is the readiness probe: 200 once recovery (and, on a
// follower, first catch-up) completed, 503 before. Followers include
// their replication lag. Liveness stays on /healthz, which never gates
// on replication state.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"ready":    s.Ready(),
		"role":     s.Role().String(),
		"epoch":    s.Epoch(),
		"shedding": s.adm.shedding(),
	}
	if d := s.dur; d != nil {
		pr := d.st.Pressure()
		body["pressure"] = store.PressureString(pr)
		body["read_only"] = pr == store.DiskHard
	}
	if s.Role() == RoleFollower {
		lagLSNs, lagSec := s.replicationLag()
		body["lag_lsns"] = lagLSNs
		body["lag_seconds"] = lagSec
	}
	code := http.StatusOK
	if !s.Ready() {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, body)
}
