package server

// Admission control and memory watermarks: the server-side half of the
// overload story (the store's disk watermarks are the other half).
//
// Three mechanisms, all opt-in via Config:
//
//   - a global in-flight-bytes budget (MaxInflightBytes): every mutation
//     body charges its Content-Length on arrival and releases it when the
//     batch is applied (the charge rides the ingest job through the
//     queue), so queued-but-unapplied work is bounded. Over budget, the
//     request is shed with 503 + Retry-After before any decoding.
//   - a per-sketch token bucket (IngestRateRows): each sketch refills at
//     the configured rows/second up to IngestBurstRows; a batch that
//     outruns the bucket is shed with 429 + Retry-After computed from
//     the deficit, so well-behaved clients converge on the offered rate.
//   - a memory soft watermark (MemorySoftBytes, durable servers only):
//     when the estimated resident sketch footprint exceeds it, sketches
//     idle longer than ColdAfter are demoted — their exact state encoded
//     to a blob under <data-dir>/cold/ and the in-memory sketch freed.
//     The entry stays in the registry; the next touch revives it from
//     the blob. Checkpoints read the blob directly, so durability never
//     depends on reviving.
//
// Demotion safety: an entry is demoted only when no write is in flight
// for it (appendedLSN == appliedLSN), so a write always applies to the
// registry's sketch. Reads need no such guard: every request resolves
// its sketch once, through ensureLive, and a demotion only drops the
// registry's reference to it, so a read that raced one answers from the
// sketch it holds — the entry's exact state at the demotion, since any
// write after it revives a new sketch from the blob. ColdAfter and
// lastAccess only pick which idle entries to demote.

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// bytesPerBin is the resident-footprint estimate per sketch bin (item
// string header + label map slot + bin struct), used by the memory
// watermark. An estimate is enough: the watermark triggers shedding,
// it does not account.
const bytesPerBin = 128

// readOnlyRetryAfter is the Retry-After hint sent with mutations refused
// because the store's disk is below its hard watermark — long enough
// that a polite client does not hammer a full disk.
const readOnlyRetryAfter = 5 * time.Second

// admission is the global in-flight-bytes gate. max <= 0 disables the
// budget but the gauge still tracks.
type admission struct {
	max      int64
	inflight atomic.Int64
	lastShed atomic.Int64
}

// admit charges n bytes against the budget, refusing (and recording the
// shed) when the budget would be exceeded.
func (a *admission) admit(n int64) bool {
	if n <= 0 {
		return true
	}
	if next := a.inflight.Add(n); a.max > 0 && next > a.max {
		a.inflight.Add(-n)
		a.lastShed.Store(time.Now().UnixNano())
		return false
	}
	return true
}

// release returns n admitted bytes after their batch applied (or failed
// before handoff).
func (a *admission) release(n int64) {
	if n > 0 {
		a.inflight.Add(-n)
	}
}

// shedding reports whether the server is actively shedding load: a shed
// in the last second, or the in-flight budget over 90% consumed.
func (a *admission) shedding() bool {
	if time.Now().UnixNano()-a.lastShed.Load() < int64(time.Second) {
		return true
	}
	return a.max > 0 && a.inflight.Load()*10 >= a.max*9
}

// writeRetryError writes an error response with a Retry-After hint in
// whole seconds (minimum 1, the header's resolution).
func writeRetryError(w http.ResponseWriter, code int, after time.Duration, err error) {
	secs := int(after / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, code, err)
}

// admitBody charges the request body against the in-flight budget,
// writing the 503 shed response itself on refusal. The caller must
// release the returned charge unless it hands it to an ingest job.
func (s *Server) admitBody(w http.ResponseWriter, r *http.Request) (int64, bool) {
	charge := r.ContentLength
	if charge < 0 {
		charge = 0
	}
	if !s.adm.admit(charge) {
		s.met.shed503.Add(1)
		writeRetryError(w, http.StatusServiceUnavailable, time.Second,
			fmt.Errorf("server over its in-flight ingest budget (%d bytes); retry later", s.adm.max))
		return 0, false
	}
	return charge, true
}

// takeTokens draws n rows from the entry's token bucket (refill rate
// rows/second, capacity burst). On refusal it returns the wait after
// which the deficit will have refilled — the 429's Retry-After hint.
func (e *entry) takeTokens(n, rate, burst float64) (bool, time.Duration) {
	if burst < rate {
		burst = rate
	}
	now := time.Now().UnixNano()
	e.tbMu.Lock()
	defer e.tbMu.Unlock()
	if e.tbLast == 0 {
		e.tbTokens = burst
	} else if dt := float64(now-e.tbLast) / float64(time.Second); dt > 0 {
		e.tbTokens += dt * rate
		if e.tbTokens > burst {
			e.tbTokens = burst
		}
	}
	e.tbLast = now
	if e.tbTokens >= n {
		e.tbTokens -= n
		return true, 0
	}
	return false, time.Duration((n - e.tbTokens) / rate * float64(time.Second))
}

// ensureLive stamps the entry's access time and returns its live
// sketch, restoring it from the cold blob when it was demoted. Every
// path that touches an entry's sketch goes through here first and then
// uses the sketch returned, never e.sk: a demotion may drop e.sk at any
// point after this returns.
func (s *Server) ensureLive(e *entry) (*store.RebuiltSketch, error) {
	e.lastAccess.Store(time.Now().UnixNano())
	sk := e.sk.Load()
	if sk == nil {
		var err error
		if sk, err = s.revive(e); err != nil {
			return nil, err
		}
	}
	faultinject.Sleep("server.stall-live", 300*time.Millisecond)
	return sk, nil
}

// revive restores a demoted entry's sketch from its cold blob, unless a
// concurrent revive already did, and returns the live sketch.
func (s *Server) revive(e *entry) (*store.RebuiltSketch, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if sk := e.sk.Load(); sk != nil {
		return sk, nil
	}
	var rb *store.RebuiltSketch
	blob, err := os.ReadFile(e.coldPath)
	if err == nil {
		rb, err = store.NewRebuilt(specFromConfig(e.cfg))
	}
	if err == nil && len(blob) > 0 {
		err = rb.RestoreState(blob)
	}
	if err != nil {
		s.met.reviveErrors.Add(1)
		s.log.Warn("sketch revive failed", "sketch", e.cfg.Name, "err", err)
		return nil, fmt.Errorf("revive sketch %q: %w", e.cfg.Name, err)
	}
	e.sk.Store(rb)
	e.gen = rand.Uint64()
	_ = os.Remove(e.coldPath)
	s.met.revivals.Add(1)
	return rb, nil
}

// sizeTotalLocked reads the sketch's occupied bins, total mass and, for
// a rollup, its window count (a rollup reports no size). Caller holds
// e.mu on a live entry.
func (e *entry) sizeTotalLocked() (size int, total float64, windows int) {
	sk := e.sk.Load()
	switch e.cfg.Kind {
	case KindUnit:
		return sk.Unit.Size(), sk.Unit.Total(), 0
	case KindWeighted:
		return sk.Weighted.Size(), sk.Weighted.Total(), 0
	case KindSharded:
		return sk.Sharded.Size(), sk.Sharded.Total(), 0
	}
	ws := sk.Rollup.Windows()
	if len(ws) == 0 {
		return 0, 0, 0
	}
	return 0, sk.Rollup.TotalRange(ws[0], ws[len(ws)-1]), len(ws)
}

// demote encodes the entry's exact state to its cold blob and frees the
// in-memory sketch. It refuses when anything is in flight (the
// appended/applied watermarks differ) so the blob is a complete cut.
// Reports whether the entry was demoted.
func (s *Server) demote(e *entry) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sk.Load() == nil || e.appendedLSN.Load() != e.appliedLSN.Load() {
		return false
	}
	blob, err := e.encodeState()
	if err != nil {
		return false
	}
	size, total, _ := e.sizeTotalLocked()
	dir := filepath.Join(s.dur.st.Dir(), "cold")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false
	}
	path := filepath.Join(dir, url.PathEscape(e.cfg.Name)+".uss")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return false
	}
	e.coldPath, e.coldSize, e.coldTotal = path, size, total
	e.sk.Store(nil)
	e.qe, e.prep, e.enc = nil, nil, nil
	s.met.demotions.Add(1)
	return true
}

// maybeDemote checks the resident-footprint estimate against the memory
// soft watermark and demotes the coldest idle sketches until back under.
// Durable servers only — demotion needs somewhere to put the state.
func (s *Server) maybeDemote() {
	soft := s.cfg.MemorySoftBytes
	if soft <= 0 || s.dur == nil {
		return
	}
	now := time.Now().UnixNano()
	var est int64
	var cands []*entry
	for _, e := range s.reg.List() {
		if e.sk.Load() == nil {
			continue
		}
		est += int64(e.capacity()) * bytesPerBin
		if now-e.lastAccess.Load() >= int64(s.cfg.ColdAfter) {
			cands = append(cands, e)
		}
	}
	if est <= soft {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastAccess.Load() < cands[j].lastAccess.Load()
	})
	for _, e := range cands {
		if est <= soft {
			return
		}
		if s.demote(e) {
			est -= int64(e.capacity()) * bytesPerBin
		}
	}
}

// pressureLoop is the durable server's background pressure responder:
// it takes an emergency checkpoint when the store crosses a disk
// watermark (checkpoints truncate the log — the one way the server can
// return disk space on its own) and runs memory-watermark demotion.
func (s *Server) pressureLoop() {
	defer s.dur.wg.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	var seenTrips int64
	for {
		select {
		case <-s.dur.stop:
			return
		case <-t.C:
			sm := s.dur.st.Metrics()
			if trips := sm.DiskSoftTrips.Load() + sm.DiskHardTrips.Load(); trips > seenTrips {
				seenTrips = trips
				if err := s.Checkpoint(); err != nil {
					s.met.checkpointErrors.Add(1)
					s.log.Warn("emergency checkpoint failed under disk pressure", "err", err)
				}
			}
			s.maybeDemote()
		}
	}
}
