package store

import (
	"context"
	"fmt"
)

// DirNextLSN reports the LSN the log in dir would assign next, without
// opening the store: the last on-disk LSN plus one, or — when the log
// is empty — one past the newest checkpoint's coverage (the same
// derivation Open uses). A follower preparing its data dir uses it to
// pick the stream position before the store exists.
func DirNextLSN(dir string) (uint64, error) {
	_, lastLSN, _, err := scanLog(dir, nil)
	if err != nil {
		return 0, err
	}
	if lastLSN == 0 {
		if gen := latestCheckpointGen(dir); gen != 0 {
			man, err := loadManifest(dir, gen)
			if err != nil {
				return 0, err
			}
			lastLSN = man.Cutoff
			for i := range man.Sketches {
				if l := man.Sketches[i].LSN; l > lastLSN {
					lastLSN = l
				}
			}
		}
	}
	return lastLSN + 1, nil
}

// NextLSN returns the LSN the next appended record will receive.
func (s *Store) NextLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segFirst + uint64(s.segRecs)
}

// WaitForLSN blocks until the log contains a record at or above lsn, the
// context is done, or the store closes. It returns the current LastLSN
// and whether the wait was satisfied — the WAL-stream long-poll's
// building block.
func (s *Store) WaitForLSN(ctx context.Context, lsn uint64) (uint64, bool) {
	for {
		s.mu.Lock()
		last := s.lastLSN()
		closed := s.closed
		ch := s.notify
		s.mu.Unlock()
		if last >= lsn {
			return last, true
		}
		if closed {
			return last, false
		}
		select {
		case <-ctx.Done():
			return last, false
		case <-ch:
		}
	}
}

// AppendReplicated appends a record received from a replication stream,
// pinning it to the LSN the primary assigned. The payload is the frame
// payload exactly as the primary logged it (type byte + body), so the
// follower's log is byte-identical to the primary's. A duplicate
// (lsn ≤ LastLSN) is skipped and reported, a gap (lsn > NextLSN) is an
// error — the follower re-requests from its own tail instead of logging
// out of order.
func (s *Store) AppendReplicated(lsn uint64, payload []byte) (applied bool, err error) {
	if len(payload) == 0 || int64(len(payload)) > maxRecordBytes {
		return false, fmt.Errorf("store: replicated record at lsn %d: bad payload length %d", lsn, len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, fmt.Errorf("store: append to closed store")
	}
	next := s.segFirst + uint64(s.segRecs)
	if lsn < next {
		return false, nil // duplicate frame (resend, dup-frame fault): already logged
	}
	if lsn > next {
		return false, fmt.Errorf("store: replicated record at lsn %d leaves a gap (next is %d)", lsn, next)
	}
	buf := append(s.stage(), payload...)
	s.sealFrame(buf)
	if _, err := s.append(s.buf); err != nil {
		return false, err
	}
	return true, nil
}

// errStreamStop is scanSegment's early-exit sentinel for StreamPayloads.
var errStreamStop = fmt.Errorf("store: stream stop")

// StreamPayloads reads raw record payloads from dir's log in LSN order,
// starting at from, read-only — it is the primary-side source of the
// replication stream and is safe to run against a live store's data dir
// (a torn final record is just the in-flight tail; streaming stops
// there). fn receives each payload exactly as logged; budget bounds the
// total payload bytes delivered per call (≤ 0 means unlimited). oldest
// is the lowest LSN still on disk (0 when the log is empty): when
// from < oldest the records were checkpoint-truncated and the caller
// must fall back to a checkpoint bundle.
func StreamPayloads(dir string, from uint64, budget int64, fn func(lsn uint64, payload []byte) error) (oldest uint64, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	oldest = segs[0].firstLSN
	var sent int64
	for i := range segs {
		seg := &segs[i]
		// Records of segment i span [firstLSN, next.firstLSN); skip
		// segments wholly below from.
		if i+1 < len(segs) && segs[i+1].firstLSN <= from {
			continue
		}
		scanErr := scanSegment(seg, func(lsn uint64, payload []byte) error {
			if lsn < from {
				return nil
			}
			if budget > 0 && sent > 0 && sent+int64(len(payload)) > budget {
				return errStreamStop
			}
			if err := fn(lsn, payload); err != nil {
				return err
			}
			sent += int64(len(payload))
			return nil
		})
		if scanErr == errStreamStop {
			return oldest, nil
		}
		if scanErr != nil {
			return oldest, scanErr
		}
		if seg.torn {
			// Live tail or damage: either way the stream has no trustworthy
			// records past this point right now.
			return oldest, nil
		}
	}
	return oldest, nil
}
