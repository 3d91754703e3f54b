package store

// Group commit: the ordering rules that let one fsync cover many
// sketches' appends without weakening the ack protocol.
//
// The write path splits into three steps with distinct locking:
//
//  1. Encode. Each batch frames itself into a pooled buffer with no lock
//     held (AppendIngest), so concurrent handlers encode in parallel.
//  2. Append. The buffer write and LSN assignment serialize on the store
//     mutex. An append never fsyncs, so this is the only per-batch
//     serialized work.
//  3. Fsync. Under SyncAlways, WaitDurable is the only ack gate. A
//     waiter whose LSN is not yet covered and that finds no fsync in
//     flight runs one itself, outside the append mutex: it covers every
//     record appended so far, and appends keep landing for the next
//     group while it runs. A waiter that finds one in flight waits for
//     it and checks again. So the next fsync starts as soon as the
//     previous one returns, and no timer or flusher goroutine exists.
//
// An acknowledger appends under whatever higher-level ordering lock it
// already uses (the server's walMu, which also orders queue insertion),
// releases that lock, and only then blocks in WaitDurable, so waiting
// for the fsync never serializes the group. The invariants:
//
//   - WaitDurable(lsn) returns nil only after a successful fsync covered
//     lsn. An acked record therefore survives kill -9 and power loss.
//   - The watermark (syncedLSN) moves only after a successful fsync.
//     A failed fsync counts in SyncErrors, wakes the other waiters so
//     the next one retries, and returns the error to the waiter that ran
//     it, whose caller reports the write logged but not acknowledged.
//   - Rotation fsyncs the segment it retires, while holding the append
//     mutex, before closing it. A waiter fsyncing that file outside the
//     mutex may then fail on the closed file; rotation's fsync already
//     moved the watermark past its target, so the waiter succeeds.
//   - Replication is untouched: frames are byte-identical regardless of
//     when they reach stable storage, so follower logs stay bit-for-bit
//     copies of the leader's (DESIGN §12).

import (
	"context"
	"fmt"
)

// WaitDurable blocks until every record up to and including lsn, which
// must already be appended, is covered by a successful fsync, the
// context is done while another waiter's fsync is in flight, or the
// store closes. Under SyncNever it returns immediately (the caller opted
// out of durability). A waiter that finds lsn uncovered and no fsync in
// flight runs the fsync itself and returns its error, if any. Call it
// after releasing any lock that orders appends — waiting inside that
// lock would collapse the commit group to size one.
func (s *Store) WaitDurable(ctx context.Context, lsn uint64) error {
	if s.opts.Sync == SyncNever || s.syncedLSN.Load() >= lsn {
		return nil
	}
	s.met.DurableWaits.Add(1)
	for {
		s.mu.Lock()
		if s.syncedLSN.Load() >= lsn {
			s.mu.Unlock()
			return nil
		}
		if s.closed {
			s.mu.Unlock()
			return fmt.Errorf("store: wait durable lsn %d: store closed", lsn)
		}
		if s.syncing {
			ch := s.syncNotify
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return fmt.Errorf("store: wait durable lsn %d: %w", lsn, ctx.Err())
			case <-ch:
			}
			continue
		}
		s.syncing = true
		f, last := s.f, s.lastLSN()
		s.mu.Unlock()
		took, err := fsyncFile(f)
		s.mu.Lock()
		s.syncing = false
		err = s.finishSync(last, took, err)
		close(s.syncNotify)
		s.syncNotify = make(chan struct{})
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: wait durable lsn %d: %w", lsn, err)
		}
		return nil
	}
}

// SyncedLSN reports the highest LSN covered by a successful fsync (0
// when nothing has been synced).
func (s *Store) SyncedLSN() uint64 { return s.syncedLSN.Load() }
