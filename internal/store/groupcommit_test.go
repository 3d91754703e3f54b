package store

// Group-commit fault tests: the ack-after-fsync contract under injected
// fsync stalls and failures. The two properties the server leans on:
//
//   - no acked row lost: WaitDurable returns nil only after a successful
//     fsync covered the LSN, so everything acknowledged is on stable
//     storage and replays after kill -9;
//   - un-fsynced acks are never sent: while fsyncs stall or fail, no
//     waiter returns nil — it gets the fsync's error or times out, and
//     its caller does not acknowledge.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// openGroupCommit opens a store with the default policy, SyncAlways,
// whose WaitDurable is group commit.
func openGroupCommit(t *testing.T) *Store {
	t.Helper()
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestGroupCommitAcksAfterSharedFsync appends a burst of batches and
// waits on each: every wait must resolve with the synced watermark at or
// past its LSN, and the whole burst must share fewer fsyncs than it has
// batches (that is the amortization group commit exists for).
func TestGroupCommitAcksAfterSharedFsync(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	st := openGroupCommit(t)

	const batches = 64
	lsns := make([]uint64, batches)
	var wg sync.WaitGroup
	errs := make([]error, batches)
	for i := 0; i < batches; i++ {
		lsn, err := st.AppendIngest("clicks", []string{"a", "b", "c"}, nil, nil)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns[i] = lsn
		wg.Add(1)
		go func(i int, lsn uint64) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs[i] = st.WaitDurable(ctx, lsn)
		}(i, lsn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("WaitDurable(%d): %v", lsns[i], err)
		}
	}
	if got := st.SyncedLSN(); got < lsns[batches-1] {
		t.Fatalf("SyncedLSN = %d after all waits returned, want >= %d", got, lsns[batches-1])
	}
	if syncs := st.Metrics().Syncs.Load(); syncs >= batches {
		t.Fatalf("group commit issued %d fsyncs for %d batches; wanted amortization", syncs, batches)
	}
	if st.Metrics().DurableWaits.Load() == 0 {
		t.Fatal("no WaitDurable call blocked; the burst never exercised group commit")
	}
}

// TestGroupCommitStallFsyncDelaysAck stalls the waiter's fsync: the ack
// must arrive only after the stalled flush completes, never before.
func TestGroupCommitStallFsyncDelaysAck(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	st := openGroupCommit(t)
	// One stall (50ms) on the next fsync, then clean.
	if err := faultinject.Enable("wal.stall-fsync:1:1"); err != nil {
		t.Fatal(err)
	}
	lsn, err := st.AppendIngest("clicks", []string{"x"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.WaitDurable(ctx, lsn); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("ack returned in %v, before the 50ms stalled fsync could have finished", elapsed)
	}
	if st.SyncedLSN() < lsn {
		t.Fatalf("SyncedLSN = %d after ack, want >= %d", st.SyncedLSN(), lsn)
	}
}

// TestGroupCommitFailFsyncNeverAcks makes every fsync fail: the append
// lands on the log, but no ack may be released while the failure lasts —
// the waiter that runs the fsync gets its error. Once fsyncs heal, the
// next waiter's fsync covers the record and the same wait succeeds.
func TestGroupCommitFailFsyncNeverAcks(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	st := openGroupCommit(t)
	if err := faultinject.Enable("wal.fail-fsync"); err != nil {
		t.Fatal(err)
	}
	lsn, err := st.AppendIngest("clicks", []string{"y"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = st.WaitDurable(ctx, lsn)
	if err == nil {
		t.Fatal("WaitDurable returned nil while every fsync fails: an un-fsynced record was acked")
	}
	if !strings.Contains(err.Error(), "fsync: injected failure") {
		t.Fatalf("WaitDurable error = %v, want the injected fsync failure", err)
	}
	if st.SyncedLSN() >= lsn {
		t.Fatalf("SyncedLSN advanced to %d under failing fsyncs", st.SyncedLSN())
	}
	if st.Metrics().SyncErrors.Load() == 0 {
		t.Fatal("SyncErrors did not count the injected failures")
	}

	// Heal the disk: the next wait retries the fsync and must cover the
	// record without any new append.
	faultinject.Reset()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := st.WaitDurable(ctx2, lsn); err != nil {
		t.Fatalf("WaitDurable after fsyncs healed: %v", err)
	}
}

// TestGroupCommitAckedRowsSurviveCrash proves "no acked row lost": append
// and ack a batch group, abandon the store without closing it (the
// kill -9 analogue — Close would flush), and rebuild the directory. Every
// acked record must come back; the replay is bit-for-bit the log's.
func TestGroupCommitAckedRowsSurviveCrash(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendCreate([]byte(`{"name":"clicks","kind":"unit","bins":64}`)); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 10; i++ {
		lsn, err := st.AppendIngest("clicks", []string{"a", "b"}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.WaitDurable(ctx, last); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	// "Crash": abandon the store without Close, skipping its final
	// sync — everything acked must already be durable.
	rebuilt, err := Rebuild(dir)
	if err != nil {
		t.Fatalf("rebuild after crash: %v", err)
	}
	if rebuilt.Stats.LastLSN < last {
		t.Fatalf("rebuilt log ends at LSN %d, acked through %d — acked records lost", rebuilt.Stats.LastLSN, last)
	}
	sk, ok := rebuilt.Sketches["clicks"]
	if !ok {
		t.Fatal("acked sketch missing after crash recovery")
	}
	if sk.Rows != 20 {
		t.Fatalf("recovered %d rows, want 20 (10 acked batches × 2)", sk.Rows)
	}
}

// TestWaitDurableSyncPolicies pins the policy matrix: a SyncAlways wait
// advances the durable watermark past its LSN, SyncNever opts out
// entirely, and Close does not leave waiters hanging.
func TestWaitDurableSyncPolicies(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	always, err := Open(Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer always.Close()
	lsn, err := always.AppendIngest("s", []string{"a"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := always.WaitDurable(ctx, lsn); err != nil {
		t.Fatalf("SyncAlways WaitDurable: %v", err)
	}
	if always.SyncedLSN() < lsn {
		t.Fatalf("SyncAlways did not advance the durable watermark past %d", lsn)
	}

	never, err := Open(Options{Dir: t.TempDir(), Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer never.Close()
	if _, err := never.AppendIngest("s", []string{"a"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := never.WaitDurable(context.Background(), 99); err != nil {
		t.Fatalf("SyncNever WaitDurable must be a no-op, got %v", err)
	}

	// Two waiters across Close: the first runs a stalled fsync, the
	// second waits for it, and Close lands during the stall.
	closed := openGroupCommit(t)
	if err := faultinject.Enable("wal.stall-fsync:1:1"); err != nil {
		t.Fatal(err)
	}
	lsn, err = closed.AppendIngest("s", []string{"a"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			done <- closed.WaitDurable(context.Background(), lsn)
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			// Close fsyncs on the way out, so the waiters may legitimately
			// see the record become durable; what they must not do is hang.
			_ = err
		case <-time.After(5 * time.Second):
			t.Fatal("WaitDurable hung across Close")
		}
	}
}

// TestGroupCommitAcrossRotation runs concurrent append+wait writers over
// segments that hold two records each, so rotation keeps closing the
// file a waiter is about to fsync outside the append mutex: the stalled
// fsyncs hold their waiter between reading the file and syncing it while
// the other writers rotate. Rotation fsyncs that file first, so every
// wait must succeed, no failure may be counted, and every record must
// replay.
func TestGroupCommitAcrossRotation(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Enable("wal.stall-fsync:1:3"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendCreate([]byte(`{"name":"clicks","kind":"unit","bins":64}`)); err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := st.AppendIngest("clicks", []string{"a"}, nil, nil)
				if err == nil {
					err = st.WaitDurable(context.Background(), lsn)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st.Metrics().Rotations.Load() == 0 {
		t.Fatal("no rotation happened; the test exercised nothing")
	}
	if got := st.Metrics().SyncErrors.Load(); got != 0 {
		t.Fatalf("SyncErrors = %d: a fsync of a retired segment counted as a failure", got)
	}
	if st.SyncedLSN() < st.LastLSN() {
		t.Fatalf("SyncedLSN %d < LastLSN %d after every wait returned", st.SyncedLSN(), st.LastLSN())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sk := rebuilt.Sketches["clicks"]; sk == nil || sk.Rows != writers*each {
		t.Fatalf("recovered %+v, want %d rows", sk, writers*each)
	}
}
