package store

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestHardWatermarkReadOnly arms disk.enospc so the free-space probe
// reports a full disk: appends must refuse with ErrReadOnly (not crash,
// not wedge), and the store must heal itself on the first append after
// space "returns".
func TestHardWatermarkReadOnly(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	st, err := Open(Options{Dir: t.TempDir(), Sync: SyncNever, DiskCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AppendCreate([]byte(`{"name":"a"}`)); err != nil {
		t.Fatalf("healthy append: %v", err)
	}

	if err := faultinject.Enable("disk.enospc"); err != nil {
		t.Fatal(err)
	}
	_, err = st.AppendCreate([]byte(`{"name":"b"}`))
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append under enospc = %v, want ErrReadOnly", err)
	}
	if st.Pressure() != DiskHard {
		t.Fatalf("Pressure = %d, want DiskHard", st.Pressure())
	}
	if got := st.Metrics().DiskHardTrips.Load(); got != 1 {
		t.Fatalf("DiskHardTrips = %d, want 1", got)
	}
	if got := st.Metrics().ReadOnlyRejects.Load(); got == 0 {
		t.Fatal("ReadOnlyRejects did not count the refusal")
	}
	// Reads of the log state stay exact while read-only.
	if got := st.LastLSN(); got != 1 {
		t.Fatalf("LastLSN while read-only = %d, want 1", got)
	}

	faultinject.Reset()
	if _, err := st.AppendCreate([]byte(`{"name":"b"}`)); err != nil {
		t.Fatalf("append after space returned: %v", err)
	}
	if st.Pressure() != DiskHealthy {
		t.Fatalf("Pressure after recovery = %d, want DiskHealthy", st.Pressure())
	}
}

// TestSoftWatermarkReportsPressure opens a store whose soft watermark is
// absurdly high (any real disk is "below" it): appends keep working but
// the store reports DiskSoft so owners can checkpoint and shed early.
func TestSoftWatermarkReportsPressure(t *testing.T) {
	faultinject.Reset()
	st, err := Open(Options{
		Dir:           t.TempDir(),
		Sync:          SyncNever,
		DiskSoftBytes: 1 << 60,
		DiskHardBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Pressure() != DiskSoft {
		t.Fatalf("Pressure = %d, want DiskSoft", st.Pressure())
	}
	if got := st.Metrics().DiskSoftTrips.Load(); got != 1 {
		t.Fatalf("DiskSoftTrips = %d, want 1", got)
	}
	if _, err := st.AppendCreate([]byte(`{"name":"a"}`)); err != nil {
		t.Fatalf("append under soft pressure must still work: %v", err)
	}
}

// TestSyncAlwaysFsyncFailureSurfaces verifies a failed fsync under the
// default policy surfaces from WaitDurable (the append is NOT
// acknowledged) and is counted.
func TestSyncAlwaysFsyncFailureSurfaces(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	st, err := Open(Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := faultinject.Enable("wal.fail-fsync:1:1"); err != nil {
		t.Fatal(err)
	}
	lsn, err := st.AppendCreate([]byte(`{"name":"a"}`))
	if err != nil {
		t.Fatalf("append must not fsync by itself: %v", err)
	}
	if err := st.WaitDurable(context.Background(), lsn); err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("wait with failing fsync = %v, want fsync error", err)
	}
	if got := st.Metrics().SyncErrors.Load(); got != 1 {
		t.Fatalf("SyncErrors = %d, want 1", got)
	}
	// Budget exhausted: the next wait fsyncs clean.
	lsn, err = st.AppendCreate([]byte(`{"name":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitDurable(context.Background(), lsn); err != nil {
		t.Fatalf("wait after fault budget drained: %v", err)
	}
}

// TestFsyncFailureRetries verifies a failed fsync does not strand the
// record: each wait runs one fsync, so with three injected failures the
// first three waits fail and the fourth covers the record.
func TestFsyncFailureRetries(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := faultinject.Enable("wal.fail-fsync:1:3"); err != nil {
		t.Fatal(err)
	}
	lsn, err := st.AppendCreate([]byte(`{"name":"a"}`))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.WaitDurable(context.Background(), lsn); err == nil {
			t.Fatalf("wait %d succeeded inside the injected failure budget", i)
		}
	}
	if err := st.WaitDurable(context.Background(), lsn); err != nil {
		t.Fatalf("wait 4 after the failure budget drained: %v", err)
	}
	if st.SyncedLSN() < lsn {
		t.Fatalf("SyncedLSN = %d after a successful wait, want >= %d", st.SyncedLSN(), lsn)
	}
	if got := st.Metrics().SyncErrors.Load(); got != 3 {
		t.Fatalf("SyncErrors = %d, want 3 (the injected budget)", got)
	}
}
