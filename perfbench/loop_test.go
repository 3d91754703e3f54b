package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers instantly except for request number stallAt
// (0-based), which it holds for stall.
func stallServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
}

func getter(url string) func(context.Context, task) error {
	cl := newClient(1)
	return func(ctx context.Context, _ task) error {
		_, err := cl.get(ctx, url)
		return err
	}
}

// In an open loop, a stall delays every request queued behind it, and
// their latency — timed from when each was due — must show it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		period = 10 * time.Millisecond
		stall  = 300 * time.Millisecond
		count  = 40
	)
	srv := stallServer(5, stall)
	defer srv.Close()
	tasks := make([]task, count)
	for i := range tasks {
		tasks[i] = task{idx: i, due: time.Duration(i) * period}
	}
	res := openLoop(context.Background(), tasks, 1, 1, getter(srv.URL))
	lat := res.lat[0] // one worker: completion order is due order
	if len(lat) != count || res.failures() != 0 {
		t.Fatalf("completed %d of %d, %d failed (%v)", len(lat), count, res.failures(), res.firstErr)
	}
	if lat[5] < float64(stall/time.Millisecond) {
		t.Errorf("stalled request latency %.1fms, want >= %v", lat[5], stall)
	}
	// Request 6 was due 10ms after the stalled one and could only be
	// sent once it returned: it waited most of the stall.
	if want := float64((stall - period) / time.Millisecond); lat[6] < want*0.9 {
		t.Errorf("request queued behind the stall: latency %.1fms, want about %.0fms", lat[6], want)
	}
	// The backlog is worked off: every request due during the stall
	// is charged for part of it.
	due := int(stall / period)
	for i := 6; i < 5+due; i++ {
		if lat[i] < 1 {
			t.Errorf("request %d due during the stall shows %.2fms", i, lat[i])
		}
	}
	// The schedule never waits for the server: the generator was on time.
	if lag := percentile(sortedCopy(res.lag), 0.5).Value; lag > 5 {
		t.Errorf("median dispatch lag %.1fms; the dispatcher waited on the server", lag)
	}
}

// A closed loop over the same server records the stall once: the
// requests after it are simply sent later. This is the coordinated
// omission the open loop exists to avoid.
func TestClosedLoopRecordsStallOnce(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := stallServer(5, stall)
	defer srv.Close()
	n := 0
	res := closedLoop(context.Background(), 1, 1, func() (task, bool) {
		n++
		return task{}, n <= 40
	}, getter(srv.URL))
	slow := 0
	for _, l := range res.lat[0] {
		if l >= float64(stall/time.Millisecond)/2 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d slow samples in a closed loop, want exactly the stalled one", slow)
	}
}

func TestScheduleSpacing(t *testing.T) {
	tasks := schedule(2, []float64{10, 0, 5})
	counts := map[int]int{}
	for i, tk := range tasks {
		counts[tk.class]++
		if i > 0 && tk.due < tasks[i-1].due {
			t.Fatal("schedule not sorted by due time")
		}
	}
	if counts[0] != 20 || counts[1] != 0 || counts[2] != 10 {
		t.Errorf("per-class counts %v, want 20, 0, 10", counts)
	}
	if last := tasks[len(tasks)-1].due; last >= 2*time.Second {
		t.Errorf("last task due at %v, past the window", last)
	}
}
