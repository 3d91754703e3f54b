package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// task is one client operation: its class (an index into the workload's
// op classes), which prepared input to use, the sub-window of the run it
// belongs to, and — in an open loop — when it is due, as an offset from
// the loop's start.
type task struct {
	class  int
	idx    int
	bucket int
	due    time.Duration
}

// subWindows is how many equal parts a run's measured phases are cut
// into. Percentiles are taken per part and their median reported, so a
// stretch of host noise covering up to four parts does not move them.
const subWindows = 10

// loopResult is what one load loop measured.
type loopResult struct {
	// lat holds per-class latencies in milliseconds of the operations
	// that succeeded, in completion order per worker; bucket holds each
	// one's sub-window.
	lat    [][]float64
	bucket [][]int
	// failed counts per-class operations that returned an error.
	failed []int
	// lag is how late the generator issued each operation, in
	// milliseconds: dispatch time minus due time in an open loop, the
	// gap between one completion and the next send in a closed loop.
	lag []float64
	// elapsed runs from the loop's start to its last completion.
	elapsed time.Duration
	// firstErr is the first operation error, for the report.
	firstErr error
}

func newLoopResult(classes int) *loopResult {
	return &loopResult{lat: make([][]float64, classes), bucket: make([][]int, classes), failed: make([]int, classes)}
}

// merge folds o into r.
func (r *loopResult) merge(o *loopResult) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.bucket[c] = append(r.bucket[c], o.bucket[c]...)
		r.failed[c] += o.failed[c]
	}
	r.lag = append(r.lag, o.lag...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// issued returns how many operations the loop attempted.
func (r *loopResult) issued() int {
	n := 0
	for c := range r.lat {
		n += len(r.lat[c]) + r.failed[c]
	}
	return n
}

// failures returns how many operations failed.
func (r *loopResult) failures() int {
	n := 0
	for _, f := range r.failed {
		n += f
	}
	return n
}

// record stores one completed operation.
func (r *loopResult) record(t task, lat time.Duration, err error) {
	if err != nil {
		r.failed[t.class]++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat[t.class] = append(r.lat[t.class], float64(lat)/1e6)
	r.bucket[t.class] = append(r.bucket[t.class], t.bucket)
}

// byBucket splits class c's latencies by sub-window.
func (r *loopResult) byBucket(c int) [subWindows][]float64 {
	var out [subWindows][]float64
	for i, l := range r.lat[c] {
		b := min(max(r.bucket[c][i], 0), subWindows-1)
		out[b] = append(out[b], l)
	}
	return out
}

// openLoop issues tasks at their due times, whatever the system does:
// one dispatcher hands each task to a pool of workers when it falls due,
// and a task that finds every worker busy waits in the queue. Latency
// runs from the due time, so a stall inflates the latency of everything
// queued behind it rather than silently delaying the schedule. tasks
// must be sorted by due time.
func openLoop(ctx context.Context, tasks []task, workers, classes int, exec func(context.Context, task) error) *loopResult {
	type dispatched struct {
		t   task
		due time.Time
	}
	// Sized to the whole schedule so the dispatcher never blocks on a
	// slow system: the backlog queues here, on the clock.
	queue := make(chan dispatched, len(tasks))
	results := make([]*loopResult, workers)
	start := time.Now()
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		res := newLoopResult(classes)
		results[w] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				err := exec(ctx, d.t)
				now := time.Now()
				res.record(d.t, now.Sub(d.due), err)
				storeMax(&last, int64(now.Sub(start)))
			}
		}()
	}
	out := newLoopResult(classes)
	out.lag = make([]float64, 0, len(tasks))
	// The dispatcher sleeps on its own OS thread with nanosleep: Go's
	// timers wake about a millisecond late on Linux, which would add a
	// millisecond to every open-loop latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, t := range tasks {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(t.due)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only dispatches sooner
		}
		out.lag = append(out.lag, float64(time.Since(due))/1e6)
		queue <- dispatched{t: t, due: due}
	}
	close(queue)
	wg.Wait()
	for _, r := range results {
		out.merge(r)
	}
	out.elapsed = time.Duration(last.Load())
	return out
}

// closedLoop runs workers that each send their next task only after the
// previous one completed, until next reports no more work or ctx ends.
// next is called from every worker concurrently.
func closedLoop(ctx context.Context, workers, classes int, next func() (task, bool), exec func(context.Context, task) error) *loopResult {
	results := make([]*loopResult, workers)
	start := time.Now()
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		res := newLoopResult(classes)
		results[w] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil {
				t, ok := next()
				if !ok {
					return
				}
				sent := time.Now()
				res.lag = append(res.lag, float64(sent.Sub(prev))/1e6)
				err := exec(ctx, t)
				prev = time.Now()
				res.record(t, prev.Sub(sent), err)
				storeMax(&last, int64(prev.Sub(start)))
			}
		}()
	}
	wg.Wait()
	out := newLoopResult(classes)
	for _, r := range results {
		out.merge(r)
	}
	out.elapsed = time.Duration(last.Load())
	return out
}

// storeMax raises v to x if x is larger.
func storeMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// schedule lays out an open-loop schedule: for each class, tasks evenly
// spaced at rate per second over seconds (offset by a fraction of a
// period per class so classes interleave), merged by due time.
func schedule(seconds float64, rates []float64) []task {
	part := time.Duration(seconds * float64(time.Second) / subWindows)
	var tasks []task
	for c, rate := range rates {
		if rate <= 0 {
			continue
		}
		n := int(seconds * rate)
		period := time.Duration(float64(time.Second) / rate)
		offset := period * time.Duration(c) / time.Duration(len(rates))
		for i := 0; i < n; i++ {
			due := offset + time.Duration(i)*period
			tasks = append(tasks, task{class: c, idx: i, due: due, bucket: int(due / part)})
		}
	}
	sortTasks(tasks)
	return tasks
}

// sortTasks orders tasks by due time, ties by class.
func sortTasks(tasks []task) {
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].due != tasks[j].due {
			return tasks[i].due < tasks[j].due
		}
		return tasks[i].class < tasks[j].class
	})
}
