// Command perfbench is the repository's benchmark: it launches real
// cmd/ussd processes on loopback, drives one workload against them from
// this single generator process, checks the answers, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds ussd and
// this command first:
//
//	bash perfbench/run.sh --workload dashboard-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs, then its inputs are replayed in-process through
// each layer's entry points under spans this command records, and the
// metrics are the per-layer ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ussd     string // ussd binary
	work     string // scratch root for data dirs, logs and traces
}

// setupReps is how many times a run sets up from scratch; setup_s is
// the median, and the last set-up serves the measured window.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opt options
	var traceN int
	flag.StringVar(&opt.workload, "workload", "", "workload name")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceN, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.StringVar(&opt.ussd, "ussd", "", "path to the ussd binary")
	flag.StringVar(&opt.work, "work", ".bench_build/run", "scratch directory")
	flag.Parse()
	opt.trace = traceN != 0
	if opt.ussd == "" || opt.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -ussd and a positive --seconds are required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := execute(ctx, opt)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload end to end and assembles the result.
func execute(ctx context.Context, opt options) (*result, error) {
	sp, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	conn := runtime.NumCPU()
	r := &run{sp: sp, opt: opt, cl: newClient(conn), conn: conn, dir: workDir(opt.work, sp, opt.seed)}
	defer os.RemoveAll(r.dir)

	if r.in, err = makeInputs(opt.seed, sp.in); err != nil {
		return nil, err
	}
	r.ackedHits = make([]atomic.Int64, len(r.in.checks))
	printStamp(opt, sp, conn)

	reps := setupReps
	if opt.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		d, err := r.setup(ctx)
		if r.c != nil && (err != nil || i < reps-1) {
			if serr := r.c.stop(); err == nil {
				err = serr
			}
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if err := r.c.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stop:", err)
		}
	}()

	var tr *traced
	if opt.trace {
		if tr, err = r.beginTrace(ctx); err != nil {
			return nil, err
		}
	}
	w, err := r.measure(ctx)
	if err != nil {
		return nil, err
	}
	if opt.trace {
		if err := tr.finish(ctx); err != nil {
			return nil, err
		}
	}
	r.verify(ctx)

	res := &result{}
	ops, opsFailed := w.res.issued()+w.warm.issued(), w.res.failures()+w.warm.failures()
	res.Attempted = ops + r.checks
	res.Failed = opsFailed + r.checkFailures
	res.Correct = res.Failed == 0
	fmt.Printf("failed_ops_share %.6g (%d of %d attempted: %d operations, %d checks)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, opsFailed, r.checkFailures)
	for _, e := range []error{w.warm.firstErr, w.res.firstErr} {
		if e != nil {
			fmt.Printf("operation error: %v\n", e)
		}
	}
	for _, e := range r.checkErrs {
		fmt.Printf("check failed: %s\n", e)
	}

	var ms map[string]metric
	if opt.trace {
		ms, err = tr.layerMetrics(ctx, w)
	} else {
		ms, err = r.endToEnd(w, setups)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	res.Metrics = ms
	return res, nil
}

// endToEnd computes the user-visible metrics of an untraced run.
func (r *run) endToEnd(w *window, setups []float64) (map[string]metric, error) {
	ms := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"ingest_rows_per_s": {ingestRate(w, r.sp.in.ingestRows, r.opt.seconds), "rows/s"},
	}
	fmt.Printf("setup_s samples %v\n", setups)
	fmt.Printf("ingest: %d rows acknowledged in the window, visible %.3fs after it opened: %.6g rows/s overall\n",
		w.ingested, w.ingestS, float64(w.ingested)/w.ingestS)
	for c := 0; c < numClasses; c++ {
		prefix := classNames[c]
		if c == clsIngest {
			prefix = "ingest_ack"
		}
		parts := w.res.byBucket(c)
		p50, err := subWindowQuantile(parts, 0.50)
		if err != nil {
			return nil, fmt.Errorf("%s_p50_ms: %w", prefix, err)
		}
		ms[prefix+"_p50_ms"] = metric{p50, "ms"}
		// The tail is printed with its counts but not returned: a run's
		// tail rests on its slowest requests, and on a shared host those
		// swing with CPU steal far beyond any usable regression bound.
		tail := fmt.Sprintf("p90 %.4g ms", percentile(sortedCopy(w.res.lat[c]), 0.90).Value)
		if p90, err := subWindowQuantile(parts, 0.90); err == nil {
			tail = fmt.Sprintf("p90 %.4g ms (first quartile of %d sub-window p90s)", p90, subWindows)
		}
		p99 := percentile(sortedCopy(w.res.lat[c]), 0.99)
		if p99.OK {
			tail += fmt.Sprintf("  p99 %.4g ms (%d beyond)", p99.Value, p99.Beyond)
		} else {
			tail += fmt.Sprintf("  p99 unsupported (%d beyond, need %d)", p99.Beyond, minBeyond)
		}
		fmt.Printf("latency %-10s n=%-6d %s_p50_ms %.4g ms (first quartile of %d sub-window p50s)  %s\n",
			classNames[c], p99.N, prefix, p50, subWindows, tail)
	}
	rss, err := r.c.peakRSSMB()
	if err != nil {
		return nil, err
	}
	ms["server_rss_mb"] = metric{rss, "MiB"}
	ms["server_cpu_us_per_op"] = metric{float64(w.cpuUs) / float64(w.sent), "us/op"}
	lag := percentile(sortedCopy(w.res.lag), 0.99)
	fmt.Printf("loadgen lag p99 %.4g ms (n=%d); window+drain %.3fs; %d requests\n", lag.Value, lag.N, w.ingestS, w.sent)
	return ms, nil
}

// ingestRate is the window's ingest throughput: the third highest of the
// ten sub-window rates of acknowledged rows (the quiet end, as for
// latency), scaled by seconds over the time until the drain barrier
// passed, so rows count only once applied and visible.
func ingestRate(w *window, rowsPerBatch, seconds int) float64 {
	part := float64(seconds) / subWindows
	var rates []float64
	for _, acked := range w.res.byBucket(clsIngest) {
		rates = append(rates, float64(len(acked)*rowsPerBatch)/part)
	}
	return percentile(sortedCopy(rates), 0.75).Value * float64(seconds) / w.ingestS
}

// subWindowQuantile takes each sub-window's q-quantile — every
// sub-window must support it by the percentile rule — and returns the
// first quartile of those: the third lowest of ten. Noise from other
// tenants of the host only ever slows a sub-window down, so the quieter
// sub-windows estimate what the code costs; a regression slows them all
// and still shows.
func subWindowQuantile(parts [subWindows][]float64, q float64) (float64, error) {
	var vs []float64
	for i, part := range parts {
		p := percentile(sortedCopy(part), q)
		if !p.OK {
			return 0, fmt.Errorf("sub-window %d: %d samples leave %d beyond p%.0f (need %d)", i, p.N, p.Beyond, q*100, minBeyond)
		}
		vs = append(vs, p.Value)
	}
	return percentile(sortedCopy(vs), 0.25).Value, nil
}

// printStamp prints the host and run stamp every result carries.
func printStamp(opt options, sp *spec, conn int) {
	stamp := map[string]any{
		"workload":       sp.name,
		"seed":           opt.seed,
		"seconds":        opt.seconds,
		"trace":          opt.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"cpu_model":      cpuModel(),
		"commit":         commitID(),
		"connections":    conn,
		"offered_rates":  offeredRates(sp),
		"read_phase_ops": sp.readPhase,
		"started":        time.Now().UTC().Format(time.RFC3339),
	}
	line, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", line)
}

// offeredRates names each class's fixed open-loop rate; a closed loop
// has none.
func offeredRates(sp *spec) map[string]any {
	out := map[string]any{}
	for c, rate := range sp.rates {
		switch {
		case rate > 0:
			out[classNames[c]+"_per_s"] = rate
		case c == clsIngest:
			out["ingest"] = "closed loop"
		}
	}
	return out
}

// scratch returns a path under the work root, creating its directory.
func scratch(opt options, parts ...string) (string, error) {
	p := filepath.Join(append([]string{opt.work}, parts...)...)
	return p, os.MkdirAll(filepath.Dir(p), 0o755)
}
