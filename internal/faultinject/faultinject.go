// Package faultinject is the repo's failpoint layer: named fault sites
// compiled into production code paths (WAL appends, fsync, replication
// stream framing) that stay dormant — one atomic load — until activated
// by the USS_FAULTPOINTS environment variable or programmatically by a
// test. Activated points fire probabilistically (with an optional
// activation budget), so a fault-injection run exercises torn writes,
// dropped/duplicated/delayed stream frames and stalled fsyncs against
// the same binaries production runs.
//
// # Activation
//
// USS_FAULTPOINTS is a comma-separated list of specs:
//
//	name            fire on every hit
//	name:p          fire with probability p in (0, 1]
//	name:p:limit    as above, at most limit activations total
//
// e.g. USS_FAULTPOINTS="repl.drop-frame:0.1,repl.dup-frame:0.1,wal.stall-fsync:0.05:20".
// Tests call Enable/Reset directly; both are safe for concurrent use
// with firing sites.
//
// # Known points
//
//	wal.torn-write        store: write only a prefix of the framed record, then fail
//	wal.stall-fsync       store: sleep before the fsync that acks an append
//	repl.drop-frame       primary stream: skip a frame (follower must re-request)
//	repl.dup-frame        primary stream: send a frame twice (follower must dedupe)
//	repl.delay-frame      primary stream: stall mid-stream before a frame
//	cluster.drop-fan      cluster fan: drop a queued delivery before the send (retries heal)
//	cluster.slow-peer     cluster: stall a node before it serves an exact-state read
//	cluster.partial-read  cluster gather: force one owner partial to miss (degraded path)
//	server.stall-live     server: stall a request between its sketch's liveness check and its use
//	disk.enospc           store: report zero free disk space to the watermark check
//	wal.fail-fsync        store: fail the fsync call itself (not just the write)
//
// The names are a convention, not a registry: a site fires whatever
// name it asks for, so adding a point is one call at the site.
package faultinject

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable Enable specs are read from at
// first use.
const EnvVar = "USS_FAULTPOINTS"

// point is one activated failpoint.
type point struct {
	prob      float64
	remaining atomic.Int64 // activations left; negative = unlimited
	hits      atomic.Int64 // times the point actually fired
}

var (
	// armed is the global fast-path gate: sites pay one atomic load
	// while no point is active.
	armed atomic.Bool

	mu     sync.Mutex
	points map[string]*point
	rng    = rand.New(rand.NewSource(1)) // deterministic across runs; guarded by mu
	once   sync.Once
)

// initFromEnv arms the layer from USS_FAULTPOINTS exactly once.
func initFromEnv() {
	once.Do(func() {
		if spec := os.Getenv(EnvVar); spec != "" {
			if err := Enable(spec); err != nil {
				fmt.Fprintf(os.Stderr, "faultinject: ignoring %s: %v\n", EnvVar, err)
			}
		}
	})
}

// Enable activates the points named by spec (the USS_FAULTPOINTS
// syntax), adding to whatever is already active.
func Enable(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		p := &point{prob: 1}
		if len(fields) > 3 {
			return fmt.Errorf("faultinject: bad spec %q (want name[:prob[:limit]])", part)
		}
		if len(fields) >= 2 {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || v <= 0 || v > 1 {
				return fmt.Errorf("faultinject: bad probability in %q", part)
			}
			p.prob = v
		}
		p.remaining.Store(-1)
		if len(fields) == 3 {
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("faultinject: bad limit in %q", part)
			}
			p.remaining.Store(n)
		}
		points[fields[0]] = p
	}
	armed.Store(len(points) > 0)
	return nil
}

// Reset deactivates every point (tests clean up with this).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armed.Store(false)
}

// Hit reports whether the named point fires on this call. Inactive
// points (the production case) cost one atomic load.
func Hit(name string) bool {
	initFromEnv()
	if !armed.Load() {
		return false
	}
	mu.Lock()
	p := points[name]
	var roll float64
	if p != nil && p.prob < 1 {
		roll = rng.Float64()
	}
	mu.Unlock()
	if p == nil {
		return false
	}
	if p.prob < 1 && roll >= p.prob {
		return false
	}
	for {
		rem := p.remaining.Load()
		if rem == 0 {
			return false
		}
		if rem < 0 || p.remaining.CompareAndSwap(rem, rem-1) {
			p.hits.Add(1)
			return true
		}
	}
}

// Hits returns how many times the named point has fired (0 when never
// activated) — test assertions that a fault run actually injected.
func Hits(name string) int64 {
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// Sleep stalls for d when the named point fires — the delay-flavoured
// sites (stalled fsync, delayed stream frame) share it.
func Sleep(name string, d time.Duration) {
	if Hit(name) {
		time.Sleep(d)
	}
}
