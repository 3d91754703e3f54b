// Command ussd serves Unbiased Space Saving sketches over HTTP: a
// multi-tenant registry of named sketches (unit, weighted, sharded,
// rollup) with batched async ingest, wire-format-v2 snapshot push/pull
// for distributed aggregation, and query endpoints riding the cached
// read paths. See internal/server for the endpoint table and DESIGN.md
// §10 for the architecture.
//
// With -data-dir the service is durable: every create, delete, ingest
// batch and pushed snapshot is written to a segmented write-ahead log
// before it is acknowledged, the live sketches are checkpointed on an
// interval (and on drain), and a restart — graceful or kill -9 —
// recovers the latest checkpoint plus the log tail. -fsync always, the
// default, acknowledges a write only after an fsync covered it; writes
// that arrive together share one fsync (group commit, no timer).
// -fsync never leaves flushing to the OS. See internal/store and
// DESIGN.md §11.
//
// Usage:
//
//	ussd -addr :8632
//	ussd -addr :8632 -create '{"name":"clicks","kind":"sharded","bins":4096,"shards":8}'
//	ussd -addr :8632 -data-dir /var/lib/ussd -fsync always -checkpoint-interval 1m
//
// A quick session against a running server:
//
//	curl -X POST localhost:8632/v1/sketches -d '{"name":"clicks","kind":"sharded","bins":1024}'
//	printf 'country=us|ad=1\ncountry=de|ad=2\n' | curl --data-binary @- localhost:8632/v1/sketches/clicks/ingest
//	curl localhost:8632/v1/sketches/clicks/topk?k=5
//
// With -follow the server boots as a replication follower: it catches
// up from the primary's newest checkpoint, tails its WAL stream, applies
// every record through the same paths recovery uses, and — with
// -auto-promote — promotes itself to primary when the primary has been
// unreachable past -heartbeat-timeout. A former primary restarted with
// -follow reconciles the acknowledged-but-unreplicated tail of its old
// timeline by merging it into the new primary. See DESIGN.md §12.
//
//	ussd -addr :8633 -data-dir /var/lib/ussd-b -follow http://primary:8632 -auto-promote
//
// With -cluster the node joins a consistent-hash cluster instead: every
// node serves the full public API, routes each ingested row to its
// partition's owner, answers reads by scatter-gather merge across the
// owner set (degraded, never 5xx, while a quorum answers), and runs
// periodic snapshot anti-entropy so a rejoining node converges. A node
// restarted after losing its disk pulls its partitions back from its
// co-owners' copies before serving. See internal/cluster and DESIGN.md
// §13.
//
//	ussd -addr :8632 -data-dir /var/lib/ussd-a -cluster \
//	  -cluster-self http://a:8632 -peers http://a:8632,http://b:8633,http://c:8634
//
// ussd shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// finish, every ingest batch acknowledged with 202 is applied, and a
// durable server takes a final checkpoint before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/store"
)

// multiFlag collects repeated -create flags.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint(*m) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// fatal logs at error level and exits — slog's replacement for
// log.Fatalf in this command.
func fatal(l *slog.Logger, msg string, args ...any) {
	l.Error(msg, args...)
	os.Exit(1)
}

// serveDebug mounts net/http/pprof on its own listener so profiling
// never rides the public port (and can be firewalled separately).
func serveDebug(addr string, l *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(l, "debug listener failed", "addr", addr, "err", err)
	}
	l.Info("pprof listening", "addr", ln.Addr().String())
	go func() {
		hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			l.Error("debug listener failed", "err", err)
		}
	}()
}

func main() {
	var (
		addr    = flag.String("addr", ":8632", "listen address")
		workers = flag.Int("ingest-workers", 4, "async ingest worker goroutines")
		queue   = flag.Int("queue-depth", 256, "async ingest queue depth (batches)")
		maxBody = flag.Int64("max-body-bytes", 32<<20, "request body size limit")
		drain   = flag.Duration("shutdown-timeout", 10*time.Second, "connection drain deadline on shutdown")
		dataDir = flag.String("data-dir", "", "durability directory: WAL + checkpoints (empty = in-memory only)")
		fsync   = flag.String("fsync", "always", "WAL fsync policy: always (acknowledge after a covering fsync, shared by concurrent writes) | never")
		ckptInt = flag.Duration("checkpoint-interval", time.Minute, "periodic checkpoint interval (0 disables; drain always checkpoints)")
		reqTO   = flag.Duration("request-timeout", time.Minute, "per-request deadline on every handler (0 = default, negative disables)")
		follow  = flag.String("follow", "", "boot as a replication follower of this primary URL (requires -data-dir)")
		autoPro = flag.Bool("auto-promote", false, "with -follow: promote to primary when the primary is unreachable past -heartbeat-timeout")
		hbTO    = flag.Duration("heartbeat-timeout", 10*time.Second, "with -follow: primary-unreachable window before auto-promotion")
		clMode  = flag.Bool("cluster", false, "join a consistent-hash cluster (requires -cluster-self and -peers)")
		clSelf  = flag.String("cluster-self", "", "with -cluster: this node's base URL exactly as listed in -peers")
		clPeers = flag.String("peers", "", "with -cluster: comma-separated base URLs of every cluster member, including this node")
		clRF    = flag.Int("replication-factor", 2, "with -cluster: owner-set size per sketch")
		clRQ    = flag.Int("read-quorum", 0, "with -cluster: owner partials needed to answer a read (0 = majority of the replication factor)")
		clHedge = flag.Duration("hedge-delay", 75*time.Millisecond, "with -cluster: wait on an owner before racing a co-owner copy")
		clAE    = flag.Duration("anti-entropy-interval", 5*time.Second, "with -cluster: periodic anti-entropy interval (0 = manual only)")
		clVN    = flag.Int("vnodes", 64, "with -cluster: virtual ring points per node")
		inRate  = flag.Float64("ingest-rate-rows", 0, "per-sketch ingest rate limit in rows/second (0 = unlimited)")
		inBurst = flag.Float64("ingest-burst-rows", 0, "per-sketch ingest burst capacity in rows (0 = 2× -ingest-rate-rows)")
		maxInfl = flag.Int64("max-inflight-bytes", 0, "global in-flight mutation-body budget; breaches shed 503 + Retry-After (0 = unlimited)")
		memSoft = flag.Int64("memory-soft-bytes", 0, "resident sketch-memory watermark: above it idle sketches demote to cold blobs (0 = never; needs -data-dir)")
		coldAft = flag.Duration("cold-after", 5*time.Minute, "idle time before a sketch is a demotion candidate (keep above -request-timeout)")
		logFmt  = flag.String("log-format", "text", "structured log format: text | json")
		logLvl  = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
		dbgAddr = flag.String("debug-addr", "", "separate listener for /debug/pprof/* (empty = profiling disabled)")
		slowReq = flag.Duration("slow-request", 0, "log a warning for requests slower than this (0 = disabled)")
		creates multiFlag
	)
	flag.Var(&creates, "create", "pre-create a sketch from a SketchConfig JSON object (repeatable)")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFmt, *logLvl)
	l := logger.With("component", "ussd")

	if *follow != "" && *dataDir == "" {
		fatal(l, "-follow requires -data-dir (the follower keeps a full replica of the primary's log)")
	}
	if *clMode && *follow != "" {
		fatal(l, "-cluster and -follow are mutually exclusive (a cluster node converges by anti-entropy, not WAL streaming)")
	}
	if *clMode && (*clSelf == "" || *clPeers == "") {
		fatal(l, "-cluster requires -cluster-self and -peers")
	}
	if *dbgAddr != "" {
		serveDebug(*dbgAddr, l)
	}

	node := *addr
	if *clMode {
		node = *clSelf
	}
	s := server.New(server.Config{
		Addr:             *addr,
		Node:             node,
		IngestWorkers:    *workers,
		QueueDepth:       *queue,
		MaxBodyBytes:     *maxBody,
		RequestTimeout:   *reqTO,
		IngestRateRows:   *inRate,
		IngestBurstRows:  *inBurst,
		MaxInflightBytes: *maxInfl,
		MemorySoftBytes:  *memSoft,
		ColdAfter:        *coldAft,
		Log:              logger,
		SlowRequest:      *slowReq,
	})

	if *follow != "" {
		// Catch up / reconcile the data dir against the primary before the
		// store opens, so recovery below replays a log the stream can
		// extend.
		if err := replica.PrepareDataDir(context.Background(), replica.Options{
			Primary: *follow,
			Server:  s,
			DataDir: *dataDir,
			Log:     logger,
		}); err != nil {
			fatal(l, "prepare follower data dir failed", "err", err)
		}
		s.SetRole(server.RoleFollower)
		s.SetReady(false)
	}

	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal(l, "bad -fsync flag", "err", err)
		}
		rebuilt, err := store.Rebuild(*dataDir)
		if err != nil {
			fatal(l, "recovery failed", "dir", *dataDir, "err", err)
		}
		st, err := store.Open(store.Options{Dir: *dataDir, Sync: policy, Log: logger})
		if err != nil {
			fatal(l, "open store failed", "err", err)
		}
		if err := s.AttachStore(st, rebuilt, *ckptInt); err != nil {
			fatal(l, "attach store failed", "err", err)
		}
		l.Info("durable mode",
			"dir", *dataDir, "fsync", policy.String(), "sketches", len(rebuilt.Sketches),
			"checkpoint_gen", rebuilt.Stats.CheckpointGen, "log_records", rebuilt.Stats.Applied,
			"last_lsn", rebuilt.Stats.LastLSN)
		for _, warn := range rebuilt.Stats.Warnings {
			l.Warn("recovery warning", "detail", warn)
		}
		if rebuilt.Stats.TornTail {
			l.Warn("recovery stopped at a torn or undecodable record (a torn tail is the usual crash artifact; see any warning above)")
		}
	}

	if *follow != "" && len(creates) > 0 {
		l.Warn("ignoring -create flags on a follower (sketches replicate from the primary)")
		creates = nil
	}
	for _, spec := range creates {
		var cfg server.SketchConfig
		if err := json.Unmarshal([]byte(spec), &cfg); err != nil {
			fatal(l, "bad -create flag", "spec", spec, "err", err)
		}
		switch err := s.CreateSketch(cfg); {
		case err == nil:
			l.Info("created sketch", "name", cfg.Name, "kind", string(cfg.Kind))
		case errors.Is(err, server.ErrExists):
			l.Info("sketch already exists (recovered); keeping its state", "name", cfg.Name)
		default:
			fatal(l, "-create failed", "err", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(l, "listen failed", "addr", *addr, "err", err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)

	var agent *cluster.Agent
	var clusterHS *http.Server
	if *clMode {
		agent, err = cluster.New(cluster.Config{
			Self:                *clSelf,
			Peers:               strings.Split(*clPeers, ","),
			ReplicationFactor:   *clRF,
			ReadQuorum:          *clRQ,
			VirtualNodes:        *clVN,
			HedgeDelay:          *clHedge,
			AntiEntropyInterval: *clAE,
			MaxBodyBytes:        *maxBody,
		}, s)
		if err != nil {
			fatal(l, "cluster setup failed", "err", err)
		}
		// Pull this node's partitions back from co-owner copies before
		// serving: a node that lost its disk converges here, a node with
		// intact state is a no-op (its digests already cover the copies).
		rs := agent.BootRepair(context.Background())
		l.Info("cluster boot repair",
			"restored", rs.Restored, "created", rs.Created, "errors", len(rs.Errors))
		for _, e := range rs.Errors {
			l.Warn("boot repair error", "detail", e)
		}
		agent.Start()
		clusterHS = &http.Server{Handler: agent.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			err := clusterHS.Serve(ln)
			if err == http.ErrServerClosed {
				err = nil
			}
			errc <- err
		}()
		l.Info("cluster node listening",
			"self", *clSelf, "peers", len(agent.Peers()), "rf", *clRF,
			"anti_entropy", clAE.String(), "addr", ln.Addr().String())
	} else {
		go func() { errc <- s.Serve(ln) }()
		l.Info("listening", "addr", ln.Addr().String())
	}

	var fol *replica.Follower
	if *follow != "" {
		fol, err = replica.Start(replica.Options{
			Primary:          *follow,
			Server:           s,
			DataDir:          *dataDir,
			AutoPromote:      *autoPro,
			HeartbeatTimeout: *hbTO,
			Log:              logger,
		})
		if err != nil {
			fatal(l, "start follower failed", "err", err)
		}
		l.Info("following primary", "primary", *follow, "auto_promote", *autoPro, "heartbeat_timeout", hbTO.String())
	}

	select {
	case sig := <-stop:
		l.Info("signal received, draining", "signal", sig.String())
		if fol != nil {
			fol.Stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if clusterHS != nil {
			if err := clusterHS.Shutdown(ctx); err != nil {
				l.Warn("cluster listener shutdown", "err", err)
			}
			if err := agent.Shutdown(ctx); err != nil {
				l.Warn("cluster agent shutdown", "err", err)
			}
		}
		if err := s.Shutdown(ctx); err != nil {
			fatal(l, "shutdown failed", "err", err)
		}
		l.Info("drained, bye")
	case err := <-errc:
		if err != nil {
			fatal(l, "serve failed", "err", err)
		}
	}
}
