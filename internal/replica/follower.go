package replica

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// Options configures a follower.
type Options struct {
	// Primary is the primary's base URL (e.g. "http://10.0.0.1:8632").
	Primary string
	// Server is the local server the follower applies records into. It
	// must be durable (AttachStore) and in RoleFollower.
	Server *server.Server
	// DataDir is the local store directory (PrepareDataDir operates on
	// it before the store exists).
	DataDir string
	// HeartbeatTimeout is how long the primary may be unreachable before
	// an auto-promoting follower promotes itself (default 10s).
	HeartbeatTimeout time.Duration
	// AutoPromote promotes this follower to primary when the primary has
	// been unreachable for HeartbeatTimeout.
	AutoPromote bool
	// RequestTimeout bounds each replication RPC (default 10s).
	RequestTimeout time.Duration
	// Poll is the WAL stream's long-poll wait — it doubles as the
	// heartbeat interval while caught up (default 1s).
	Poll time.Duration
	// Log receives structured progress and warning events (default:
	// discard). A "component=replica" field is attached automatically.
	Log *slog.Logger
}

// defaults fills zero fields in place.
func (o *Options) defaults() {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = time.Second
	}
	if o.Log == nil {
		o.Log = obs.NopLogger()
	}
	o.Log = o.Log.With("component", "replica")
}

// PrepareDataDir readies a follower's data dir before the store opens:
// it waits for a reachable primary, reconciles a diverged local tail by
// re-submitting it to the new primary (then wiping the old-timeline
// state), bootstraps from the primary's checkpoint bundle when the local
// position was checkpoint-truncated away, and adopts the primary's
// timeline. On return the dir opens into a store whose next LSN the
// primary's stream can serve.
func PrepareDataDir(ctx context.Context, opts Options) error {
	opts.defaults()
	cli := NewClient(opts.Primary, opts.RequestTimeout)
	log := opts.Log

	// Wait out primary startup: keep retrying until it answers and
	// reports itself primary.
	var st server.ReplStatus
	err := Retry(ctx, 0, 200*time.Millisecond, 5*time.Second, func() error {
		var err error
		st, err = cli.Status(ctx)
		if err != nil {
			log.Info("waiting for primary", "primary", opts.Primary, "err", err)
			return err
		}
		if st.Role != server.RolePrimary.String() {
			return fmt.Errorf("replica: %s reports role %q, not primary", opts.Primary, st.Role)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !st.Durable {
		return fmt.Errorf("replica: primary %s is not durable (no -data-dir); nothing to replicate", opts.Primary)
	}

	tl, err := store.LoadTimeline(opts.DataDir)
	if err != nil {
		return err
	}
	next, err := store.DirNextLSN(opts.DataDir)
	if err != nil {
		return err
	}
	localLast := next - 1

	switch {
	case st.Epoch < tl.Epoch:
		return fmt.Errorf("replica: local timeline epoch %d is newer than primary's %d; refusing to follow %s",
			tl.Epoch, st.Epoch, opts.Primary)
	case st.Epoch > tl.Epoch && localLast > st.PromoteLSN:
		// This node was the old primary (or lagged behind one): its log
		// carries records above the point where the new timeline forked.
		// Those records were acknowledged to clients — merge them into the
		// new primary instead of dropping them, then start over from the
		// new timeline.
		log.Warn("merging diverged tail into new primary",
			"local_last", localLast, "epoch", st.Epoch, "fork_lsn", st.PromoteLSN, "primary", opts.Primary)
		merged, err := mergeTail(ctx, cli, opts.DataDir, st.PromoteLSN, log)
		if err != nil {
			return fmt.Errorf("replica: reconcile diverged tail: %w", err)
		}
		log.Info("merged diverged tail; resetting local state to the new timeline", "records", merged)
		if opts.Server != nil {
			opts.Server.NoteMergedTail(merged)
		}
		if err := wipeDataDir(opts.DataDir); err != nil {
			return err
		}
	}

	// Make sure the primary's stream can serve our position; when it was
	// checkpoint-truncated away, install the checkpoint bundle and try
	// again from the bundle's position.
	for resyncs := 0; ; {
		next, err := store.DirNextLSN(opts.DataDir)
		if err != nil {
			return err
		}
		probe := func() error {
			_, err := cli.StreamWAL(ctx, next, 0)
			if err == nil || errors.Is(err, ErrGone) || errors.Is(err, ErrDiverged) {
				return nil // definitive answer; stop retrying
			}
			return err
		}
		if err := Retry(ctx, 5, 200*time.Millisecond, 2*time.Second, probe); err != nil {
			return fmt.Errorf("replica: probe stream at %d: %w", next, err)
		}
		_, err = cli.StreamWAL(ctx, next, 0)
		if err == nil {
			break
		}
		if errors.Is(err, ErrDiverged) {
			return fmt.Errorf("replica: local log (next %d) is ahead of primary %s on the same epoch: %w",
				next, opts.Primary, err)
		}
		if !errors.Is(err, ErrGone) {
			return err
		}
		if resyncs++; resyncs > 3 {
			return fmt.Errorf("replica: still behind the primary's checkpoint after %d resyncs", resyncs-1)
		}
		bundle, gen, err := cli.Checkpoint(ctx)
		if err != nil {
			return err
		}
		if gen == 0 {
			return fmt.Errorf("replica: primary truncated LSN %d but serves no checkpoint bundle", next)
		}
		if err := wipeDataDir(opts.DataDir); err != nil {
			return err
		}
		if _, err := store.InstallCheckpointBundle(opts.DataDir, bundle); err != nil {
			return err
		}
		if opts.Server != nil {
			opts.Server.NoteResync()
		}
		log.Info("installed checkpoint bundle", "gen", gen, "primary", opts.Primary)
	}

	return store.SaveTimeline(opts.DataDir, store.Timeline{Epoch: st.Epoch, PromoteLSN: st.PromoteLSN})
}

// mergeTail re-submits every local record above promoteLSN to the new
// primary through the ordinary client endpoints: creates tolerate
// "exists", deletes tolerate "missing", ingests go synchronously and
// snapshots keep their original reduction — the sketches are mergeable,
// so re-submission reconciles totals exactly. Records a checkpoint
// already folded in below promoteLSN cannot be separated; mergeTail
// warns when the local log no longer reaches back to the fork point.
func mergeTail(ctx context.Context, cli *Client, dir string, promoteLSN uint64, log *slog.Logger) (int64, error) {
	var merged int64
	submit := func(rec store.Record) error {
		switch rec.Type {
		case store.TypeCreate:
			return cli.CreateSketch(ctx, rec.SpecJSON)
		case store.TypeDelete:
			return cli.DeleteSketch(ctx, rec.Name)
		case store.TypeIngest:
			return cli.IngestSync(ctx, rec.Name, rec.Items, rec.Weights, rec.Ats)
		case store.TypeSnapshot:
			return cli.PushSnapshot(ctx, rec.Name, rec.Reduction, rec.Blob)
		default:
			return nil
		}
	}
	oldest, err := store.StreamPayloads(dir, promoteLSN+1, 0, func(lsn uint64, payload []byte) error {
		rec, err := store.DecodePayload(lsn, payload)
		if err != nil {
			log.Warn("skipping undecodable local record during reconciliation", "lsn", lsn, "err", err)
			return nil
		}
		if err := Retry(ctx, 5, 100*time.Millisecond, 2*time.Second, func() error { return submit(rec) }); err != nil {
			return fmt.Errorf("re-submit record %d (type %d): %w", lsn, rec.Type, err)
		}
		merged++
		return nil
	})
	if err != nil {
		return merged, err
	}
	if oldest > promoteLSN+1 {
		log.Warn("local log starts past the fork point; checkpoint-folded records cannot be re-submitted individually",
			"oldest", oldest, "fork_lsn", promoteLSN+1)
	}
	return merged, nil
}

// wipeDataDir clears dir's durable state (log segments, checkpoints,
// timeline, staging leftovers) so a resync starts clean. The directory
// itself survives.
func wipeDataDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case name == "wal", name == "timeline.json",
			strings.HasPrefix(name, "cp-"), strings.HasPrefix(name, ".tmp-"):
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Follower is a running replication loop. Stop cancels it and waits;
// Done closes when the loop exits on its own (promotion, fatal error).
type Follower struct {
	opts   Options
	cli    *Client
	cancel context.CancelFunc
	done   chan struct{}

	err error // set before done closes
}

// Start launches the follower loop: tail the primary's WAL stream from
// the local log end, apply every record through the server's replicated
// apply path, track lag, and — when AutoPromote is set — promote after
// HeartbeatTimeout without contact. The server must already be in
// RoleFollower with its store attached.
func Start(opts Options) (*Follower, error) {
	opts.defaults()
	if opts.Server == nil {
		return nil, fmt.Errorf("replica: Start needs a server")
	}
	if opts.Server.Role() != server.RoleFollower {
		return nil, fmt.Errorf("replica: server is %s, not a follower", opts.Server.Role())
	}
	if opts.Server.WALNextLSN() == 0 {
		return nil, fmt.Errorf("replica: server has no attached store")
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		opts:   opts,
		cli:    NewClient(opts.Primary, opts.RequestTimeout),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go f.run(ctx)
	return f, nil
}

// Stop cancels the loop and waits for it to exit.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
}

// Done closes when the loop has exited.
func (f *Follower) Done() <-chan struct{} { return f.done }

// Err reports why the loop exited (nil for Stop or promotion).
func (f *Follower) Err() error {
	<-f.done
	return f.err
}

// run is the follower loop body.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	srv := f.opts.Server
	log := f.opts.Log
	bo := NewBackoff(100*time.Millisecond, 5*time.Second)
	lastContact := time.Now()

	// The whole streaming session shares one root trace so every
	// StreamWAL request the follower issues (and the primary's matching
	// server spans) can be pulled up together from /debug/traces.
	tracer := srv.Obs().Tracer()
	session := tracer.NewRoot()
	ctx = obs.ContextWith(ctx, session)
	log = log.With("trace", session.Trace.String())

	for ctx.Err() == nil {
		if srv.Role() != server.RoleFollower {
			log.Info("no longer a follower; replication loop exiting")
			return
		}
		from := srv.WALNextLSN()
		sp := tracer.Start(session, "repl.stream")
		res, err := f.cli.StreamWAL(obs.ContextWith(ctx, sp.Context()), from, f.opts.Poll)
		sp.FinishErr(err)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, ErrGone) || errors.Is(err, ErrDiverged) {
				// The stream can no longer serve our position; a restart
				// re-runs PrepareDataDir, which resyncs or reconciles.
				srv.SetReady(false)
				f.err = fmt.Errorf("replica: stream at %d unavailable: %w (restart this follower to resync)", from, err)
				log.Error("stream unavailable", "from", from, "err", err)
				return
			}
			if f.opts.AutoPromote && time.Since(lastContact) > f.opts.HeartbeatTimeout {
				log.Warn("primary unreachable; promoting",
					"primary", f.opts.Primary, "silence", time.Since(lastContact).Round(time.Millisecond))
				if perr := srv.Promote(); perr != nil {
					f.err = fmt.Errorf("replica: promote: %w", perr)
					log.Error("promote failed", "err", perr)
					return
				}
				log.Warn("promoted to primary", "epoch", srv.Epoch(), "promote_lsn", srv.PromoteLSN())
				return
			}
			srv.NoteReconnect()
			log.Info("stream failed; reconnecting", "primary", f.opts.Primary, "err", err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(bo.Next()):
			}
			continue
		}
		lastContact = time.Now()

		if res.Epoch > srv.Epoch() {
			// The primary promoted (or restarted onto a newer timeline)
			// while we streamed. Everything we hold is below the fork point
			// iff our log end is at or below its PromoteLSN — then we simply
			// adopt the new epoch and keep tailing.
			if from-1 <= res.PromoteLSN {
				if err := srv.AdoptTimeline(store.Timeline{Epoch: res.Epoch, PromoteLSN: res.PromoteLSN}); err != nil {
					f.err = fmt.Errorf("replica: adopt epoch %d: %w", res.Epoch, err)
					log.Error("adopt timeline failed", "epoch", res.Epoch, "err", err)
					return
				}
				log.Info("primary moved to a new epoch; adopted", "epoch", res.Epoch, "fork_lsn", res.PromoteLSN)
			} else {
				srv.SetReady(false)
				f.err = fmt.Errorf("replica: primary is on epoch %d forked at %d but local log ends at %d; restart this follower to reconcile",
					res.Epoch, res.PromoteLSN, from-1)
				log.Error("epoch conflict; restart this follower to reconcile",
					"epoch", res.Epoch, "fork_lsn", res.PromoteLSN, "local_last", from-1)
				return
			}
		}

		applied, failed := from-1, false
		frames := res.Frames
		for len(frames) > 0 {
			lsn, payload, rest, err := server.CutStreamFrame(frames)
			if err != nil {
				log.Warn("bad stream frame; re-requesting", "after", applied, "err", err)
				break
			}
			if payload == nil {
				break
			}
			frames = rest
			if lsn <= applied {
				continue // duplicated frame (dup-frame fault, overlap on resume)
			}
			if lsn > applied+1 {
				log.Warn("stream gap; re-requesting", "have", applied, "got", lsn)
				break
			}
			if err := srv.ApplyReplicated(lsn, payload); err != nil {
				if errors.Is(err, server.ErrNotFollower) {
					log.Info("promoted mid-apply; replication loop exiting")
					return
				}
				log.Warn("apply failed; backing off", "lsn", lsn, "err", err)
				failed = true
				break
			}
			applied = lsn
		}

		lag := int64(res.LastLSN) - int64(applied)
		if lag < 0 {
			lag = 0
		}
		srv.SetReplicationLag(lag)
		if lag == 0 && !srv.Ready() {
			srv.SetReady(true)
			log.Info("caught up; ready", "primary", f.opts.Primary, "lsn", applied)
		}
		// Gaps and bad frames re-request at once (the primary resends).
		// A failed apply backs off: one that repeats — a read-only disk —
		// would otherwise re-request in a hot loop, since the primary
		// answers at once while records exist at from.
		if !failed || applied >= from {
			bo.Reset()
		}
		if failed {
			select {
			case <-ctx.Done():
				return
			case <-time.After(bo.Next()):
			}
		}
	}
}
