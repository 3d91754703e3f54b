package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	uss "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/server"
)

// peerRead reports how one owner's partial was obtained — the per-peer
// detail degraded responses carry.
type peerRead struct {
	// Owner is the partial's owner node.
	Owner string `json:"owner"`
	// Source is where the bins came from: "local" (this node's own
	// partial), "owner" (fetched from the owner), "copy" (hedged from a
	// co-owner's anti-entropy copy), or "miss" (no source answered).
	Source string `json:"source"`
	// Error is the fetch failure, when the partial was missed.
	Error string `json:"error,omitempty"`
	// Bins is the partial's bin count.
	Bins int `json:"bins"`
}

// gathered is one scatter-gather read's raw material: the sketch
// config, every obtained partial's bin list, and the per-peer detail.
type gathered struct {
	cfg      server.SketchConfig
	lists    [][]uss.Bin
	reads    []peerRead
	answered int
	degraded bool
}

// merged collapses the gathered partials into one exact bin list. The
// partials are disjoint substreams, so with the merge budget set to the
// union size nothing reduces and the result is the item-wise sum. Large
// gathers fan the sum out across uss.MergeParallelism goroutines; the
// parallel merge is bit-identical to the sequential one.
func (g *gathered) merged() []uss.Bin {
	m := 0
	for _, l := range g.lists {
		m += len(l)
	}
	if m == 0 {
		return nil
	}
	return uss.MergeBinsParallel(m, uss.Pairwise, g.lists...)
}

// sketch materializes the merged partials as a weighted sketch sized to
// hold them exactly, so cluster reads answer through the same TopK /
// Estimate / SubsetSum / query code single-node reads use.
func (g *gathered) sketch() (*uss.WeightedSketch, error) {
	merged := g.merged()
	m := len(merged)
	if m < 1 {
		m = 1
	}
	return uss.NewWeightedFromBins(m, merged)
}

// gatherRead is the point reads' cluster source (server.Gather): the
// owner partials gathered and merged into one sketch, with the gather's
// degraded marker and, when degraded, its per-peer detail.
func (a *Agent) gatherRead(ctx context.Context, name string) (*uss.WeightedSketch, *server.ReadHealth, int, error) {
	g, code, err := a.gatherBins(ctx, name)
	if err != nil {
		return nil, nil, code, err
	}
	sk, err := g.sketch()
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	rh := &server.ReadHealth{Degraded: g.degraded}
	if g.degraded {
		rh.Peers = g.reads
	}
	return sk, rh, 0, nil
}

// gatherBins scatters a read for name to its owner set and gathers the
// partials, hedging each remote owner with a co-owner copy after
// HedgeDelay (or immediately on failure). It returns a non-zero HTTP
// status only when the read cannot be answered at all: 404 for an
// unknown sketch, 503 when fewer than ReadQuorum partials answered.
// Anything gathered at quorum is served — degraded, never 5xx.
func (a *Agent) gatherBins(ctx context.Context, name string) (*gathered, int, error) {
	cfg, ok := a.srv.SketchConfigOf(name)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound)
	}
	owners := a.owners(name)
	tr := a.ob.Tracer()
	parent, _ := obs.FromContext(ctx)
	gsp := tr.Start(parent, "cluster.gather")
	start := time.Now()
	ctx = obs.ContextWith(ctx, gsp.Context())
	g := &gathered{cfg: cfg, reads: make([]peerRead, len(owners))}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, o := range owners {
		wg.Add(1)
		go func(i int, o string) {
			defer wg.Done()
			bins, src, err := a.fetchPartial(ctx, name, o, owners)
			mu.Lock()
			defer mu.Unlock()
			pr := peerRead{Owner: o, Source: src, Bins: len(bins)}
			if err != nil {
				pr.Error = err.Error()
				g.reads[i] = pr
				return
			}
			g.lists = append(g.lists, bins)
			g.answered++
			g.reads[i] = pr
		}(i, o)
	}
	wg.Wait()
	a.ob.GatherHist.RecordSince(start)
	for _, pr := range g.reads {
		if pr.Error != "" || (pr.Source != "owner" && pr.Source != "local") {
			g.degraded = true
		}
	}
	if g.answered < a.cfg.ReadQuorum {
		gsp.Finish(obs.StatusError)
		return g, http.StatusServiceUnavailable,
			fmt.Errorf("read quorum not met for %q: %d of %d owner partials answered (need %d)",
				name, g.answered, len(owners), a.cfg.ReadQuorum)
	}
	if g.degraded {
		a.met.degraded.Add(1)
	}
	gsp.Finish(obs.StatusOK)
	return g, 0, nil
}

// fetchPartial obtains one owner's partial: locally for self, otherwise
// from the owner with a copy-sourced hedge racing it after HedgeDelay.
// The cluster.partial-read faultpoint forces a whole-partial miss.
func (a *Agent) fetchPartial(ctx context.Context, name, owner string, owners []string) ([]uss.Bin, string, error) {
	if owner == a.cfg.Self {
		bins, err := a.localBins(name)
		if err != nil {
			return nil, "miss", err
		}
		return bins, "local", nil
	}
	if faultinject.Hit("cluster.partial-read") {
		return nil, "miss", fmt.Errorf("faultpoint cluster.partial-read dropped owner %s", owner)
	}
	// The primary and its hedge race; whichever loses must not keep its
	// request (and the goroutine reading the response) alive until the
	// caller's deadline. Cancelling on return reels the loser in. Each
	// racer runs under its own span finished with FinishErr, so the loser
	// shows up in the trace as status "cancelled" — visible, not leaked.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := a.ob.Tracer()
	parent, _ := obs.FromContext(ctx)
	type res struct {
		bins []uss.Bin
		src  string
		err  error
	}
	ch := make(chan res, 2)
	go func() {
		sp := tr.Start(parent, "cluster.fetch-owner")
		bins, err := a.fetchOwnerBins(obs.ContextWith(ctx, sp.Context()), owner, name)
		sp.FinishErr(err)
		ch <- res{bins, "owner", err}
	}()
	inflight := 1
	hedged := false
	hedge := func() {
		if hedged {
			return
		}
		hedged = true
		if a.startHedge(ctx, name, owner, owners, func(bins []uss.Bin, err error) {
			ch <- res{bins, "copy", err}
		}) {
			a.met.hedges.Add(1)
			inflight++
		}
	}
	timer := time.NewTimer(a.cfg.HedgeDelay)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.bins, r.src, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			inflight--
			hedge() // a failed primary fires the hedge immediately
			if inflight == 0 {
				return nil, "miss", firstErr
			}
		case <-timer.C:
			hedge()
		case <-ctx.Done():
			return nil, "miss", ctx.Err()
		}
	}
}

// startHedge launches the copy-sourced fallback read for owner's
// partial: this node's own anti-entropy copy when it co-owns the
// sketch, else a live co-owner's copy over HTTP. False means no copy
// source exists.
func (a *Agent) startHedge(ctx context.Context, name, owner string, owners []string, deliver func([]uss.Bin, error)) bool {
	selfOwns := false
	for _, o := range owners {
		if o == a.cfg.Self {
			selfOwns = true
		}
	}
	tr := a.ob.Tracer()
	parent, _ := obs.FromContext(ctx)
	if selfOwns {
		a.copyMu.Lock()
		c := a.copies[copyKey{name: name, owner: owner}]
		a.copyMu.Unlock()
		if c == nil {
			return false
		}
		go func() {
			sp := tr.Start(parent, "cluster.hedge-copy")
			bins, err := server.StateBins(c.cfg, c.blob)
			sp.FinishErr(err)
			deliver(bins, err)
		}()
		return true
	}
	for _, p := range owners {
		if p == owner || p == a.cfg.Self || !a.alive(p) {
			continue
		}
		go func(p string) {
			sp := tr.Start(parent, "cluster.hedge-copy")
			cfg, _, blob, err := a.pullCopy(obs.ContextWith(ctx, sp.Context()), p, name, owner)
			if err != nil {
				sp.FinishErr(err)
				deliver(nil, err)
				return
			}
			bins, err := server.StateBins(cfg, blob)
			sp.FinishErr(err)
			deliver(bins, err)
		}(p)
		return true
	}
	return false
}

// localBins flattens this node's own partial.
func (a *Agent) localBins(name string) ([]uss.Bin, error) {
	cfg, _, blob, err := a.srv.SketchState(name)
	if err != nil {
		return nil, err
	}
	return server.StateBins(cfg, blob)
}

// fetchOwnerBins fetches an owner's partial in bins format.
func (a *Agent) fetchOwnerBins(ctx context.Context, owner, name string) ([]uss.Bin, error) {
	blob, err := a.getBlob(ctx, owner, "/v1/cluster/state/"+name+"?format=bins", nil)
	if err != nil {
		return nil, err
	}
	return uss.DecodeBins(blob)
}

// stateHeaders carries a state/copy response's sidecar metadata.
type stateHeaders struct {
	cfg   server.SketchConfig
	stats server.SketchStats
}

// getBlob issues one GET to peer+path, returning the binary body; when
// hdr is non-nil the X-Uss-* sidecar headers are parsed into it.
func (a *Agent) getBlob(ctx context.Context, peer, path string, hdr *stateHeaders) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.doPeer(peer, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, a.cfg.MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d: %s", peer, path, resp.StatusCode, truncate(body, 160))
	}
	if hdr != nil {
		if err := json.Unmarshal([]byte(resp.Header.Get("X-Uss-Config")), &hdr.cfg); err != nil {
			return nil, fmt.Errorf("GET %s%s: bad X-Uss-Config: %w", peer, path, err)
		}
		if err := json.Unmarshal([]byte(resp.Header.Get("X-Uss-Stats")), &hdr.stats); err != nil {
			return nil, fmt.Errorf("GET %s%s: bad X-Uss-Stats: %w", peer, path, err)
		}
	}
	return body, nil
}

// pullState fetches a peer's live partial in exact-state format.
func (a *Agent) pullState(ctx context.Context, peer, name string) (server.SketchConfig, server.SketchStats, []byte, error) {
	var hdr stateHeaders
	blob, err := a.getBlob(ctx, peer, "/v1/cluster/state/"+name, &hdr)
	if err != nil {
		return server.SketchConfig{}, server.SketchStats{}, nil, err
	}
	return hdr.cfg, hdr.stats, blob, nil
}

// pullCopy fetches peer's anti-entropy copy of owner's partial.
func (a *Agent) pullCopy(ctx context.Context, peer, name, owner string) (server.SketchConfig, server.SketchStats, []byte, error) {
	var hdr stateHeaders
	blob, err := a.getBlob(ctx, peer, "/v1/cluster/copy/"+name+"?owner="+url.QueryEscape(owner), &hdr)
	if err != nil {
		return server.SketchConfig{}, server.SketchStats{}, nil, err
	}
	return hdr.cfg, hdr.stats, blob, nil
}

// truncate clips b for error messages.
func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
