package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
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
// config and owner set, each owner's partial (in owner order), and the
// per-peer detail.
type gathered struct {
	cfg      server.SketchConfig
	owners   []string
	parts    []partial
	reads    []peerRead
	answered int
	degraded bool
}

// partial is one owner's share of a gather; a missed partial is zero.
type partial struct {
	bins []uss.Bin
	tag  string // its version token; empty unless owner- or local-sourced
	same bool   // tag matched the cached gather's: bins are the cached bins
}

// gatherCache is the last clean gather of one sketch name: the owner
// partials with their tokens, and the read handle merged from them.
// Immutable once stored; a newer gather replaces it whole.
type gatherCache struct {
	cfg    server.SketchConfig
	owners []string
	parts  []partial
	read   *server.GatheredRead
}

// gatherResults name the gathered point-read outcomes counted in
// ussd_cluster_gather_reads_total, indexed by the gather* constants.
var gatherResults = [...]string{"hit", "partial", "miss", "uncached"}

const (
	gatherHit      = iota // every partial unchanged: the cached handle answered
	gatherPartial         // some partials unchanged: re-merged with their cached bins
	gatherMiss            // no partial reused
	gatherUncached        // degraded: the cache was neither read nor filled
)

// merged collapses the gathered partials into one exact bin list. The
// partials are disjoint substreams, so with the merge budget set to the
// union size nothing reduces and the result is the item-wise sum. Large
// gathers fan the sum out across GOMAXPROCS goroutines; the parallel
// merge is bit-identical to the sequential one.
func (g *gathered) merged() []uss.Bin {
	lists := make([][]uss.Bin, len(g.parts))
	m := 0
	for i, p := range g.parts {
		lists[i] = p.bins
		m += len(p.bins)
	}
	if m == 0 {
		return nil
	}
	return uss.MergeBinsParallel(m, uss.Pairwise, lists...)
}

// gatherRead is the point reads' cluster source (server.Gather): the
// owner partials gathered and merged into one read handle, with the
// gather's degraded marker and, when degraded, its per-peer detail.
//
// Each name keeps its last clean gather. Every owner is sent the token
// of its cached partial and answers 304 while its partial is unchanged,
// so a read pays only for the partials that changed; when none did, the
// cached handle answers without any decode, merge or materialization. A
// degraded gather reuses a 304'd partial's bins (the token proves them
// current) but never answers from the cached handle or replaces it.
func (a *Agent) gatherRead(ctx context.Context, name string) (*server.GatheredRead, *server.ReadHealth, int, error) {
	a.gatherMu.Lock()
	prev := a.gathers[name]
	a.gatherMu.Unlock()
	g, code, err := a.gatherBins(ctx, name, prev)
	if err != nil {
		if code == http.StatusNotFound {
			a.dropGather(name)
		}
		return nil, nil, code, err
	}
	same := 0
	for _, p := range g.parts {
		if p.same {
			same++
		}
	}
	rh := &server.ReadHealth{Degraded: g.degraded}
	if g.degraded {
		rh.Peers = g.reads
		gr, err := server.NewGatheredRead(name, g.merged())
		if err != nil {
			return nil, nil, http.StatusInternalServerError, err
		}
		a.met.gatherReads[gatherUncached].Add(1)
		return gr, rh, 0, nil
	}
	if same == len(g.parts) { // only prev's tokens can match, so prev is set
		a.met.gatherReads[gatherHit].Add(1)
		return prev.read, rh, 0, nil
	}
	gr, err := server.NewGatheredRead(name, g.merged())
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	if same > 0 {
		a.met.gatherReads[gatherPartial].Add(1)
	} else {
		a.met.gatherReads[gatherMiss].Add(1)
	}
	a.gatherMu.Lock()
	a.gathers[name] = &gatherCache{cfg: g.cfg, owners: g.owners, parts: g.parts, read: gr}
	a.gatherMu.Unlock()
	return gr, rh, 0, nil
}

// dropGather forgets name's cached gather.
func (a *Agent) dropGather(name string) {
	a.gatherMu.Lock()
	delete(a.gathers, name)
	a.gatherMu.Unlock()
}

// gatherBins scatters a read for name to its owner set and gathers the
// partials, hedging each remote owner with a co-owner copy after
// HedgeDelay (or immediately on failure). prev, when it matches the
// sketch's config and owner set, supplies each owner's cached token and
// bins. It returns a non-zero HTTP status only when the read cannot be
// answered at all: 404 for an unknown sketch, 503 when fewer than
// ReadQuorum partials answered. Anything gathered at quorum is served —
// degraded, never 5xx.
func (a *Agent) gatherBins(ctx context.Context, name string, prev *gatherCache) (*gathered, int, error) {
	cfg, ok := a.srv.SketchConfigOf(name)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound)
	}
	owners := a.owners(name)
	if prev != nil && (prev.cfg != cfg || !slices.Equal(prev.owners, owners)) {
		prev = nil
	}
	tr := a.ob.Tracer()
	parent, _ := obs.FromContext(ctx)
	gsp := tr.Start(parent, "cluster.gather")
	start := time.Now()
	ctx = obs.ContextWith(ctx, gsp.Context())
	g := &gathered{
		cfg: cfg, owners: owners,
		parts: make([]partial, len(owners)), reads: make([]peerRead, len(owners)),
	}
	var wg sync.WaitGroup
	for i, o := range owners {
		var cached partial
		if prev != nil {
			cached = prev.parts[i]
		}
		wg.Add(1)
		go func(i int, o string) {
			defer wg.Done()
			p, src, err := a.fetchPartial(ctx, name, o, owners, cached)
			pr := peerRead{Owner: o, Source: src, Bins: len(p.bins)}
			if err != nil {
				pr.Error = err.Error()
			}
			g.parts[i], g.reads[i] = p, pr
		}(i, o)
	}
	wg.Wait()
	a.ob.GatherHist.RecordSince(start)
	for _, pr := range g.reads {
		if pr.Error == "" {
			g.answered++
		}
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
// cached is the owner's partial from the last clean gather (zero when
// none): the owner is asked for bins only if its token moved on. The
// cluster.partial-read faultpoint forces a whole-partial miss.
func (a *Agent) fetchPartial(ctx context.Context, name, owner string, owners []string, cached partial) (partial, string, error) {
	if owner == a.cfg.Self {
		bins, tag, err := a.srv.PartialBins(name, cached.tag)
		if err != nil {
			return partial{}, "miss", err
		}
		return fresh(cached, bins, tag), "local", nil
	}
	if faultinject.Hit("cluster.partial-read") {
		return partial{}, "miss", fmt.Errorf("faultpoint cluster.partial-read dropped owner %s", owner)
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
		p   partial
		src string
		err error
	}
	ch := make(chan res, 2)
	go func() {
		sp := tr.Start(parent, "cluster.fetch-owner")
		bins, tag, err := a.fetchOwnerBins(obs.ContextWith(ctx, sp.Context()), owner, name, cached.tag)
		sp.FinishErr(err)
		ch <- res{fresh(cached, bins, tag), "owner", err}
	}()
	inflight := 1
	hedged := false
	hedge := func() {
		if hedged {
			return
		}
		hedged = true
		if a.startHedge(ctx, name, owner, owners, func(bins []uss.Bin, err error) {
			ch <- res{partial{bins: bins}, "copy", err}
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
				return r.p, r.src, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			inflight--
			hedge() // a failed primary fires the hedge immediately
			if inflight == 0 {
				return partial{}, "miss", firstErr
			}
		case <-timer.C:
			hedge()
		case <-ctx.Done():
			return partial{}, "miss", ctx.Err()
		}
	}
}

// fresh is the partial an owner answered with: the cached one when tag
// still matches its token (no bins were sent), else the new bins.
func fresh(cached partial, bins []uss.Bin, tag string) partial {
	if cached.tag != "" && tag == cached.tag {
		return partial{bins: cached.bins, tag: tag, same: true}
	}
	return partial{bins: bins, tag: tag}
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

// fetchOwnerBins fetches an owner's partial in bins format with its
// version token. have is the token of the caller's cached copy ("" for
// none); an owner whose partial still matches it answers 304 and no
// bins, reported as tag == have.
func (a *Agent) fetchOwnerBins(ctx context.Context, owner, name, have string) ([]uss.Bin, string, error) {
	path := "/v1/cluster/state/" + name + "?format=bins"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+path, nil)
	if err != nil {
		return nil, "", err
	}
	if have != "" {
		req.Header.Set("If-None-Match", strconv.Quote(have))
	}
	resp, err := a.doPeer(owner, req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return nil, have, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, a.cfg.MaxBodyBytes))
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s%s: status %d: %s", owner, path, resp.StatusCode, truncate(body, 160))
	}
	bins, err := uss.DecodeBins(body)
	if err != nil {
		return nil, "", err
	}
	tag, _ := strconv.Unquote(resp.Header.Get("ETag"))
	return bins, tag, nil
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
