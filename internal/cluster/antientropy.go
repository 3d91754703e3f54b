package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	uss "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/server"
)

// nodeDigest is one node's anti-entropy gossip payload: a fingerprint
// of every sketch partial it hosts.
type nodeDigest struct {
	// Node is the digesting node's peer URL.
	Node string `json:"node"`
	// Sketches fingerprints each hosted partial.
	Sketches []digestEntry `json:"sketches"`
}

// digestEntry fingerprints one partial: full config (so peers can
// create missing sketches), counters and total mass. Counters are
// monotone per partial, so equality means identical history and any
// divergence is pull-worthy.
type digestEntry struct {
	// Config is the sketch's full configuration.
	Config server.SketchConfig `json:"config"`
	// Stats is the partial's counter snapshot.
	Stats server.SketchStats `json:"stats"`
	// Total is the partial's mass.
	Total float64 `json:"total"`
}

// AEStats summarizes one anti-entropy round.
type AEStats struct {
	// Peers is how many peers were gossiped with.
	Peers int `json:"peers"`
	// Pulled counts state blobs pulled on digest divergence.
	Pulled int `json:"pulled"`
	// Created counts locally-missing sketches created from peer digests.
	Created int `json:"created"`
	// Dropped counts copies garbage-collected for deleted sketches.
	Dropped int `json:"dropped"`
	// Errors lists per-peer failures (an unreachable peer is one line).
	Errors []string `json:"errors,omitempty"`
}

// RepairStats summarizes a BootRepair pass.
type RepairStats struct {
	// Restored counts partials replaced from a peer's copy.
	Restored int `json:"restored"`
	// Created counts locally-missing sketches created from peer digests.
	Created int `json:"created"`
	// Errors lists non-fatal failures (unreachable peers are expected
	// during a rolling start).
	Errors []string `json:"errors,omitempty"`
}

// localDigest fingerprints this node's partials.
func (a *Agent) localDigest() nodeDigest {
	ds := a.srv.Digests()
	out := nodeDigest{Node: a.cfg.Self, Sketches: make([]digestEntry, 0, len(ds))}
	for _, d := range ds {
		cfg, ok := a.srv.SketchConfigOf(d.Name)
		if !ok {
			continue // deleted between listing and lookup
		}
		out.Sketches = append(out.Sketches, digestEntry{
			Config: cfg,
			Stats:  server.SketchStats{Rows: d.Rows, Pushes: d.Pushes},
			Total:  d.Total,
		})
	}
	return out
}

func (a *Agent) handleDigest(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.localDigest())
}

// handleState serves this node's live partial for one sketch: the exact
// checkpoint-encoded state by default, with config and counters on the
// X-Uss-Config and X-Uss-Stats headers, or with ?format=bins the
// flattened mergeable bin list (handlePartialBins). The
// cluster.slow-peer faultpoint delays the response here, which is what
// pushes gatherers over their hedge delay.
func (a *Agent) handleState(w http.ResponseWriter, r *http.Request) {
	faultinject.Sleep("cluster.slow-peer", 250*time.Millisecond)
	name := r.PathValue("name")
	if r.URL.Query().Get("format") == "bins" {
		a.handlePartialBins(w, r, name)
		return
	}
	cfg, stats, blob, err := a.srv.SketchState(name)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, server.ErrNotFound) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeStateBlob(w, cfg, stats, blob)
}

// handlePartialBins serves a partial's bins straight from the live
// sketch under an ETag naming their cut (server.PartialBins). A request
// whose If-None-Match carries the current tag gets 304 and no body, so
// an unchanged partial costs its gatherer neither encode nor decode.
func (a *Agent) handlePartialBins(w http.ResponseWriter, r *http.Request, name string) {
	cfg, ok := a.srv.SketchConfigOf(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sketch %q: %w", name, server.ErrNotFound))
		return
	}
	if cfg.Kind == server.KindRollup {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sketch %q: %s state has no flat bin view", name, cfg.Kind))
		return
	}
	have, _ := strconv.Unquote(r.Header.Get("If-None-Match"))
	bins, tag, err := a.srv.PartialBins(name, have)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, server.ErrNotFound) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("ETag", strconv.Quote(tag))
	if tag == have {
		a.met.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	blob, err := uss.EncodeBins(max(len(bins), 1), bins)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

// handleCopy serves this node's anti-entropy copy of ?owner='s partial
// of {name} — the hedge source for degraded reads and the repair source
// for a rejoining owner.
func (a *Agent) handleCopy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	owner := r.URL.Query().Get("owner")
	if owner == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing owner parameter"))
		return
	}
	a.copyMu.Lock()
	c := a.copies[copyKey{name: name, owner: owner}]
	a.copyMu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no copy of %q for owner %s", name, owner))
		return
	}
	writeStateBlob(w, c.cfg, c.stats, c.blob)
}

// handleCopies lists the copies this node holds for ?owner= — what a
// rejoining node asks each peer during BootRepair.
func (a *Agent) handleCopies(w http.ResponseWriter, r *http.Request) {
	owner := r.URL.Query().Get("owner")
	a.copyMu.Lock()
	out := make([]copyDTO, 0, 8)
	for k, c := range a.copies {
		if owner == "" || k.owner == owner {
			out = append(out, copyDTO{Name: k.name, Owner: k.owner, Config: c.cfg, Stats: c.stats, Total: c.total})
		}
	}
	a.copyMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"owner": owner, "copies": out})
}

// handleAntiEntropy runs one round now and reports its stats — the
// manual trigger (uss cluster, tests, operators).
func (a *Agent) handleAntiEntropy(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.AntiEntropyRound(r.Context()))
}

// writeStateBlob writes a state/copy response: binary blob plus the
// X-Uss-Config / X-Uss-Stats JSON sidecar headers.
func writeStateBlob(w http.ResponseWriter, cfg server.SketchConfig, stats server.SketchStats, blob []byte) {
	cfgJSON, _ := json.Marshal(cfg)
	statsJSON, _ := json.Marshal(stats)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(blob)))
	h.Set("X-Uss-Config", string(cfgJSON))
	h.Set("X-Uss-Stats", string(statsJSON))
	_, _ = w.Write(blob)
}

// fetchDigest pulls one peer's digest.
func (a *Agent) fetchDigest(ctx context.Context, peer string) (nodeDigest, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cluster/digest", nil)
	if err != nil {
		return nodeDigest{}, err
	}
	resp, err := a.doPeer(peer, req)
	if err != nil {
		return nodeDigest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nodeDigest{}, fmt.Errorf("GET %s/v1/cluster/digest: status %d", peer, resp.StatusCode)
	}
	var dig nodeDigest
	if err := json.NewDecoder(resp.Body).Decode(&dig); err != nil {
		return nodeDigest{}, err
	}
	return dig, nil
}

// fetchCopies pulls the copy listing a peer holds for owner.
func (a *Agent) fetchCopies(ctx context.Context, peer, owner string) ([]copyDTO, error) {
	u := peer + "/v1/cluster/copies?owner=" + url.QueryEscape(owner)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.doPeer(peer, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	var out struct {
		Copies []copyDTO `json:"copies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Copies, nil
}

// AntiEntropyRound gossips with every peer once: pulls fresh copies of
// co-owner partials whose digests diverged from the held copy, creates
// locally-missing sketches found in peer digests (manifest
// convergence), and garbage-collects copies of deleted sketches. Copies
// never regress — a pull that would shorten a copy's history is
// skipped, so a restarted peer serving stale state cannot erase what
// its co-owners already saved.
func (a *Agent) AntiEntropyRound(ctx context.Context) AEStats {
	a.met.aeRounds.Add(1)
	parent, _ := obs.FromContext(ctx)
	sp := a.ob.Tracer().Start(parent, "cluster.antientropy")
	ctx = obs.ContextWith(ctx, sp.Context())
	var st AEStats
	for _, p := range a.cfg.Peers {
		if p == a.cfg.Self {
			continue
		}
		st.Peers++
		dig, err := a.fetchDigest(ctx, p)
		if err != nil {
			st.Errors = append(st.Errors, err.Error())
			continue
		}
		names := make(map[string]bool, len(dig.Sketches))
		for _, ds := range dig.Sketches {
			names[ds.Config.Name] = true
			if _, ok := a.srv.SketchConfigOf(ds.Config.Name); !ok {
				// Manifest convergence: every node hosts every sketch, so
				// a create that missed this node (it was down) lands here.
				if cerr := a.srv.CreateSketch(ds.Config); cerr != nil {
					st.Errors = append(st.Errors, fmt.Sprintf("create %q: %v", ds.Config.Name, cerr))
				} else {
					st.Created++
				}
			}
			owners := a.owners(ds.Config.Name)
			if !slices.Contains(owners, a.cfg.Self) || !slices.Contains(owners, p) {
				continue // copies flow only between co-owners
			}
			key := copyKey{name: ds.Config.Name, owner: p}
			a.copyMu.Lock()
			cur := a.copies[key]
			a.copyMu.Unlock()
			if cur != nil && cur.stats.Rows == ds.Stats.Rows &&
				cur.stats.Pushes == ds.Stats.Pushes && cur.total == ds.Total {
				continue // digests agree; nothing to pull
			}
			if cur != nil && (cur.stats.Rows > ds.Stats.Rows || cur.stats.Pushes > ds.Stats.Pushes) {
				continue // never regress a copy to a shorter history
			}
			cfg, stats, blob, perr := a.pullState(ctx, p, ds.Config.Name)
			if perr != nil {
				st.Errors = append(st.Errors, perr.Error())
				continue
			}
			a.copyMu.Lock()
			cur = a.copies[key]
			if cur == nil || (stats.Rows >= cur.stats.Rows && stats.Pushes >= cur.stats.Pushes) {
				a.copies[key] = &sketchCopy{cfg: cfg, stats: stats, total: ds.Total, blob: blob}
				st.Pulled++
				a.met.aePulls.Add(1)
			}
			a.copyMu.Unlock()
		}
		a.copyMu.Lock()
		for k := range a.copies {
			if k.owner == p && !names[k.name] {
				delete(a.copies, k) // the owner no longer hosts it: deleted
				st.Dropped++
			}
		}
		a.copyMu.Unlock()
	}
	a.gatherMu.Lock()
	for name := range a.gathers {
		if _, ok := a.srv.SketchConfigOf(name); !ok {
			delete(a.gathers, name) // deleted here, by another node's broadcast
		}
	}
	a.gatherMu.Unlock()
	if len(st.Errors) > 0 {
		sp.Finish(obs.StatusError)
		a.log.Warn("anti-entropy round finished with errors",
			"peers", st.Peers, "pulled", st.Pulled, "created", st.Created,
			"dropped", st.Dropped, "errors", len(st.Errors), "first_error", st.Errors[0])
	} else {
		sp.Finish(obs.StatusOK)
		if st.Pulled > 0 || st.Created > 0 || st.Dropped > 0 {
			a.log.Info("anti-entropy round converged state",
				"peers", st.Peers, "pulled", st.Pulled, "created", st.Created, "dropped", st.Dropped)
		}
	}
	return st
}

// antiEntropyLoop runs rounds on the configured interval until
// Shutdown.
func (a *Agent) antiEntropyLoop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-a.ctx.Done():
			return
		case <-t.C:
			a.AntiEntropyRound(a.ctx)
		}
	}
}

// BootRepair converges a (re)joining node before it serves traffic: it
// asks every reachable peer for the copies they hold of this node's own
// partials and restores each partial whose best copy is ahead of local
// state — a node that lost its disk gets its partitions back without
// operator action. Peer digests are also applied so locally-missing
// sketches exist (empty) before traffic lands. A durable server is
// checkpointed after the last restore so the adopted state becomes the
// recovery baseline. Unreachable peers are recorded, not fatal: a
// lone-started node simply repairs nothing.
func (a *Agent) BootRepair(ctx context.Context) RepairStats {
	var st RepairStats
	type candidate struct {
		peer string
		dto  copyDTO
	}
	best := make(map[string]candidate)
	for _, p := range a.cfg.Peers {
		if p == a.cfg.Self {
			continue
		}
		list, err := a.fetchCopies(ctx, p, a.cfg.Self)
		if err != nil {
			st.Errors = append(st.Errors, err.Error())
			continue
		}
		for _, c := range list {
			cur, ok := best[c.Name]
			if !ok || c.Stats.Rows > cur.dto.Stats.Rows ||
				(c.Stats.Rows == cur.dto.Stats.Rows && c.Stats.Pushes > cur.dto.Stats.Pushes) {
				best[c.Name] = candidate{peer: p, dto: c}
			}
		}
		dig, err := a.fetchDigest(ctx, p)
		if err != nil {
			st.Errors = append(st.Errors, err.Error())
			continue
		}
		for _, ds := range dig.Sketches {
			if _, ok := a.srv.SketchConfigOf(ds.Config.Name); !ok {
				if cerr := a.srv.CreateSketch(ds.Config); cerr != nil {
					st.Errors = append(st.Errors, fmt.Sprintf("create %q: %v", ds.Config.Name, cerr))
				} else {
					st.Created++
				}
			}
		}
	}
	local := make(map[string]server.SketchDigest)
	for _, d := range a.srv.Digests() {
		local[d.Name] = d
	}
	for name, cand := range best {
		if loc, ok := local[name]; ok &&
			loc.Rows >= cand.dto.Stats.Rows && loc.Pushes >= cand.dto.Stats.Pushes {
			continue // local state already covers the copy's history
		}
		cfg, stats, blob, err := a.pullCopy(ctx, cand.peer, name, a.cfg.Self)
		if err != nil {
			st.Errors = append(st.Errors, err.Error())
			continue
		}
		if err := a.srv.RestoreSketch(cfg, stats, blob); err != nil {
			st.Errors = append(st.Errors, fmt.Sprintf("restore %q: %v", name, err))
			continue
		}
		st.Restored++
	}
	if st.Restored > 0 || st.Created > 0 {
		if err := a.srv.Checkpoint(); err != nil {
			st.Errors = append(st.Errors, fmt.Sprintf("checkpoint: %v", err))
		}
		a.log.Info("boot repair adopted peer state",
			"restored", st.Restored, "created", st.Created, "errors", len(st.Errors))
	}
	return st
}
