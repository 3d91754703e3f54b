// Package cluster turns a fleet of ussd nodes into one fault-tolerant
// sketch service, leaning entirely on the paper's mergeability property
// instead of consensus. A consistent-hash ring (virtual nodes,
// rendezvous tiebreak) maps each sketch name to a replication-factor-
// sized owner set; every ingested row is routed to exactly one owner in
// that set by item hash, so the owners hold disjoint substreams whose
// bin lists merge back — via DecodeBins → MergeBins, the wire-v2 merge
// kernel — into exactly the single-node answer. Reads scatter to the
// owner set and gather partials, hedging slow or dead owners from
// co-owner copies and answering with an explicit degraded marker
// (never a 5xx) whenever a read quorum responds. Periodic snapshot
// anti-entropy gossips per-sketch (rows, pushes, total) digests between
// co-owners and pulls exact state blobs on divergence, so a node that
// died and lost its disk converges again without operator action.
//
// Every node runs the same Agent: proxy for public requests, data node
// for its partitions, copy-holder for its co-owners. Internal traffic
// rides /v1/cluster/* on the same listener. See DESIGN.md §13 for the
// ring layout, the hedged partial-read protocol, the anti-entropy
// digest format, and the cluster.* faultpoint spec.
package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashx"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
)

// Config parameterizes an Agent.
type Config struct {
	// Self is this node's base URL, exactly as it appears in Peers.
	Self string
	// Peers is every cluster member's base URL, including Self.
	Peers []string
	// ReplicationFactor is the owner-set size per sketch (default 2,
	// clamped to the peer count).
	ReplicationFactor int
	// ReadQuorum is the minimum number of owner partials (own or copy)
	// a scatter-gather read needs to answer 200 (default majority of
	// the replication factor).
	ReadQuorum int
	// VirtualNodes is the ring points per node (default 64).
	VirtualNodes int
	// HedgeDelay is how long a partial fetch waits on an owner before
	// racing a co-owner copy against it (default 75ms).
	HedgeDelay time.Duration
	// AntiEntropyInterval runs anti-entropy rounds on a timer; 0 means
	// manual only (POST /v1/cluster/antientropy).
	AntiEntropyInterval time.Duration
	// FanQueueDepth bounds each peer's ingest fan queue in tasks; a full
	// queue fails over to the next owner or sheds with 503 (default 128).
	FanQueueDepth int
	// FanAttempts is the per-owner delivery attempt budget (default 3).
	FanAttempts int
	// FanBackoffMin and FanBackoffMax bound the jittered exponential
	// delay between delivery attempts (defaults 25ms and 250ms).
	FanBackoffMin, FanBackoffMax time.Duration
	// DownFor is how long a peer stays marked down after a terminal
	// delivery failure before fan routing tries it again (default 2s).
	DownFor time.Duration
	// MaxBodyBytes caps proxied request bodies (default 32 MiB).
	MaxBodyBytes int64
	// BreakerThreshold is how many consecutive transport failures open a
	// peer's circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// Client issues intra-cluster requests (default: a pooled client
	// with a 10s timeout).
	Client *http.Client
}

func (c *Config) defaults() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: Self must be set")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.Self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("cluster: Self %q must appear in Peers %v", c.Self, c.Peers)
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor > len(c.Peers) {
		c.ReplicationFactor = len(c.Peers)
	}
	if c.ReadQuorum <= 0 {
		c.ReadQuorum = c.ReplicationFactor/2 + 1
	}
	if c.ReadQuorum > c.ReplicationFactor {
		return fmt.Errorf("cluster: read quorum %d exceeds replication factor %d", c.ReadQuorum, c.ReplicationFactor)
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 75 * time.Millisecond
	}
	if c.FanQueueDepth <= 0 {
		c.FanQueueDepth = 128
	}
	if c.FanAttempts <= 0 {
		c.FanAttempts = 3
	}
	if c.FanBackoffMin <= 0 {
		c.FanBackoffMin = 25 * time.Millisecond
	}
	if c.FanBackoffMax <= 0 {
		c.FanBackoffMax = 250 * time.Millisecond
	}
	if c.DownFor <= 0 {
		c.DownFor = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		}
	}
	return nil
}

// copyKey identifies one held copy: a sketch name and the owner whose
// partial the copy mirrors.
type copyKey struct {
	name  string
	owner string
}

// sketchCopy is an anti-entropy copy of a co-owner's partial: its exact
// state blob plus the digest the blob was cut at.
type sketchCopy struct {
	cfg   server.SketchConfig
	stats server.SketchStats
	total float64
	blob  []byte
}

// peerHealth tracks one peer's fan-routing liveness: downUntil is the
// unix-nano deadline of its current down mark (0 = up).
type peerHealth struct {
	downUntil atomic.Int64
}

// metrics is the agent's counter set, reported by /v1/cluster/status.
type metrics struct {
	fanned       atomic.Int64 // fan tasks delivered
	fanRetries   atomic.Int64 // delivery attempts past the first
	fanFallbacks atomic.Int64 // tasks re-routed to a fallback owner
	fanShed      atomic.Int64 // tasks failed on every owner
	hedges       atomic.Int64 // hedged copy reads fired
	degraded     atomic.Int64 // reads answered degraded
	aeRounds     atomic.Int64 // anti-entropy rounds run
	aePulls      atomic.Int64 // state blobs pulled by anti-entropy
	breakerFast  atomic.Int64 // requests refused instantly by an open breaker
	notModified  atomic.Int64 // owner partial requests answered 304

	// gatherReads counts gathered point reads by cache result,
	// indexed like gatherResults.
	gatherReads [len(gatherResults)]atomic.Int64
}

// Agent is one cluster node: the proxy endpoints it serves, the fan
// queues and workers that push ingest to owners, the copies it holds
// for its co-owners, and the anti-entropy loop. Create with New, wire
// Handler into the node's listener, then Start; Shutdown drains the fan
// queues.
type Agent struct {
	cfg   Config
	srv   *server.Server
	inner http.Handler
	ring  *Ring
	mux   *http.ServeMux
	ob    *obs.Observer
	log   *slog.Logger

	queues   map[string]*peerQueue
	health   map[string]*peerHealth
	breakers map[string]*replica.Breaker

	copyMu sync.Mutex
	copies map[copyKey]*sketchCopy

	// gathers holds each sketch name's last clean gather (gatherRead):
	// one entry per name, dropped with the name on delete and by
	// anti-entropy garbage collection.
	gatherMu sync.Mutex
	gathers  map[string]*gatherCache

	met metrics

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started atomic.Bool
}

// New builds an Agent for srv with the given cluster config. The agent
// serves nothing until its Handler is mounted and Start is called.
func New(cfg Config, srv *server.Server) (*Agent, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		cfg:      cfg,
		srv:      srv,
		inner:    srv.Handler(),
		ob:       srv.Obs(),
		log:      srv.Log().With("component", "cluster", "self", cfg.Self),
		ring:     NewRing(cfg.Peers, cfg.VirtualNodes),
		mux:      http.NewServeMux(),
		queues:   make(map[string]*peerQueue, len(cfg.Peers)),
		health:   make(map[string]*peerHealth, len(cfg.Peers)),
		breakers: make(map[string]*replica.Breaker, len(cfg.Peers)),
		copies:   make(map[copyKey]*sketchCopy),
		gathers:  make(map[string]*gatherCache),
		ctx:      ctx,
		cancel:   cancel,
	}
	for _, p := range cfg.Peers {
		a.queues[p] = &peerQueue{url: p, ch: make(chan *fanTask, cfg.FanQueueDepth)}
		a.health[p] = &peerHealth{}
		a.breakers[p] = replica.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	a.routes()
	srv.RegisterMetrics(a.emitMetrics)
	return a, nil
}

// doPeer issues one intra-cluster request through peer's circuit
// breaker: an open breaker refuses instantly with ErrBreakerOpen before
// any dial, a transport failure feeds the breaker, and any HTTP
// response — whatever its status — closes it, because an answering peer
// is alive. A failure caused by our own context (hedge losers are
// cancelled when the winner returns) is not held against the peer.
func (a *Agent) doPeer(peer string, req *http.Request) (*http.Response, error) {
	br := a.breakers[peer]
	if br != nil && !br.Allow() {
		a.met.breakerFast.Add(1)
		return nil, fmt.Errorf("peer %s: %w", peer, replica.ErrBreakerOpen)
	}
	obs.InjectTrace(req.Context(), req.Header)
	resp, err := a.cfg.Client.Do(req)
	if br != nil {
		switch {
		case err == nil:
			br.Success()
		case req.Context().Err() == nil:
			br.Failure()
		}
	}
	return resp, err
}

// breakerTrips sums closed→open transitions across every peer link.
func (a *Agent) breakerTrips() int64 {
	var n int64
	for _, br := range a.breakers {
		n += br.Trips()
	}
	return n
}

// emitMetrics appends the agent's series to the wrapped server's
// /metrics scrape, registered at construction via RegisterMetrics.
func (a *Agent) emitMetrics(w io.Writer) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	fam := func(name, typ, help string) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s %s\n", name, typ)
	}
	fam("ussd_cluster_fanned_total", "counter", "Ingest fan tasks delivered to owners.")
	p("ussd_cluster_fanned_total %d\n", a.met.fanned.Load())
	fam("ussd_cluster_fan_retries_total", "counter", "Fan delivery attempts past the first.")
	p("ussd_cluster_fan_retries_total %d\n", a.met.fanRetries.Load())
	fam("ussd_cluster_fan_fallbacks_total", "counter", "Fan tasks re-routed to a fallback owner.")
	p("ussd_cluster_fan_fallbacks_total %d\n", a.met.fanFallbacks.Load())
	fam("ussd_cluster_fan_shed_total", "counter", "Fan tasks that failed on every owner.")
	p("ussd_cluster_fan_shed_total %d\n", a.met.fanShed.Load())
	fam("ussd_cluster_hedges_total", "counter", "Hedged copy reads fired by slow or dead owners.")
	p("ussd_cluster_hedges_total %d\n", a.met.hedges.Load())
	fam("ussd_cluster_degraded_reads_total", "counter", "Scatter-gather reads answered with the degraded marker.")
	p("ussd_cluster_degraded_reads_total %d\n", a.met.degraded.Load())
	fam("ussd_cluster_ae_rounds_total", "counter", "Anti-entropy rounds run.")
	p("ussd_cluster_ae_rounds_total %d\n", a.met.aeRounds.Load())
	fam("ussd_cluster_ae_pulls_total", "counter", "Exact-state blobs pulled by anti-entropy on digest divergence.")
	p("ussd_cluster_ae_pulls_total %d\n", a.met.aePulls.Load())
	fam("ussd_cluster_gather_reads_total", "counter",
		"Gathered point reads by cache result: hit (cached handle, every owner partial unchanged), partial (some unchanged partials reused), miss (none reused), uncached (degraded gather; cache not used).")
	for i, res := range gatherResults {
		p("ussd_cluster_gather_reads_total{result=%q} %d\n", res, a.met.gatherReads[i].Load())
	}
	fam("ussd_cluster_partials_not_modified_total", "counter", "Owner partial requests answered 304 because the gatherer's version token was current.")
	p("ussd_cluster_partials_not_modified_total %d\n", a.met.notModified.Load())
	fam("ussd_cluster_breaker_fastfails_total", "counter", "Peer requests refused instantly by an open circuit breaker.")
	p("ussd_cluster_breaker_fastfails_total %d\n", a.met.breakerFast.Load())
	fam("ussd_cluster_breaker_trips_total", "counter", "Closed-to-open circuit breaker transitions, per peer link.")
	for _, peer := range a.cfg.Peers {
		p("ussd_cluster_breaker_trips_total{peer=%q} %d\n", peer, a.breakers[peer].Trips())
	}
	fam("ussd_cluster_breaker_open", "gauge", "Whether the peer's circuit breaker is currently open or half-open.")
	for _, peer := range a.cfg.Peers {
		open := 0
		if a.breakers[peer].State() != "closed" {
			open = 1
		}
		p("ussd_cluster_breaker_open{peer=%q} %d\n", peer, open)
	}
}

// Handler returns the node's routed handler: proxy semantics for the
// public sketch API, /v1/cluster/* internals, and passthrough to the
// wrapped server for everything else (health, metrics, replication).
// The obs middleware wraps the whole table, so proxied requests get
// their edge span and latency sample here; the wrapped server's own
// middleware recognizes the same observer and records only a child
// span, never a second histogram sample.
func (a *Agent) Handler() http.Handler { return a.ob.Middleware(a.mux) }

// Start launches the fan workers and, when configured, the anti-entropy
// loop. Call after BootRepair and before serving traffic.
func (a *Agent) Start() {
	if !a.started.CompareAndSwap(false, true) {
		return
	}
	for _, pq := range a.queues {
		a.wg.Add(1)
		go a.fanWorker(pq)
	}
	if a.cfg.AntiEntropyInterval > 0 {
		a.wg.Add(1)
		go a.antiEntropyLoop()
	}
}

// Shutdown stops the anti-entropy loop, closes the fan queues and waits
// for in-flight deliveries; queued tasks are still delivered (or failed
// over) before workers exit. ctx is unused today but reserved for a
// drain bound.
func (a *Agent) Shutdown(_ context.Context) error {
	if !a.started.CompareAndSwap(true, false) {
		return nil
	}
	a.cancel()
	for _, pq := range a.queues {
		pq.close()
	}
	a.wg.Wait()
	// Drop pooled keep-alive connections so a stopped agent leaves no
	// idle readers behind (the cluster tests' goroutine leak check
	// depends on this).
	a.cfg.Client.CloseIdleConnections()
	return nil
}

// Peers returns the cluster membership, including self.
func (a *Agent) Peers() []string {
	return append([]string(nil), a.cfg.Peers...)
}

// owners returns name's owner set at the configured replication factor.
func (a *Agent) owners(name string) []string {
	return a.ring.Owners(name, a.cfg.ReplicationFactor)
}

// partitionIdx routes one item to its slot in an owner set: the item
// hash modulo the set size. Every proxy computes the same slot, so an
// item's whole substream lands on one owner and the owner partials stay
// disjoint — the invariant that makes gathered merges exact.
func partitionIdx(item string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hashx.Sum64a(item) % uint64(n))
}

// alive reports whether fan routing currently considers url up.
func (a *Agent) alive(url string) bool {
	h := a.health[url]
	return h == nil || h.downUntil.Load() <= time.Now().UnixNano()
}

// markDown marks url down for the configured hold-off.
func (a *Agent) markDown(url string) {
	if h := a.health[url]; h != nil {
		h.downUntil.Store(time.Now().Add(a.cfg.DownFor).UnixNano())
	}
}

// markUp clears url's down mark.
func (a *Agent) markUp(url string) {
	if h := a.health[url]; h != nil {
		h.downUntil.Store(0)
	}
}

// routes wires the agent's endpoint table: cluster internals first,
// proxy semantics for the public sketch API, passthrough for the rest.
func (a *Agent) routes() {
	// Internal: exact-state exchange, digests, anti-entropy, status.
	a.mux.HandleFunc("GET /v1/cluster/digest", a.handleDigest)
	a.mux.HandleFunc("GET /v1/cluster/state/{name}", a.handleState)
	a.mux.HandleFunc("GET /v1/cluster/copy/{name}", a.handleCopy)
	a.mux.HandleFunc("GET /v1/cluster/copies", a.handleCopies)
	a.mux.HandleFunc("POST /v1/cluster/antientropy", a.handleAntiEntropy)
	a.mux.HandleFunc("GET /v1/cluster/status", a.handleStatus)
	// Internal: local (non-fanning) sketch operations, delegated to the
	// wrapped server with the /cluster prefix stripped. This is how fan
	// and scatter traffic reaches a node without re-entering the proxy.
	a.mux.HandleFunc("/v1/cluster/sketches", a.handleLocal)
	a.mux.HandleFunc("/v1/cluster/sketches/", a.handleLocal)

	// Public: proxy semantics.
	a.mux.HandleFunc("POST /v1/sketches", a.handleCreate)
	a.mux.HandleFunc("GET /v1/sketches", a.handleList)
	a.mux.HandleFunc("GET /v1/sketches/{name}", a.handleInfo)
	a.mux.HandleFunc("DELETE /v1/sketches/{name}", a.handleDelete)
	a.mux.HandleFunc("POST /v1/sketches/{name}/ingest", a.handleIngest)
	a.mux.HandleFunc("POST /v1/sketches/{name}/snapshot", a.handlePushFan)
	a.mux.HandleFunc("GET /v1/sketches/{name}/snapshot", a.handlePullGather)
	for pattern, h := range a.srv.PointReads(a.gatherRead) {
		a.mux.HandleFunc(pattern, h)
	}
	a.mux.HandleFunc("GET /v1/sketches/{name}/range/topk", a.handleRange)
	a.mux.HandleFunc("GET /v1/sketches/{name}/range/sum", a.handleRange)
	a.mux.HandleFunc("GET /v1/sketches/{name}/range/total", a.handleRange)

	// Everything else — health, readiness, metrics, replication — is the
	// wrapped server's business.
	a.mux.Handle("/", a.inner)
}

// handleLocal strips the /cluster path segment and hands the request to
// the wrapped server: /v1/cluster/sketches/x/ingest applies locally
// exactly as /v1/sketches/x/ingest would on a single node.
func (a *Agent) handleLocal(w http.ResponseWriter, r *http.Request) {
	r2 := r.Clone(r.Context())
	r2.URL.Path = strings.Replace(r.URL.Path, "/v1/cluster/sketches", "/v1/sketches", 1)
	a.inner.ServeHTTP(w, r2)
}

// writeError reports a failure as {"error": ...}, matching the wrapped
// server's error shape.
func writeError(w http.ResponseWriter, code int, err error) {
	server.WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// writeRaw relays a peer's JSON answer as-is.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// statusDTO is the /v1/cluster/status response.
type statusDTO struct {
	// Self is this node's peer URL.
	Self string `json:"self"`
	// Peers lists every member with its current fan-routing health.
	Peers map[string]string `json:"peers"`
	// ReplicationFactor and ReadQuorum echo the effective config.
	ReplicationFactor int `json:"replication_factor"`
	ReadQuorum        int `json:"read_quorum"`
	// Owners maps the ?name= query to its owner set, when asked.
	Owners []string `json:"owners,omitempty"`
	// Copies lists the co-owner partials this node holds.
	Copies []copyDTO `json:"copies"`
	// Breakers maps each peer to its circuit-breaker state: "closed",
	// "open" or "half-open".
	Breakers map[string]string `json:"breakers"`
	// Counters is the agent metric snapshot.
	Counters map[string]int64 `json:"counters"`
}

// copyDTO describes one held copy in status and copies listings.
type copyDTO struct {
	// Name and Owner key the copy.
	Name  string `json:"name"`
	Owner string `json:"owner"`
	// Config and Stats describe the copied partial.
	Config server.SketchConfig `json:"config"`
	Stats  server.SketchStats  `json:"stats"`
	// Total is the partial's mass at the copy's cut.
	Total float64 `json:"total"`
}

func (a *Agent) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := statusDTO{
		Self:              a.cfg.Self,
		Peers:             make(map[string]string, len(a.cfg.Peers)),
		Breakers:          make(map[string]string, len(a.cfg.Peers)),
		ReplicationFactor: a.cfg.ReplicationFactor,
		ReadQuorum:        a.cfg.ReadQuorum,
		Counters: map[string]int64{
			"fanned":                a.met.fanned.Load(),
			"fan_retries":           a.met.fanRetries.Load(),
			"fan_fallbacks":         a.met.fanFallbacks.Load(),
			"fan_shed":              a.met.fanShed.Load(),
			"hedges":                a.met.hedges.Load(),
			"degraded":              a.met.degraded.Load(),
			"ae_rounds":             a.met.aeRounds.Load(),
			"ae_pulls":              a.met.aePulls.Load(),
			"breaker_trips":         a.breakerTrips(),
			"breaker_fastfails":     a.met.breakerFast.Load(),
			"partials_not_modified": a.met.notModified.Load(),
		},
	}
	for i, res := range gatherResults {
		st.Counters["gather_reads_"+res] = a.met.gatherReads[i].Load()
	}
	for _, p := range a.cfg.Peers {
		if a.alive(p) {
			st.Peers[p] = "up"
		} else {
			st.Peers[p] = "down"
		}
		st.Breakers[p] = a.breakers[p].State()
	}
	if name := r.URL.Query().Get("name"); name != "" {
		st.Owners = a.owners(name)
	}
	a.copyMu.Lock()
	st.Copies = make([]copyDTO, 0, len(a.copies))
	for k, c := range a.copies {
		st.Copies = append(st.Copies, copyDTO{
			Name: k.name, Owner: k.owner, Config: c.cfg, Stats: c.stats, Total: c.total,
		})
	}
	a.copyMu.Unlock()
	server.WriteJSON(w, http.StatusOK, st)
}
