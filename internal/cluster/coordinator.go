package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// Options configures a Coordinator. Backends is required; every other
// field has a serviceable default.
type Options struct {
	// Backends is the static member list: backend base URLs, e.g.
	// ["http://127.0.0.1:8081", "http://127.0.0.1:8082"]. Placement is
	// deterministic in this list's CONTENTS (not its order): every
	// coordinator over the same set computes the same owners.
	Backends []string
	// HedgeFloor is the minimum hedge delay: a read is duplicated to
	// the same backend only after max(HedgeFloor, tracked-p99) with no
	// response. Default 25ms. Negative disables hedging.
	HedgeFloor time.Duration
	// BreakerCooldown is how long an opened circuit rejects requests
	// before admitting a half-open probe. Default 2s.
	BreakerCooldown time.Duration
	// HealthInterval paces the background health loop (probe every
	// backend's /healthz; fail shards over from dead owners). Default
	// 500ms; negative disables the loop — failover then happens only
	// via CheckBackends (the harness and tests drive it directly).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe. Default 1s.
	HealthTimeout time.Duration
	// MaxBodyBytes caps proxied request bodies. Default 16 MiB.
	MaxBodyBytes int64
	// Client is the backend-facing HTTP client. Default: 60s timeout.
	Client *http.Client
	// Log receives structured coordinator events (failovers, sync
	// failures). Default: discard.
	Log *slog.Logger
}

func (o *Options) fill() {
	if o.HedgeFloor == 0 {
		o.HedgeFloor = 25 * time.Millisecond
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = defaultBreakerCooldown
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// shard is one instance's placement: its current owner, its warm
// follower (empty with a single backend), and the last mutation
// generation the coordinator acked.
type shard struct {
	id       string
	owner    string
	follower string
	gen      int64
}

// coordMetrics is the coordinator's registry and the counters its proxy,
// breaker, failover and follower-sync paths update. GET /varz and
// GET /metrics render it; a coordinator runs no engine, so neither
// renders metrics.Process.
type coordMetrics struct {
	reg                                                  *metrics.Registry
	proxied, hedges, hedgeWins, shedPassed, breakerDrops *metrics.Counter
	failovers, syncs, syncFailures                       *metrics.Counter
}

func newCoordMetrics(c *Coordinator) coordMetrics {
	r := metrics.New()
	r.NewGaugeFunc("ocqa_backends", "Backends in the coordinator's member list.",
		func() float64 { return float64(len(c.members)) })
	r.NewGaugeFunc("ocqa_shards", "Instances the coordinator has placed.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.shards))
	})
	return coordMetrics{
		reg:          r,
		proxied:      r.NewCounter("ocqa_proxied_requests_total", "Client requests the coordinator handled by proxying to backends."),
		hedges:       r.NewCounter("ocqa_hedged_requests_total", "Duplicate reads fired after the hedge delay."),
		hedgeWins:    r.NewCounter("ocqa_hedge_wins_total", "Hedged duplicates that answered before their primary."),
		shedPassed:   r.NewCounter("ocqa_shed_passthroughs_total", "Backend 5xx responses, 503 load sheds among them, passed through to the client."),
		breakerDrops: r.NewCounter("ocqa_breaker_rejections_total", "Requests rejected by an open circuit breaker without reaching the backend."),
		failovers:    r.NewCounter("ocqa_failovers_total", "Shards failed over from a dead owner to its follower."),
		syncs:        r.NewCounter("ocqa_follower_syncs_total", "Follower replica syncs requested."),
		syncFailures: r.NewCounter("ocqa_follower_sync_failures_total", "Follower replica syncs that failed."),
	}
}

// Coordinator is the cluster front door: an http.Handler serving the
// same /v1/instances/* surface as one backend, over many.
type Coordinator struct {
	opts    Options
	members []*member
	byBase  map[string]*member
	mux     *http.ServeMux
	met     coordMetrics

	lifecycle context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup

	mu     sync.Mutex
	shards map[string]*shard
	seq    int64
	// healthFails counts consecutive failed health probes per backend;
	// failedOver marks backends whose shards have already been moved,
	// so a long outage triggers exactly one failover.
	healthFails map[string]int
	failedOver  map[string]bool
}

// New builds a Coordinator over the backend list and starts its health
// loop (unless disabled). Callers must Close it.
func New(opts Options) (*Coordinator, error) {
	opts.fill()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	seen := map[string]bool{}
	lifecycle, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:        opts,
		byBase:      map[string]*member{},
		mux:         http.NewServeMux(),
		lifecycle:   lifecycle,
		stop:        stop,
		shards:      map[string]*shard{},
		healthFails: map[string]int{},
		failedOver:  map[string]bool{},
	}
	for _, b := range opts.Backends {
		if seen[b] {
			stop()
			return nil, fmt.Errorf("cluster: backend %q listed twice", b)
		}
		seen[b] = true
		m := &member{base: b}
		c.members = append(c.members, m)
		c.byBase[b] = m
	}
	c.met = newCoordMetrics(c)
	c.routes()
	if opts.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// Close stops the health loop. It does not touch the backends.
func (c *Coordinator) Close() {
	c.stop()
	c.wg.Wait()
}

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /v1/instances", c.handleRegister)
	c.mux.HandleFunc("GET /v1/instances", c.handleList)
	c.mux.HandleFunc("GET /v1/instances/{id}", c.proxyRead)
	c.mux.HandleFunc("DELETE /v1/instances/{id}", c.handleDeregister)
	c.mux.HandleFunc("POST /v1/instances/{id}/facts", c.proxyMutation)
	c.mux.HandleFunc("DELETE /v1/instances/{id}/facts/{index}", c.proxyMutation)
	c.mux.HandleFunc("POST /v1/instances/{id}/query", c.proxyRead)
	c.mux.HandleFunc("GET /v1/instances/{id}/watch", c.proxyWatch)
	c.mux.HandleFunc("POST /v1/instances/{id}/batch", c.proxyRead)
	c.mux.HandleFunc("POST /v1/instances/{id}/repairs/count", c.proxyRead)
	c.mux.HandleFunc("POST /v1/instances/{id}/marginals", c.proxyRead)
	c.mux.HandleFunc("POST /v1/instances/{id}/semantics", c.proxyRead)
	c.mux.HandleFunc("GET /v1/cluster/shards", c.handleShards)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /varz", c.handleVarz)
	c.mux.HandleFunc("GET /metrics", metrics.Handler(c.met.reg))
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// --- placement --------------------------------------------------------------

// bases returns the full member list's base URLs.
func (c *Coordinator) bases() []string {
	out := make([]string, len(c.members))
	for i, m := range c.members {
		out[i] = m.base
	}
	return out
}

// placementFor computes an id's rendezvous placement over the full
// member list: owner and (with ≥2 backends) the follower.
func (c *Coordinator) placementFor(id string) (owner, follower string) {
	rank := Rank(c.bases(), id)
	owner = rank[0]
	if len(rank) > 1 {
		follower = rank[1]
	}
	return owner, follower
}

// livePlacementFor is placementFor restricted to members whose breaker
// is currently closed: a registration must not be refused because the
// id's rank-0 backend is down while live backends remain. The skipped
// prefix is exactly the failover order, so a coordinator restarted
// after the same outage computes the same placement; once placed, the
// shard table — not the hash — is authoritative for routing. With
// every breaker open this falls back to the full ranking and lets
// admit() answer the 503.
func (c *Coordinator) livePlacementFor(id string) (owner, follower string) {
	now := time.Now()
	var live []string
	for _, b := range Rank(c.bases(), id) {
		if m := c.byBase[b]; m != nil && !m.open(now) {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		return c.placementFor(id)
	}
	owner = live[0]
	if len(live) > 1 {
		follower = live[1]
	}
	return owner, follower
}

// shardFor returns the id's shard record, creating one at the hash
// placement when the coordinator has not seen the id before (a backend
// may have restored it from its durable store).
func (c *Coordinator) shardFor(id string) *shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh, ok := c.shards[id]; ok {
		return sh
	}
	owner, follower := c.placementFor(id)
	sh := &shard{id: id, owner: owner, follower: follower}
	c.shards[id] = sh
	return sh
}

// snapshotShard reads a shard's fields consistently.
func (c *Coordinator) snapshotShard(sh *shard) (owner, follower string, gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sh.owner, sh.follower, sh.gen
}

// mintID allocates a cluster-unique instance id. The "c" prefix keeps
// coordinator-minted ids out of the backends' own "i<n>" sequence.
func (c *Coordinator) mintID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return fmt.Sprintf("c%d", c.seq)
}

// --- proxy plumbing ---------------------------------------------------------

// errorJSON writes a coordinator-origin error in the backends' error
// shape, so clients parse both identically.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody drains a proxied request's body under the configured cap.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes))
	if err != nil {
		errorJSON(w, http.StatusRequestEntityTooLarge, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// proxyResult is one backend exchange, fully buffered: hedging needs
// the loser cancellable, so the response must not stream.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// doOnce performs one buffered exchange against a member and feeds its
// breaker and latency window.
func (c *Coordinator) doOnce(ctx context.Context, m *member, method, path string, body []byte, hdr http.Header) (*proxyResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"Content-Type", "X-Request-Id"} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	start := time.Now()
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			m.recordFailure(time.Now(), c.opts.BreakerCooldown)
		}
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() == nil {
			m.recordFailure(time.Now(), c.opts.BreakerCooldown)
		}
		return nil, err
	}
	// A 503 is the backend shedding load: pass it through, but let it
	// count toward the breaker so a saturated backend sheds at the
	// coordinator after a few in a row. 5xx transport-ish failures
	// count too; 4xx are the client's problem and close the breaker
	// like a success (the backend answered).
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode >= 500 {
		c.met.shedPassed.Add(1)
		m.recordFailure(time.Now(), c.opts.BreakerCooldown)
	} else {
		m.recordSuccess(time.Since(start))
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header.Clone(), body: rb}, nil
}

// admit checks a member's breaker, counting a rejection.
func (c *Coordinator) admit(m *member) bool {
	if m.available(time.Now()) {
		return true
	}
	c.met.breakerDrops.Add(1)
	return false
}

// hedgedDo performs a read exchange with one hedge: if the primary has
// not answered within max(HedgeFloor, member p99), an identical request
// is fired at the same backend and the first response wins, the loser's
// context cancelled. Queries are idempotent (and generation-keyed
// cached), so the duplicate is safe; the common win is a duplicate that
// hits the result cache the primary is still warming.
func (c *Coordinator) hedgedDo(ctx context.Context, m *member, method, path string, body []byte, hdr http.Header) (*proxyResult, error) {
	if c.opts.HedgeFloor < 0 {
		return c.doOnce(ctx, m, method, path, body, hdr)
	}
	delay := m.latencyQuantile(hedgeQuantile)
	if delay < c.opts.HedgeFloor {
		delay = c.opts.HedgeFloor
	}
	type outcome struct {
		res    *proxyResult
		err    error
		hedged bool
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	launch := func(hedged bool) {
		res, err := c.doOnce(ctx, m, method, path, body, hdr)
		ch <- outcome{res: res, err: err, hedged: hedged}
	}
	go launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	inflight := 1
	for {
		select {
		case <-timer.C:
			if inflight == 1 {
				c.met.hedges.Add(1)
				inflight++
				go launch(true)
			}
		case out := <-ch:
			inflight--
			if out.err != nil && inflight > 0 {
				// Let the surviving attempt answer.
				continue
			}
			if out.err == nil && out.hedged {
				c.met.hedgeWins.Add(1)
			}
			// First response wins; cancel the loser (deferred).
			return out.res, out.err
		}
	}
}

// writeResult copies a buffered backend response to the client.
func writeResult(w http.ResponseWriter, res *proxyResult) {
	for _, k := range []string{"Content-Type", "X-Request-Id", "X-Replicated-Gen"} {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// --- handlers ---------------------------------------------------------------

// registerMintRetries bounds how many fresh ids handleRegister mints
// when its own candidates collide with instances left on the backends
// by a previous coordinator incarnation. The sequence is monotonic, so
// each retry walks past one stale id; 64 covers any plausible restart
// gap without risking an unbounded loop against a misbehaving backend.
const registerMintRetries = 64

// handleRegister mints (or honors) the instance id, places it by
// rendezvous hash, registers it on the owner, and seeds the follower's
// replica before answering.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	c.met.proxied.Add(1)
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	var req server.RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		errorJSON(w, http.StatusBadRequest, "request body: %v", err)
		return
	}
	minted := req.ID == ""
	var (
		owner, follower string
		res             *proxyResult
	)
	// A restarted coordinator re-mints ids from c1 while the backends
	// may still hold instances registered by its previous life, so a
	// 409 on a coordinator-minted id means "already taken" — mint the
	// next id and re-place rather than surfacing the collision. Caller
	// -supplied ids keep their 409 verbatim.
	for attempt := 0; ; attempt++ {
		if minted {
			req.ID = c.mintID()
		}
		owner, follower = c.livePlacementFor(req.ID)
		m := c.byBase[owner]
		if !c.admit(m) {
			errorJSON(w, http.StatusServiceUnavailable, "owning backend %s is unavailable", owner)
			return
		}
		fwd, err := json.Marshal(req)
		if err != nil {
			errorJSON(w, http.StatusInternalServerError, "re-encoding request: %v", err)
			return
		}
		res, err = c.doOnce(r.Context(), m, http.MethodPost, "/v1/instances", fwd, r.Header)
		if err != nil {
			errorJSON(w, http.StatusBadGateway, "backend %s: %v", owner, err)
			return
		}
		if minted && res.status == http.StatusConflict && attempt < registerMintRetries {
			continue
		}
		break
	}
	if res.status == http.StatusCreated {
		sh := &shard{id: req.ID, owner: owner, follower: follower, gen: 1}
		c.mu.Lock()
		c.shards[req.ID] = sh
		c.mu.Unlock()
		if follower != "" {
			if err := c.syncFollower(r.Context(), req.ID, owner, follower, 1); err != nil {
				c.opts.Log.Warn("seeding follower failed", "instance", req.ID, "follower", follower, "err", err)
			}
		}
	}
	writeResult(w, res)
}

// handleList merges every live backend's instance listing.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.met.proxied.Add(1)
	var (
		mu     sync.Mutex
		merged []server.InstanceInfo
		wg     sync.WaitGroup
	)
	for _, m := range c.members {
		if !c.admit(m) {
			continue
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			res, err := c.doOnce(r.Context(), m, http.MethodGet, "/v1/instances", nil, r.Header)
			if err != nil || res.status != http.StatusOK {
				return
			}
			var part []server.InstanceInfo
			if json.Unmarshal(res.body, &part) == nil {
				mu.Lock()
				merged = append(merged, part...)
				mu.Unlock()
			}
		}(m)
	}
	wg.Wait()
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

// backendPath rebuilds the backend-side path for a proxied request
// (the coordinator serves the identical surface, so it is the inbound
// path verbatim, query string included).
func backendPath(r *http.Request) string {
	p := r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		p += "?" + r.URL.RawQuery
	}
	return p
}

// exchange is one buffered request to a member: doOnce, or hedgedDo
// for idempotent reads.
type exchange func(ctx context.Context, m *member, method, path string, body []byte, hdr http.Header) (*proxyResult, error)

// proxy is the one route of every per-instance request: it counts the
// request, reads its body under the cap, looks the instance's shard up
// (owner and follower from one snapshot), checks the owner's breaker
// and forwards the request there with do. It answers 413, 503 or 502
// itself, returning a nil result.
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, do exchange) (sh *shard, owner, follower string, res *proxyResult) {
	c.met.proxied.Add(1)
	body, ok := c.readBody(w, r)
	if !ok {
		return nil, "", "", nil
	}
	sh = c.shardFor(r.PathValue("id"))
	owner, follower, _ = c.snapshotShard(sh)
	m := c.byBase[owner]
	if !c.admit(m) {
		errorJSON(w, http.StatusServiceUnavailable, "owning backend %s is unavailable", owner)
		return nil, "", "", nil
	}
	res, err := do(r.Context(), m, r.Method, backendPath(r), body, r.Header)
	if err != nil {
		errorJSON(w, http.StatusBadGateway, "backend %s: %v", owner, err)
		return nil, "", "", nil
	}
	return sh, owner, follower, res
}

// proxyRead proxies an idempotent read to the owner with hedging. A
// batch is one such read, sent whole: the owner runs its elements over
// its own worker pool and answers each with its index and status.
func (c *Coordinator) proxyRead(w http.ResponseWriter, r *http.Request) {
	if _, _, _, res := c.proxy(w, r, c.hedgedDo); res != nil {
		writeResult(w, res)
	}
}

// proxyWatch proxies a long-poll without hedging: a parked watch is
// not a straggler, and duplicating it would double the backend's
// waiter population for no latency win.
func (c *Coordinator) proxyWatch(w http.ResponseWriter, r *http.Request) {
	if _, _, _, res := c.proxy(w, r, c.doOnce); res != nil {
		writeResult(w, res)
	}
}

// proxyMutation proxies a write to the owner and, before acking,
// brings the follower's replica up to the mutation's generation: an
// acked write survives the owner's death. The replicated generation is
// reported on the X-Replicated-Gen response header.
func (c *Coordinator) proxyMutation(w http.ResponseWriter, r *http.Request) {
	sh, owner, follower, res := c.proxy(w, r, c.doOnce)
	if res == nil {
		return
	}
	if res.status == http.StatusOK {
		var mut server.FactMutationResponse
		if json.Unmarshal(res.body, &mut) == nil && mut.Gen > 0 {
			c.mu.Lock()
			if mut.Gen > sh.gen {
				sh.gen = mut.Gen
			}
			c.mu.Unlock()
			if follower != "" {
				if err := c.syncFollower(r.Context(), sh.id, owner, follower, mut.Gen); err != nil {
					// The owner has journalled the write; losing the
					// follower costs failover warmth, not durability of
					// the ack itself. Surface it instead of failing the
					// mutation.
					c.opts.Log.Warn("follower sync failed", "instance", sh.id, "follower", follower, "err", err)
				} else {
					res.header.Set("X-Replicated-Gen", strconv.FormatInt(mut.Gen, 10))
				}
			}
		}
	}
	writeResult(w, res)
}

// handleDeregister proxies an instance delete and drops its shard.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	sh, _, _, res := c.proxy(w, r, c.doOnce)
	if res == nil {
		return
	}
	if res.status == http.StatusNoContent || res.status == http.StatusOK {
		c.mu.Lock()
		delete(c.shards, sh.id)
		c.mu.Unlock()
	}
	writeResult(w, res)
}

// --- replication + failover -------------------------------------------------

// syncFollower asks the follower to pull the instance from the owner
// until its replica generation reaches at least wantGen.
func (c *Coordinator) syncFollower(ctx context.Context, id, owner, follower string, wantGen int64) error {
	c.met.syncs.Add(1)
	fm := c.byBase[follower]
	body, _ := json.Marshal(server.ReplSyncRequest{ID: id, Source: owner})
	for attempt := 0; attempt < 2; attempt++ {
		res, err := c.doOnce(ctx, fm, http.MethodPost, "/v1/replication/sync", body, http.Header{"Content-Type": []string{"application/json"}})
		if err != nil {
			c.met.syncFailures.Add(1)
			return err
		}
		if res.status != http.StatusOK {
			c.met.syncFailures.Add(1)
			return fmt.Errorf("follower %s: sync status %d: %s", follower, res.status, res.body)
		}
		var sy server.ReplSyncResponse
		if err := json.Unmarshal(res.body, &sy); err != nil {
			c.met.syncFailures.Add(1)
			return fmt.Errorf("follower %s: %v", follower, err)
		}
		if sy.Gen >= wantGen {
			return nil
		}
		// The feed snapshot can trail the mutation we just acked by one
		// scheduling beat; a second pull settles it.
	}
	c.met.syncFailures.Add(1)
	return fmt.Errorf("follower %s stuck below generation %d for %s", follower, wantGen, id)
}

// CheckBackends probes every backend's /healthz once and fails shards
// over from backends that have been failing for at least
// breakerThreshold consecutive probes. The background health loop calls
// this on its interval; the harness calls it directly for deterministic
// failover in tests.
func (c *Coordinator) CheckBackends(ctx context.Context) {
	for _, m := range c.members {
		pctx, cancel := context.WithTimeout(ctx, c.opts.HealthTimeout)
		req, _ := http.NewRequestWithContext(pctx, http.MethodGet, m.base+"/healthz", nil)
		resp, err := c.opts.Client.Do(req)
		healthy := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()

		c.mu.Lock()
		if healthy {
			c.healthFails[m.base] = 0
			c.failedOver[m.base] = false
			c.mu.Unlock()
			continue
		}
		c.healthFails[m.base]++
		dead := c.healthFails[m.base] >= breakerThreshold && !c.failedOver[m.base]
		if dead {
			c.failedOver[m.base] = true
		}
		c.mu.Unlock()

		// Keep the breaker in step with the probe verdict so request
		// traffic stops routing to a dead backend even between probes.
		m.recordFailure(time.Now(), c.opts.BreakerCooldown)
		if dead {
			c.failover(ctx, m.base)
		}
	}
}

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.lifecycle.Done():
			return
		case <-t.C:
			c.CheckBackends(c.lifecycle)
		}
	}
}

// failover promotes the warm follower of every shard owned by the dead
// backend, re-points the shard, and picks (and seeds) a new follower
// from the remaining backends in the shard's own rendezvous ranking.
func (c *Coordinator) failover(ctx context.Context, dead string) {
	c.mu.Lock()
	var moving []*shard
	for _, sh := range c.shards {
		if sh.owner == dead && sh.follower != "" {
			moving = append(moving, sh)
		}
	}
	c.mu.Unlock()
	for _, sh := range moving {
		_, follower, gen := c.snapshotShard(sh)
		fm := c.byBase[follower]
		body, _ := json.Marshal(server.ReplPromoteRequest{ID: sh.id})
		res, err := c.doOnce(ctx, fm, http.MethodPost, "/v1/replication/promote", body, http.Header{"Content-Type": []string{"application/json"}})
		if err != nil || res.status != http.StatusOK {
			status := 0
			if res != nil {
				status = res.status
			}
			c.opts.Log.Error("failover promotion failed", "instance", sh.id, "follower", follower, "status", status, "err", err)
			continue
		}
		var pr server.ReplPromoteResponse
		_ = json.Unmarshal(res.body, &pr)
		if pr.Gen < gen {
			// The follower lagged behind an acked mutation — the
			// sync-before-ack invariant was violated somewhere. Promote
			// anyway (it is the best copy left) but say so loudly.
			c.opts.Log.Error("promoted replica below acked generation",
				"instance", sh.id, "promoted_gen", pr.Gen, "acked_gen", gen)
		}
		// New follower: the next live backend in this id's own ranking
		// (skipping the dead owner and the new owner).
		var next string
		for _, b := range Rank(c.bases(), sh.id) {
			if b != dead && b != follower {
				next = b
				break
			}
		}
		c.mu.Lock()
		sh.owner = follower
		sh.follower = next
		c.mu.Unlock()
		c.met.failovers.Add(1)
		c.opts.Log.Info("shard failed over", "instance", sh.id, "from", dead, "to", follower, "gen", pr.Gen, "new_follower", next)
		if next != "" {
			if err := c.syncFollower(ctx, sh.id, follower, next, pr.Gen); err != nil {
				c.opts.Log.Warn("seeding replacement follower failed", "instance", sh.id, "follower", next, "err", err)
			}
		}
	}
}

// --- introspection ----------------------------------------------------------

// ShardInfo is one instance's placement, as served on
// GET /v1/cluster/shards.
type ShardInfo struct {
	ID       string `json:"id"`
	Owner    string `json:"owner"`
	Follower string `json:"follower,omitempty"`
	Gen      int64  `json:"gen"`
}

// Shards lists the coordinator's placement table, sorted by id.
func (c *Coordinator) Shards() []ShardInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardInfo, 0, len(c.shards))
	for _, sh := range c.shards {
		out = append(out, ShardInfo{ID: sh.id, Owner: sh.owner, Follower: sh.follower, Gen: sh.gen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(c.Shards())
}

// backendHealth is one backend's row on the coordinator's /healthz.
type backendHealth struct {
	Base string `json:"base"`
	// Open reports an open circuit breaker (requests are being refused).
	Open bool `json:"open"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	out := struct {
		Status   string          `json:"status"`
		Backends []backendHealth `json:"backends"`
	}{Status: "ok"}
	openCount := 0
	for _, m := range c.members {
		open := m.open(now)
		if open {
			openCount++
		}
		out.Backends = append(out.Backends, backendHealth{Base: m.base, Open: open})
	}
	status := http.StatusOK
	if openCount == len(c.members) {
		// Every backend refused: the cluster cannot serve anything.
		out.Status = "unavailable"
		status = http.StatusServiceUnavailable
	} else if openCount > 0 {
		out.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(out)
}

// handleVarz serves the coordinator's registry as JSON (metrics.Varz).
func (c *Coordinator) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(metrics.Varz(c.met.reg))
}
