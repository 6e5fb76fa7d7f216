// Package server is the concurrent OCQA query service: a long-running
// HTTP layer over the ocqa facade that amortizes the expensive
// per-instance artifacts (conflict structure, block decomposition,
// sequence-sampler DP tables) across many queries and many concurrent
// clients.
//
// Endpoints (all request/response bodies are JSON):
//
//	POST   /v1/instances                      register a database + FD set
//	GET    /v1/instances                      list registered instances
//	GET    /v1/instances/{id}                 inspect one instance
//	DELETE /v1/instances/{id}                 deregister (and drop cached results)
//	POST   /v1/instances/{id}/facts           insert one fact (incremental)
//	DELETE /v1/instances/{id}/facts/{index}   delete the fact at that index
//	POST   /v1/instances/{id}/query           exact or approximate OCQA
//	GET    /v1/instances/{id}/watch           long-poll a query across mutations
//	POST   /v1/instances/{id}/batch           N queries over a bounded worker pool
//	POST   /v1/instances/{id}/repairs/count   |CORep| / |CRS| (and ^1 variants)
//	POST   /v1/instances/{id}/marginals       per-fact survival probabilities
//	POST   /v1/instances/{id}/semantics       the exact repair distribution [[D]]_M
//	GET    /healthz                           liveness
//	GET    /varz                              operational counters
//
// Registration prepares the instance (ocqa.Prepare builds its block
// decomposition); the sequence-sampler DP tables build on the first
// M^us or M^{us,1} query, after which every query — including thousands
// running concurrently — performs zero sampler constructions. The
// approximability matrix is
// enforced exactly as in the library: a (generator, constraint-class)
// pair without an FPRAS is refused with HTTP 422 and the error cites
// the paper's theorem. Repeated identical queries are served from a
// bounded LRU result cache.
//
// With Options.Store set, the server is durable: every registry
// operation — register, unregister (explicit or LRU eviction),
// insert-fact, delete-fact — is journalled to the store's write-ahead
// log before it is acknowledged, and New replays the snapshot + WAL so
// a restarted server answers for every previously registered instance
// without re-registration. Fact mutations maintain the conflict
// structure incrementally (copy-on-write) and invalidate the cached
// results and sampler artifacts of the touched instance lazily.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
)

// Options configures a Server.
type Options struct {
	// BatchWorkers bounds the worker pool a batch request fans out
	// over. Default: GOMAXPROCS.
	BatchWorkers int
	// DefaultWorkers is the estimation worker count applied to approx
	// query and marginals requests that omit workers (or request ≤ 0).
	// Default 0 means adaptive: the engine sizes each run's pool from
	// the instance's conflict structure and draw budget, bounded by
	// GOMAXPROCS. Set a positive value to pin a fixed count instead.
	DefaultWorkers int
	// CacheSize bounds the LRU result cache (entries). 0 picks the
	// default of 1024; negative disables caching.
	CacheSize int
	// QueryTimeout bounds each query execution; expired queries return
	// HTTP 504. 0 picks the default of 30s; negative disables the
	// deadline.
	QueryTimeout time.Duration
	// ExactLimit caps the exact engines' state budget per query
	// (requests may ask for less, never more). Default: 2,000,000.
	ExactLimit int
	// MaxBodyBytes caps request bodies (a registration carries a whole
	// database). Default: 16 MiB.
	MaxBodyBytes int64
	// MaxBatchQueries caps the number of elements one batch request
	// may carry. Default: 1024.
	MaxBatchQueries int
	// SampleCap caps the Monte-Carlo draw budget a single request may
	// demand (query MaxSamples and marginals draw counts). Default:
	// 5,000,000 (the library's own estimator default).
	SampleCap int
	// MaxConcurrentQueries bounds engine computations running at once
	// across all endpoints — including computations already abandoned
	// by a 504, so a retrying client cannot stack unbounded work.
	// Worst-case sampling goroutines are MaxConcurrentQueries ×
	// min(request workers, BatchWorkers); lower either knob to shrink
	// that product. Default: 4 × GOMAXPROCS.
	MaxConcurrentQueries int
	// MaxInstances bounds the registry (each instance holds its
	// database, conflict structure and DP tables while live).
	// Registrations beyond it evict the least-recently-used instance,
	// journalling the eviction when a Store is configured.
	// Default: 1024.
	MaxInstances int
	// DeltaRefreshLimit bounds how many of an instance's cached query
	// results a fact mutation delta-refreshes in place: the
	// most-recently-used previous-generation entries are re-executed
	// against the mutated instance (riding its warm per-block factor
	// cache and stratified draw reuse) and re-cached under the new
	// generation, so hot queries stay cache-warm across churn. Entries
	// beyond the limit are dropped as before. 0 picks the default of 8;
	// negative disables refresh (mutations only invalidate).
	DeltaRefreshLimit int
	// WatchWait bounds how long GET .../watch long-polls for a mutation
	// before answering 204 No Content. 0 picks the default of 25s;
	// negative makes watches return immediately.
	WatchWait time.Duration
	// ShedInflight, when positive, sheds query-path requests (query,
	// batch, count, marginals, semantics) with HTTP 503 once that many
	// requests are already inside the server — the backend half of the
	// cluster tier's load shedding, whose coordinator passes the 503
	// through and opens the backend's circuit breaker. Mutations and
	// replication traffic are never shed: dropping an acked write or a
	// follower sync would cost durability, not just latency. 0 (the
	// default) disables shedding.
	ShedInflight int
	// CancelGrace is how long a timed-out request waits for its
	// computation to return cooperatively before giving up on it. The
	// estimation engines stop within one sample chunk of cancellation
	// and hand back partial estimates with their accounting; the grace
	// window is what lets a 504 body carry that partial work instead of
	// discarding it. 0 picks the default of 250ms; negative disables
	// the wait (504s return immediately, without partial results).
	CancelGrace time.Duration
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/. Off by
	// default: the profiles expose internals and cost CPU to collect,
	// so the operator opts in (ocqa-serve -pprof).
	EnablePprof bool
	// EnableDebugQueries mounts the slow-query flight recorder at
	// GET /debug/queries: bounded rings of the last and the slowest
	// query and fact-write executions with their traces. Off by default
	// for the same reason as pprof — the records expose query text and
	// timing internals — and opted into with ocqa-serve -debug-queries.
	// Enabling it arms a per-request engine trace on query and fact-write
	// endpoints; a write records its apply, wal.append and refresh spans.
	EnableDebugQueries bool
	// SlowQuery, when positive, logs every query- or fact-write-endpoint
	// request whose total wall time reaches the threshold as one
	// structured warning carrying the full trace (phase spans,
	// convergence terminal). Uses AccessLog when configured, slog's
	// default logger otherwise.
	SlowQuery time.Duration
	// AccessLog, when non-nil, receives one structured line per request
	// (request id, endpoint, status, latency, instance, draws, cache
	// disposition). Nil disables access logging.
	AccessLog *slog.Logger
	// Store, when non-nil, makes the registry durable: every registry
	// operation is journalled to its WAL and New replays its contents
	// into the registry before serving. The server owns neither Open
	// nor Close — the caller (cmd/ocqa-serve) manages the store's
	// lifecycle around the HTTP listener's.
	Store *store.Store
}

func (o *Options) fill() {
	if o.BatchWorkers <= 0 {
		o.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	// Never below 1: a zero-worker pool would leave handleBatch feeding
	// an unbuffered jobs channel no goroutine ever reads — a deadlock,
	// not a slow batch.
	o.BatchWorkers = max(o.BatchWorkers, 1)
	// DefaultWorkers 0 is meaningful (adaptive), only negatives are
	// normalised; a positive pin is still bounded by the batch pool.
	o.DefaultWorkers = max(o.DefaultWorkers, 0)
	o.DefaultWorkers = min(o.DefaultWorkers, o.BatchWorkers)
	switch {
	case o.CacheSize == 0:
		o.CacheSize = 1024
	case o.CacheSize < 0:
		o.CacheSize = 0
	}
	switch {
	case o.QueryTimeout == 0:
		o.QueryTimeout = 30 * time.Second
	case o.QueryTimeout < 0:
		o.QueryTimeout = 0
	}
	if o.ExactLimit <= 0 {
		o.ExactLimit = 2_000_000
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.MaxBatchQueries <= 0 {
		o.MaxBatchQueries = 1024
	}
	if o.SampleCap <= 0 {
		o.SampleCap = 5_000_000
	}
	if o.MaxConcurrentQueries <= 0 {
		o.MaxConcurrentQueries = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxInstances <= 0 {
		o.MaxInstances = 1024
	}
	switch {
	case o.DeltaRefreshLimit == 0:
		o.DeltaRefreshLimit = 8
	case o.DeltaRefreshLimit < 0:
		o.DeltaRefreshLimit = 0
	}
	switch {
	case o.WatchWait == 0:
		o.WatchWait = 25 * time.Second
	case o.WatchWait < 0:
		o.WatchWait = 0
	}
	switch {
	case o.CancelGrace == 0:
		o.CancelGrace = 250 * time.Millisecond
	case o.CancelGrace < 0:
		o.CancelGrace = 0
	}
}

// Server is the HTTP handler. Create with New; it is safe for
// concurrent use by any number of clients.
type Server struct {
	opts  Options
	reg   *registry
	cache *resultCache
	store *store.Store // nil when running memory-only
	met   *serverMetrics
	start time.Time
	mux   *http.ServeMux
	// flight is the slow-query flight recorder, nil unless
	// Options.EnableDebugQueries opted in.
	flight *flightRecorder
	// compute is the server-wide semaphore every engine computation
	// holds while running; see Options.MaxConcurrentQueries.
	compute chan struct{}
	// watch wakes the long-poll watchers of an instance after every
	// mutation (and deregistration) of it.
	watch *watchHub
	// repl holds the replication bookkeeping: per-instance frame tails for
	// the feed this backend serves as an owner, and the warm replicas it
	// maintains as a follower.
	repl *replState
	// inflight counts requests currently inside ServeHTTP, for the
	// ShedInflight load-shedding gate.
	inflight atomic.Int64
	// lifecycle is cancelled by Close: background work the server starts
	// on its own authority — post-mutation delta refreshes above all —
	// derives its context from it, so a graceful shutdown stops that
	// work within one sample chunk instead of blocking behind up to
	// DeltaRefreshLimit engine computations per in-flight mutation.
	lifecycle context.Context
	stop      context.CancelFunc
}

// Close cancels the server's lifecycle context: in-flight delta
// refreshes stop at their next cancellation check and long-poll
// watchers return immediately, so the HTTP listener's graceful
// shutdown drains instead of waiting out engine computations no client
// is reading. Close never blocks; calling it more than once is safe.
// The server's store (if any) is still owned by the caller.
func (s *Server) Close() {
	s.stop()
}

// Inflight reports how many requests are currently inside ServeHTTP.
// Cluster tests use it to know when a parked long-poll watcher has
// actually occupied an inflight slot before provoking the shed gate.
func (s *Server) Inflight() int64 {
	return s.inflight.Load()
}

// New builds a Server with its routes installed. With opts.Store set,
// the store's replayed state (snapshot + WAL) is restored into the
// registry first — a warm boot: every previously registered instance
// answers queries without re-registration, rebuilding its sampler
// artifacts lazily on first use.
func New(opts Options) *Server {
	opts.fill()
	lifecycle, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		reg:       newRegistry(opts.MaxInstances),
		cache:     newResultCache(opts.CacheSize),
		store:     opts.Store,
		start:     time.Now(),
		mux:       http.NewServeMux(),
		compute:   make(chan struct{}, opts.MaxConcurrentQueries),
		watch:     newWatchHub(),
		repl:      newReplState(),
		lifecycle: lifecycle,
		stop:      stop,
	}
	s.met = newServerMetrics(s)
	// The engine reports every estimation run (cancelled ones included)
	// through its run hook: one observation per run, far below the <5%
	// instrumentation budget. Process-wide, so the most recently built
	// server owns the histograms — in production there is one.
	engine.SetRunHook(func(ri engine.RunInfo) {
		s.met.engineDraws.Observe(float64(ri.Acct.Draws))
		s.met.engineWall.Observe(ri.Acct.Wall().Seconds())
	})
	if s.store != nil {
		for _, is := range s.store.Instances() {
			s.reg.restore(is.ID, is.Name, ocqa.NewInstance(is.DB, is.Sigma), is.Created)
		}
		// A store written under a higher -max-instances may replay more
		// entries than this boot's capacity: evict (and journal) down
		// so the documented memory bound holds from the first request.
		for s.reg.len() > opts.MaxInstances {
			v := s.reg.evictLRU()
			if v == nil {
				break
			}
			s.dropEvicted(v)
		}
	}
	s.mux.HandleFunc("POST /v1/instances", s.handleRegister)
	s.mux.HandleFunc("GET /v1/instances", s.handleList)
	s.mux.HandleFunc("GET /v1/instances/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/instances/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/instances/{id}/facts", s.handleInsertFact)
	s.mux.HandleFunc("DELETE /v1/instances/{id}/facts/{index}", s.handleDeleteFact)
	s.mux.HandleFunc("POST /v1/instances/{id}/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/instances/{id}/watch", s.handleWatch)
	s.mux.HandleFunc("POST /v1/instances/{id}/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/instances/{id}/repairs/count", s.handleCount)
	s.mux.HandleFunc("POST /v1/instances/{id}/marginals", s.handleMarginals)
	s.mux.HandleFunc("POST /v1/instances/{id}/semantics", s.handleSemantics)
	s.mux.HandleFunc("GET /v1/replication/instances", s.handleReplInstances)
	s.mux.HandleFunc("GET /v1/replication/instances/{id}", s.handleReplFeed)
	s.mux.HandleFunc("GET /v1/replication/replicas", s.handleReplReplicas)
	s.mux.HandleFunc("POST /v1/replication/sync", s.handleReplSync)
	s.mux.HandleFunc("POST /v1/replication/promote", s.handleReplPromote)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.EnableDebugQueries {
		s.flight = newFlightRecorder()
		s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	}
	if opts.EnablePprof {
		// pprof.Index dispatches /debug/pprof/{heap,goroutine,...} off
		// the path suffix, so the subtree route covers the named
		// profiles; the four below have dedicated handlers.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// httpError is an error with the HTTP status it should surface as,
// optionally carrying the partial work of a run stopped early: the
// accounting of the draws spent and the per-tuple estimates computed
// before cancellation, which writeError surfaces in the error body.
type httpError struct {
	status  int
	msg     string
	cost    *CostInfo
	partial []Answer
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// toHTTPError classifies a library error: approximability refusals are
// client errors (422, theorem citation preserved), state-budget
// exhaustion asks the client to switch to sampling, a cancelled
// estimation maps to the status its cause would have received (504 for
// an expired deadline, 499 for a vanished client), anything else is a
// 500.
func toHTTPError(err error) *httpError {
	var he *httpError
	if errors.As(err, &he) {
		return he
	}
	if errors.Is(err, ocqa.ErrNotApproximable) {
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &httpError{status: http.StatusGatewayTimeout, msg: "query exceeded the server deadline; the estimation stopped at its next sample chunk"}
	}
	if errors.Is(err, context.Canceled) {
		return &httpError{status: statusClientClosedRequest, msg: "client disconnected; the estimation stopped at its next sample chunk"}
	}
	var sl core.StateLimitError
	if errors.As(err, &sl) {
		return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("exact engine exceeded its state budget (%v); raise limit or use mode \"approx\"", err)}
	}
	return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
}

// recordFailure bumps the counter matching the failure class.
func (s *Server) recordFailure(he *httpError) {
	switch he.status {
	case http.StatusUnprocessableEntity:
		s.met.refusals.Inc()
	case http.StatusGatewayTimeout:
		s.met.timeouts.Inc()
	case statusClientClosedRequest:
		// The client is gone; neither a server error nor a timeout.
	default:
		s.met.errors.Inc()
	}
}

// writeError renders the uniform error body — the request id (already
// stamped on the response header by ServeHTTP) and any partial work the
// failed computation salvaged included — and bumps the counters.
func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	s.recordFailure(he)
	writeJSON(w, he.status, errorResponse{
		Error:     he.msg,
		RequestID: w.Header().Get("X-Request-Id"),
		Cost:      he.cost,
		Partial:   he.partial,
	})
}

// decodeJSON strictly decodes the body-size-capped request body into v.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) *httpError {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)}
		}
		return badRequest("decoding request body: %v", err)
	}
	return nil
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before the response"; nothing is written to the wire, the code
// only classifies the failure internally.
const statusClientClosedRequest = 499

// classifyCtxErr maps a finished parent context to the failure it
// represents: an expired deadline (batch budget spent) is a 504, a
// cancellation is a vanished client.
func (s *Server) classifyCtxErr(err error) *httpError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &httpError{status: http.StatusGatewayTimeout, msg: fmt.Sprintf("query exceeded the server deadline of %v", s.opts.QueryTimeout)}
	}
	return &httpError{status: statusClientClosedRequest, msg: "client disconnected"}
}

// safeCall runs f, converting a panic anywhere below (an engine
// invariant violation, say) into a 500 instead of tearing down the
// process — essential because runWithDeadline executes f on a bare
// goroutine that net/http's per-connection recover never sees.
func safeCall[T any](f func() (T, *httpError)) (v T, he *httpError) {
	defer func() {
		if p := recover(); p != nil {
			he = &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("internal error: %v", p)}
		}
	}()
	return f()
}

// runWithDeadline executes f with a context bounding it by the
// server's query timeout (and the request's own lifetime: a client
// disconnect cancels it). The estimation engines check that context
// between sample chunks, so sampling work genuinely stops shortly
// after the deadline instead of draining its full draw budget. The
// exact engines still have no cancellation points (they are bounded by
// their state budget instead), so the select below keeps the caller's
// wait bounded either way and abandons a non-cooperating computation
// to finish in the background. A request whose parent context is
// already done (client disconnected, or the whole-batch budget spent)
// spawns no computation at all — this is what keeps the abandoned work
// of a batch bounded by the worker pool rather than fanning out per
// element.
func runWithDeadline[T any](s *Server, parent context.Context, f func(ctx context.Context) (T, *httpError)) (T, *httpError) {
	var zero T
	if err := parent.Err(); err != nil {
		return zero, s.classifyCtxErr(err)
	}
	if s.opts.QueryTimeout <= 0 {
		s.compute <- struct{}{}
		defer func() { <-s.compute }()
		return safeCall(func() (T, *httpError) { return f(parent) })
	}
	ctx, cancel := context.WithTimeout(parent, s.opts.QueryTimeout)
	defer cancel()
	type outcome struct {
		v  T
		he *httpError
	}
	ch := make(chan outcome, 1)
	go func() {
		// The semaphore is held for the computation itself — even one
		// the select below has already abandoned — so retry storms
		// against slow queries queue here instead of stacking engines.
		s.compute <- struct{}{}
		defer func() { <-s.compute }()
		v, he := safeCall(func() (T, *httpError) { return f(ctx) })
		ch <- outcome{v, he}
	}()
	select {
	case o := <-ch:
		return o.v, o.he
	case <-ctx.Done():
		// The estimation engines stop within one sample chunk of the
		// cancellation and return their partial estimates with the
		// error; wait briefly for that cooperative return so the
		// failure response can carry the accounting (and, for a lucky
		// race, a computation that finished right at the deadline is
		// served whole). Exact engines have no cancellation points, so
		// the wait is bounded by the grace window, not by them.
		if grace := s.opts.CancelGrace; grace > 0 {
			t := time.NewTimer(grace)
			select {
			case o := <-ch:
				t.Stop()
				return o.v, o.he
			case <-t.C:
			}
		}
		if err := parent.Err(); err != nil {
			return zero, s.classifyCtxErr(err)
		}
		return zero, &httpError{
			status: http.StatusGatewayTimeout,
			msg:    fmt.Sprintf("query exceeded the server deadline of %v", s.opts.QueryTimeout),
		}
	}
}

// clampSamples applies the server's Monte-Carlo draw cap. An omitted
// value is resolved to the library's estimator default first, so an
// operator-lowered cap binds even when the client sends nothing.
func (s *Server) clampSamples(requested int) int {
	if requested <= 0 {
		requested = ocqa.DefaultMaxSamples
	}
	if requested > s.opts.SampleCap {
		return s.opts.SampleCap
	}
	return requested
}

// clampLimit applies the server's exact-engine state-budget cap.
func (s *Server) clampLimit(requested int) int {
	if requested <= 0 || requested > s.opts.ExactLimit {
		return s.opts.ExactLimit
	}
	return requested
}
