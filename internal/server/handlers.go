package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	ocqa "repro"
	"repro/internal/store"
)

// --- registry lifecycle ---------------------------------------------------

// handleRegister registers an instance under the caller's id (the
// coordinator names every instance it places) or a minted one. Parsing
// and eager preparation are engine work like any query, so they run
// under the same deadline and compute semaphore; a 504 abandons the
// registration from the client's view, and the background goroutine
// may still complete it, in which case the instance is discoverable via
// GET /v1/instances.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	if req.Facts == "" {
		s.writeError(w, badRequest("empty \"facts\": at least one fact is required"))
		return
	}
	if req.ID != "" && !validRequestID(req.ID) {
		s.writeError(w, badRequest("instance id %q: want at most %d characters of [A-Za-z0-9._-]", req.ID, maxRequestIDLen))
		return
	}
	resp, he := runWithDeadline(s, r.Context(), func(context.Context) (RegisterResponse, *httpError) {
		inst, err := ocqa.NewInstanceFromText(req.Facts, req.FDs)
		if err != nil {
			return RegisterResponse{}, badRequest("%v", err)
		}
		// Preparation (the block decomposition) happens outside the
		// registry lock on purpose: it is linear in the facts and must
		// not block lookups.
		inst.Prepare()
		// The registry is the collision authority, so the install runs
		// first and a 409 leaves no journalled registration behind. The
		// record follows while the client still waits, and a record that
		// cannot be written takes the entry back out, so an acknowledged
		// registration survives a restart. The evictions are journalled
		// either way: they left the registry.
		e, evicted, err := s.reg.install(req.ID, req.Name, inst, time.Now(), 1)
		if err != nil {
			return RegisterResponse{}, &httpError{status: http.StatusConflict, msg: err.Error()}
		}
		defer s.dropEvicted(evicted...)
		if s.store != nil {
			if err := s.store.LogRegister(e.id, e.name, e.created, inst.DB(), inst.Sigma()); err != nil {
				_ = s.reg.remove(e.id, nil) // an eviction may have taken it already
				s.forget(e.id)
				return RegisterResponse{}, &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("journalling registration: %v", err)}
			}
		}
		s.met.registered.Inc()
		info := e.info()
		return RegisterResponse{
			ID:         e.id,
			Name:       e.name,
			Facts:      info.Facts,
			Class:      info.Class,
			Consistent: info.Consistent,
			Prepared:   info.Prepared,
		}, nil
	})
	if he != nil {
		s.writeError(w, he)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// dropEvicted journals the removal of the instances the registry
// evicted to make room (durably the same operation as a delete) and
// forgets them. A failed record only means the instance resurrects at
// the next boot, where it is evicted again once the registry refills.
func (s *Server) dropEvicted(evicted ...*instanceEntry) {
	for _, v := range evicted {
		s.met.evictions.Inc()
		if s.store != nil {
			if err := s.store.LogUnregister(v.id); err != nil {
				s.met.errors.Inc()
			}
		}
		s.forget(v.id)
	}
}

// forget is the one removal path for an instance that has left the
// registry: it drops the instance's cached results, its replication
// tail and its coverage series, and wakes its watchers, whose next
// lookup 404s instead of blocking out the wait window.
func (s *Server) forget(id string) {
	s.cache.invalidate(id)
	s.repl.dropTail(id)
	s.met.coverageChecks.Remove(id)
	s.met.coverageWithin.Remove(id)
	s.watch.changed(id)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := make([]InstanceInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.info())
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id} or writes a 404, recording the instance in the
// request's trace either way.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*instanceEntry, bool) {
	id := r.PathValue("id")
	if ri := infoFrom(r.Context()); ri != nil {
		ri.instance.Store(id)
	}
	e, ok := s.reg.get(id)
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, msg: "unknown instance " + strconv.Quote(id)})
		return nil, false
	}
	return e, true
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

// handleDelete journals the unregister record under the registry's
// write lock, before the entry leaves, so an acknowledged delete is
// never followed in the WAL by a record that brings the instance back.
// While a registration has installed its entry but not yet journalled
// it, the store does not know the id and the delete answers 409.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var journal func() error
	if s.store != nil {
		journal = func() error { return s.store.LogUnregister(id) }
	}
	switch err := s.reg.remove(id, journal); {
	case errors.Is(err, errNotFound):
		s.writeError(w, &httpError{status: http.StatusNotFound, msg: "unknown instance " + strconv.Quote(id)})
		return
	case err != nil:
		s.writeError(w, mutationError(fmt.Errorf("journalling delete: %w", err)))
		return
	}
	s.forget(id)
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "id": id})
}

// --- incremental fact mutations -------------------------------------------

// mutationError maps library mutation failures onto HTTP statuses.
func mutationError(err error) *httpError {
	switch {
	case errors.Is(err, errNotFound):
		return &httpError{status: http.StatusNotFound, msg: err.Error()}
	case errors.Is(err, ocqa.ErrDuplicateFact),
		// The id's registration is installed but not yet journalled.
		errors.Is(err, store.ErrUnknownInstance):
		return &httpError{status: http.StatusConflict, msg: err.Error()}
	case errors.Is(err, ocqa.ErrUnknownRelation),
		errors.Is(err, ocqa.ErrArityMismatch),
		errors.Is(err, ocqa.ErrFactIndex):
		return badRequest("%v", err)
	default:
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

// applyRecord applies one insert-fact or delete-fact record to inst:
// the copy-on-write mutation an owner commits and its followers replay
// in the owner's generation order, so a replica goes through exactly
// the owner's transitions. ApplyInsert/ApplyDelete derive the successor
// generation's estimation state incrementally (per-block factor cache,
// stratified draw statistics, maintained witness sets), so queries after
// the mutation pay only for the touched block. The response lacks only
// its generation.
func applyRecord(inst *ocqa.Instance, rec store.Record) (*ocqa.Instance, FactMutationResponse, error) {
	out := FactMutationResponse{ID: rec.ID, Index: rec.Index}
	var next *ocqa.Instance
	var err error
	switch rec.Kind {
	case store.OpInsertFact:
		out.Op, out.Fact = "insert", ocqa.FormatFact(rec.Fact)
		next, out.Index, err = inst.ApplyInsert(rec.Fact)
	case store.OpDeleteFact:
		if rec.Index < 0 || rec.Index >= inst.DB().Len() {
			return nil, out, fmt.Errorf("%w: %d not in [0,%d)", ocqa.ErrFactIndex, rec.Index, inst.DB().Len())
		}
		out.Op, out.Fact = "delete", ocqa.FormatFact(inst.DB().Fact(rec.Index))
		next, err = inst.ApplyDelete(rec.Index)
	default:
		err = fmt.Errorf("unexpected %s record", rec.Kind)
	}
	if err != nil {
		return nil, out, err
	}
	out.Facts, out.Consistent, out.ConflictPairs = next.DB().Len(), next.IsConsistent(), next.Core().ConflictPairCount()
	return next, out, nil
}

func (s *Server) handleInsertFact(w http.ResponseWriter, r *http.Request) {
	var req InsertFactRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	f, err := ocqa.ParseFact(req.Fact)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	s.mutate(w, r, store.Record{Kind: store.OpInsertFact, ID: r.PathValue("id"), Fact: f})
}

func (s *Server) handleDeleteFact(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		s.writeError(w, badRequest("fact index %q is not an integer", r.PathValue("index")))
		return
	}
	s.mutate(w, r, store.Record{Kind: store.OpDeleteFact, ID: r.PathValue("id"), Index: idx})
}

// mutate commits one fact record under the registry's write lock:
// apply it to the instance, journal its frame together with the
// database it left (the store keeps that database as its state, so a
// durable server holds one copy per instance), install a fresh entry,
// keep the frame in the replication tail, and delta-refresh (or drop)
// the instance's cached results. The WAL append happens inside the
// critical section, so the log order is the order the registry applied.
// Mutations deliberately do NOT run under runWithDeadline: abandoning a
// write on timeout would report failure for an operation that still
// commits (and journals) behind the client's back — for an
// index-addressed API that is actively dangerous. Only the compute
// semaphore is held, to bound simultaneous copy and refresh work. When
// the flight recorder armed a trace, it receives the write's apply,
// wal.append and refresh spans.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, rec store.Record) {
	ri := infoFrom(r.Context())
	if ri != nil {
		ri.instance.Store(rec.ID)
	}
	tr := traceFor(ri, false)
	s.compute <- struct{}{}
	defer func() { <-s.compute }()
	frame := rec.Frame()
	var out FactMutationResponse
	ne, err := s.reg.mutate(rec.ID, func(e *instanceEntry) (*instanceEntry, error) {
		endApply := tr.StartSpan("apply")
		next, resp, err := applyRecord(e.prepared, rec)
		endApply()
		if err != nil {
			return nil, err
		}
		if s.store != nil {
			endWAL := tr.StartSpan("wal.append")
			err := s.store.Append(frame, next.DB())
			endWAL()
			if err != nil {
				return nil, fmt.Errorf("journalling %s: %w", resp.Op, err)
			}
		}
		out = resp
		return &instanceEntry{id: e.id, name: e.name, prepared: next, created: e.created, gen: e.gen + 1, lineage: e.lineage}, nil
	})
	if err != nil {
		s.writeError(w, mutationError(err))
		return
	}
	out.Gen = ne.gen
	// Keep the journalled frame in the replication tail so a follower
	// inside the window syncs incrementally instead of re-transferring
	// the state.
	s.repl.appendFrame(rec.ID, ne.gen, frame)
	s.met.mutations.Inc()
	endRefresh := tr.StartSpan("refresh")
	s.refreshAfterMutation(ne)
	endRefresh()
	writeJSON(w, http.StatusOK, out)
}

// --- query execution ------------------------------------------------------

// parseGenerator maps the wire name to a Mode.
func parseGenerator(name string, singleton bool) (ocqa.Mode, *httpError) {
	var gen ocqa.Generator
	switch name {
	case "ur":
		gen = ocqa.UniformRepairs
	case "us":
		gen = ocqa.UniformSequences
	case "uo":
		gen = ocqa.UniformOperations
	default:
		return ocqa.Mode{}, badRequest("unknown generator %q (want \"ur\", \"us\" or \"uo\")", name)
	}
	return ocqa.Mode{Gen: gen, Singleton: singleton}, nil
}

// normalizeQuery canonicalises the request so every wording of the
// same computation produces the same cache key: defaults are filled
// in, the state budget is clamped, and parameters the selected mode
// ignores are zeroed (an exact answer doesn't depend on ε or the
// seed; an estimate doesn't depend on the exact state budget).
func (s *Server) normalizeQuery(req *QueryRequest) {
	switch req.Mode {
	case "exact":
		req.Epsilon, req.Delta, req.Seed = 0, 0, 0
		req.MaxSamples, req.Workers, req.Force = 0, 0, false
		req.Limit = s.clampLimit(req.Limit)
	case "approx":
		if req.Epsilon == 0 {
			req.Epsilon = ocqa.DefaultEpsilon
		}
		if req.Delta == 0 {
			req.Delta = ocqa.DefaultDelta
		}
		if req.Seed == 0 {
			req.Seed = ocqa.DefaultSeed
		}
		// Per-query estimator parallelism is bounded by the same pool
		// size that bounds batches; an unbounded client value would
		// spawn that many goroutines inside fpras. A request that omits
		// workers (or sends ≤ 0) runs with 0: adaptive selection in the
		// engine, bounded by GOMAXPROCS.
		req.Workers = min(max(req.Workers, 0), s.opts.BatchWorkers)
		req.MaxSamples = s.clampSamples(req.MaxSamples)
		req.Limit = 0
	}
}

// validateApproxParams rejects (ε, δ) outside (0, 1) before they reach
// the fpras estimators, whose parameter checks panic. Zero means "use
// the default" and is allowed.
func validateApproxParams(req *QueryRequest) *httpError {
	if req.Epsilon != 0 && !(req.Epsilon > 0 && req.Epsilon < 1) {
		return badRequest("epsilon must lie in (0,1), got %v", req.Epsilon)
	}
	if req.Delta != 0 && !(req.Delta > 0 && req.Delta < 1) {
		return badRequest("delta must lie in (0,1), got %v", req.Delta)
	}
	return nil
}

func boolField(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// queryCacheKey captures the full identity of the computation,
// including the entry's mutation generation: a query computed against
// an older generation of the instance caches under a key no
// post-mutation lookup will ever form, so a mutation can never be
// masked by a stale in-flight result landing after the invalidation.
func (s *Server) queryCacheKey(e *instanceEntry, req QueryRequest) string {
	return cacheKey(e.id, strconv.FormatInt(e.gen, 10),
		"query", req.Generator, boolField(req.Singleton), req.Mode,
		req.Query, req.Tuple, boolField(req.HasTuple),
		strconv.FormatFloat(req.Epsilon, 'g', -1, 64),
		strconv.FormatFloat(req.Delta, 'g', -1, 64),
		strconv.FormatInt(req.Seed, 10),
		strconv.Itoa(req.MaxSamples),
		strconv.Itoa(req.Workers),
		boolField(req.Force),
		strconv.Itoa(req.Limit),
	)
}

// costFromAcct renders engine accounting as a wire cost object.
// elapsed is the handler-measured wall time, which also covers the
// work the engine's own clock excludes (witness-set compilation,
// marshalling).
func costFromAcct(a ocqa.Accounting, elapsed time.Duration) *CostInfo {
	c := &CostInfo{
		Draws:       a.Draws,
		Chunks:      a.Chunks,
		ReusedDraws: a.ReusedDraws,
		Workers:     a.Workers,
		WallSeconds: elapsed.Seconds(),
		Cancelled:   a.Cancelled,
	}
	if len(a.PerWorker) > 0 {
		c.PerWorkerDraws = append([]int64(nil), a.PerWorker...)
	}
	return c
}

// checkCoverage feeds the empirical (ε, δ)-envelope counters: when the
// exact counterpart of a freshly computed single-tuple estimate is
// sitting in the result cache, the estimate is checked against the
// ε relative-error envelope the FPRAS promised. No engine ever runs
// for this — it is a cache probe, so the counters only accumulate
// where clients have asked both questions.
func (s *Server) checkCoverage(e *instanceEntry, req QueryRequest, est ocqa.Estimate) {
	exact := req
	exact.Mode = "exact"
	s.normalizeQuery(&exact)
	cached, ok := s.cache.get(s.queryCacheKey(e, exact))
	if !ok || len(cached.Answers) != 1 {
		return
	}
	// A query racing the instance's removal must not bring its series
	// back (forget dropped them): check the registry first, as the cache
	// put does.
	if _, live := s.reg.get(e.id); !live {
		return
	}
	v := cached.Answers[0].Value
	s.met.coverageChecks.With(e.id).Inc()
	// For v = 0 the relative envelope degenerates to requiring an exact
	// zero — which the estimators do deliver for empty witness sets.
	if math.Abs(est.Value-v) <= req.Epsilon*v {
		s.met.coverageWithin.With(e.id).Inc()
	}
}

// explainRequested reports the ?explain=1 opt-in. A URL parameter
// rather than a body field on purpose: bodies are decoded with
// DisallowUnknownFields as a compatibility contract, and explain is
// presentation, not computation identity — it must never reach the
// result-cache key.
func explainRequested(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// traceFor picks the trace one query execution records into: the
// request-wide trace when the flight recorder or the slow-query log
// armed one in ServeHTTP, else a fresh per-call trace when the client
// asked to see it (?explain=1), else nil — the default, where the
// engine's trace hooks are nil-receiver no-ops and cost nothing.
func traceFor(ri *reqInfo, explain bool) *ocqa.Trace {
	if ri != nil && ri.trace != nil {
		return ri.trace
	}
	if explain {
		return ocqa.NewTrace()
	}
	return nil
}

// executeQuery runs one QueryRequest against a registered instance:
// the shared path behind the query endpoint and every batch element.
// The instance's prepared samplers make it construction-free; results
// land in (and are first looked up from) the LRU cache. The context —
// the request's own, bounded by the server deadline — reaches the
// estimation loops, which stop within one sample chunk of its
// cancellation; a response computed from such a truncated run is never
// produced (the library returns the context error with the partial
// estimates instead, which travel in the error body), so nothing
// partial can land in the cache. With explain set the execution
// additionally computes the pre-sampling plan and records a
// convergence trace, both attached as resp.Explain — never cached.
func (s *Server) executeQuery(ctx context.Context, e *instanceEntry, req QueryRequest, explain bool) (QueryResponse, *httpError) {
	start := time.Now()
	m, he := parseGenerator(req.Generator, req.Singleton)
	if he != nil {
		return QueryResponse{}, he
	}
	if req.Mode != "exact" && req.Mode != "approx" {
		return QueryResponse{}, badRequest("unknown mode %q (want \"exact\" or \"approx\")", req.Mode)
	}
	ri := infoFrom(ctx)
	if ri != nil {
		ri.generator.Store(req.Generator)
		ri.mode.Store(req.Mode)
	}
	if req.Mode == "approx" {
		if he := validateApproxParams(&req); he != nil {
			return QueryResponse{}, he
		}
	}
	q, err := ocqa.ParseQuery(req.Query)
	if err != nil {
		return QueryResponse{}, badRequest("%v", err)
	}
	// Key by the canonical renderings, not the request spelling, so
	// whitespace variants of the same query share a cache entry.
	req.Query = q.String()
	c := ocqa.ParseTuple(req.Tuple)
	req.Tuple = strings.Join(c, ",")
	s.normalizeQuery(&req)
	key := s.queryCacheKey(e, req)
	if resp, ok := s.cache.get(key); ok {
		s.met.cacheHits.Inc()
		s.met.queriesServed.Inc()
		if ri != nil {
			ri.cacheHit.Add(1)
		}
		// The cached cost keeps the original run's draw accounting but
		// reports this request's disposition: served from cache, in
		// lookup time. (The clone is the caller's own copy — mutating
		// its Cost cannot reach the cached entry.)
		if resp.Cost == nil {
			resp.Cost = &CostInfo{}
		}
		resp.Cost.Cached = true
		resp.Cost.WallSeconds = time.Since(start).Seconds()
		if explain {
			// The cache entry carries no trace (explain is stripped before
			// put); a hit explains itself as the zero-draw cached route.
			resp.Explain = &ExplainInfo{Plan: ocqa.CachedPlan()}
		}
		return resp, nil
	}
	s.met.cacheMisses.Inc()
	if ri != nil {
		ri.cacheMiss.Add(1)
	}
	tr := traceFor(ri, explain)
	if tr != nil {
		ctx = ocqa.ContextWithTrace(ctx, tr)
	}

	p := e.prepared
	status, cite := ocqa.Approximability(m, p.Class())
	resp := QueryResponse{
		Instance:        e.id,
		Generator:       m.Symbol(),
		Mode:            req.Mode,
		Query:           q.String(),
		Approximability: status.String(),
		Citation:        cite,
	}
	// Single-tuple semantics mirror the CLI: an explicit tuple, or a
	// Boolean query (whose only candidate is the empty tuple).
	single := req.HasTuple || req.Tuple != "" || q.IsBoolean()
	if single && len(c) != len(q.AnswerVars) {
		// An arity-mismatched tuple would otherwise become a
		// constant-false predicate that burns the full sample budget
		// estimating 0.
		return QueryResponse{}, badRequest("tuple %v has %d values but %s has %d answer variables",
			c, len(c), q, len(q.AnswerVars))
	}

	var plan ocqa.QueryPlan
	switch req.Mode {
	case "exact":
		s.met.exactQueries.Inc()
		limit := req.Limit // already clamped by normalizeQuery
		if single {
			prob, err := p.ExactProbability(m, q, c, limit)
			if err != nil {
				return QueryResponse{}, toHTTPError(err)
			}
			f, _ := prob.Float64()
			resp.Answers = []Answer{{Tuple: tupleJSON(c), Prob: prob.RatString(), Value: f}}
		} else {
			answers, err := p.ConsistentAnswers(m, q, limit)
			if err != nil {
				return QueryResponse{}, toHTTPError(err)
			}
			s.met.answersQueries.Inc()
			s.met.answerTuples.Add(int64(len(answers)))
			resp.Answers = make([]Answer, 0, len(answers))
			for _, a := range answers {
				f, _ := a.Prob.Float64()
				resp.Answers = append(resp.Answers, Answer{Tuple: tupleJSON(a.Tuple), Prob: a.Prob.RatString(), Value: f})
			}
		}
	case "approx":
		s.met.approxQueries.Inc()
		opts := ocqa.ApproxOptions{
			Epsilon:    req.Epsilon,
			Delta:      req.Delta,
			Seed:       req.Seed,
			MaxSamples: req.MaxSamples,
			Workers:    req.Workers,
			Force:      req.Force,
		}
		if explain {
			// The routing decision and draw-budget prediction, computed
			// before any sampling from the same bounds the estimators run
			// on. Its approximability check is the one the execution below
			// would perform, so a refusal here is the identical error.
			endPlan := tr.StartSpan("plan")
			pl, perr := p.PlanApproximate(m, q, c, single, opts)
			endPlan()
			if perr != nil {
				return QueryResponse{}, toHTTPError(perr)
			}
			plan = pl
		}
		if single {
			est, err := p.Approximate(ctx, m, q, c, opts)
			if err != nil {
				he := toHTTPError(err)
				he.cost = costFromAcct(est.Acct, time.Since(start))
				if est.Samples > 0 {
					conv := est.Converged
					he.partial = []Answer{{Tuple: tupleJSON(c), Value: est.Value, Samples: est.Samples, Converged: &conv}}
				}
				return QueryResponse{}, he
			}
			s.met.sampleDraws.Add(int64(est.Samples))
			if ri != nil {
				ri.draws.Add(int64(est.Samples))
			}
			conv := est.Converged
			resp.Answers = []Answer{{Tuple: tupleJSON(c), Value: est.Value, Samples: est.Samples, Converged: &conv}}
			resp.Cost = costFromAcct(est.Acct, time.Since(start))
			s.checkCoverage(e, req, est)
		} else {
			// The all-answers shape runs ONE shared Monte-Carlo pass for
			// every candidate tuple (witness sets cached per query
			// fingerprint on the prepared instance); req.Workers
			// parallelises that single pass.
			answers, acct, err := p.ApproximateAnswersAcct(ctx, m, q, opts)
			if err != nil {
				he := toHTTPError(err)
				he.cost = costFromAcct(acct, time.Since(start))
				// The partial per-tuple estimates accompany the error.
				for _, a := range answers {
					if a.Estimate.Samples == 0 {
						continue
					}
					conv := a.Estimate.Converged
					he.partial = append(he.partial, Answer{Tuple: tupleJSON(a.Tuple), Value: a.Estimate.Value, Samples: a.Estimate.Samples, Converged: &conv})
				}
				return QueryResponse{}, he
			}
			s.met.answersQueries.Inc()
			s.met.answerTuples.Add(int64(len(answers)))
			resp.Answers = make([]Answer, 0, len(answers))
			// The tuples share one draw stream: the pass's cost is the
			// longest per-tuple prefix, not the per-tuple sum.
			shared := 0
			for _, a := range answers {
				if a.Estimate.Samples > shared {
					shared = a.Estimate.Samples
				}
				conv := a.Estimate.Converged
				resp.Answers = append(resp.Answers, Answer{Tuple: tupleJSON(a.Tuple), Value: a.Estimate.Value, Samples: a.Estimate.Samples, Converged: &conv})
			}
			s.met.sampleDraws.Add(int64(shared))
			if ri != nil {
				ri.draws.Add(int64(shared))
			}
			resp.Cost = costFromAcct(acct, time.Since(start))
		}
	}
	// Exact paths carry a cost too: zero draws, handler wall time.
	if resp.Cost == nil {
		resp.Cost = &CostInfo{WallSeconds: time.Since(start).Seconds()}
	}
	s.met.queriesServed.Inc()
	// Best-effort guard against caching for an instance deregistered
	// mid-query (the entry would be unreachable, since IDs are never
	// reused). A delete landing between this check and the put can
	// still slip one in; the stray entry is bounded — it occupies one
	// LRU slot until capacity eviction.
	if _, ok := s.reg.get(e.id); ok {
		s.cache.putQuery(key, e.gen, req, resp)
	}
	// Attached after the cache put on purpose: the cached entry never
	// carries an explain payload, so a later hit (explain or not) starts
	// from a clean response and hits report the cached plan instead.
	if explain {
		if req.Mode == "exact" {
			plan = ocqa.PlanExact(len(resp.Answers))
		}
		resp.Explain = &ExplainInfo{
			Plan:        plan,
			Spans:       tr.Spans(),
			Convergence: tr.Curve(),
			ActualDraws: resp.Cost.Draws,
		}
	}
	return resp, nil
}

// tupleJSON renders a tuple as a non-nil string slice.
func tupleJSON(c ocqa.Tuple) []string {
	out := make([]string, len(c))
	copy(out, c)
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req QueryRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	explain := explainRequested(r)
	resp, he := runWithDeadline(s, r.Context(), func(ctx context.Context) (QueryResponse, *httpError) {
		return s.executeQuery(ctx, e, req, explain)
	})
	if he != nil {
		s.writeError(w, he)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- counting, marginals, semantics ---------------------------------------

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req CountRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	explain := explainRequested(r)
	resp, he := runWithDeadline(s, r.Context(), func(context.Context) (CountResponse, *httpError) {
		start := time.Now()
		p := e.prepared
		out := CountResponse{Singleton: req.Singleton}
		// Counting is pure DP — the only phase worth a span is the count
		// itself, and the plan is the zero-draw exact route.
		tr := traceFor(infoFrom(r.Context()), explain)
		endCount := tr.StartSpan("count")
		if req.Sequences {
			n, err := p.CountSequences(req.Singleton, s.clampLimit(req.Limit))
			if err != nil {
				return CountResponse{}, toHTTPError(err)
			}
			out.Count, out.Sequences = n.String(), true
		} else {
			out.Count = p.CountRepairs(req.Singleton).String()
		}
		endCount()
		out.Cost = &CostInfo{WallSeconds: time.Since(start).Seconds()}
		if explain {
			out.Explain = &ExplainInfo{Plan: ocqa.PlanExact(1), Spans: tr.Spans()}
		}
		return out, nil
	})
	if he != nil {
		s.writeError(w, he)
		return
	}
	s.met.queriesServed.Inc()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMarginals(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req MarginalsRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	m, he := parseGenerator(req.Generator, req.Singleton)
	if he != nil {
		s.writeError(w, he)
		return
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.generator.Store(req.Generator)
		ri.mode.Store(req.Mode)
	}
	explain := explainRequested(r)
	resp, he := runWithDeadline(s, r.Context(), func(ctx context.Context) (MarginalsResponse, *httpError) {
		start := time.Now()
		p := e.prepared
		resp := MarginalsResponse{Instance: e.id, Generator: m.Symbol(), Mode: req.Mode}
		db := p.DB()
		tr := traceFor(infoFrom(ctx), explain)
		switch req.Mode {
		case "exact":
			marginals, err := p.FactMarginals(m, s.clampLimit(req.Limit))
			if err != nil {
				return MarginalsResponse{}, toHTTPError(err)
			}
			resp.Marginals = make([]FactMarginal, 0, len(marginals))
			for _, fm := range marginals {
				f, _ := fm.Prob.Float64()
				resp.Marginals = append(resp.Marginals, FactMarginal{Fact: fm.Fact.String(), Prob: fm.Prob.RatString(), Value: f})
			}
			resp.Cost = &CostInfo{WallSeconds: time.Since(start).Seconds()}
			if explain {
				resp.Explain = &ExplainInfo{Plan: ocqa.PlanExact(db.Len())}
			}
		case "approx":
			// The draw count is resolved here (not left to the library
			// default) only because the server must clamp it and account
			// for it; the default itself is the library's.
			draws := req.MaxSamples
			if draws <= 0 {
				draws = ocqa.DefaultMarginalSamples
			}
			draws = s.clampSamples(draws)
			// Marginal estimation parallelises like a batch: bound the
			// per-request workers by the same pool size. Omitted (≤ 0)
			// runs with 0, adaptive selection in the engine.
			workers := min(max(req.Workers, 0), s.opts.BatchWorkers)
			if tr != nil {
				ctx = ocqa.ContextWithTrace(ctx, tr)
			}
			vals, acct, err := p.ApproximateFactMarginalsAcct(ctx, m, ocqa.ApproxOptions{
				Seed:       req.Seed,
				MaxSamples: draws,
				Workers:    workers,
				Force:      req.Force,
			})
			if err != nil {
				he := toHTTPError(err)
				he.cost = costFromAcct(acct, time.Since(start))
				return MarginalsResponse{}, he
			}
			s.met.sampleDraws.Add(acct.Draws)
			if ri := infoFrom(ctx); ri != nil {
				ri.draws.Add(acct.Draws)
			}
			resp.Marginals = make([]FactMarginal, 0, len(vals))
			for i, v := range vals {
				resp.Marginals = append(resp.Marginals, FactMarginal{Fact: db.Fact(i).String(), Value: v})
			}
			resp.Cost = costFromAcct(acct, time.Since(start))
			if explain {
				// Marginals run one fixed-budget shared pass scoring every
				// fact, so the plan's prediction is the resolved draw count
				// itself; the |D|-sized output keeps the trace span-only.
				plan := ocqa.QueryPlan{
					Route:          "marginals-fixed",
					Targets:        db.Len(),
					Blocks:         -1,
					RequiredDraws:  int64(draws),
					PredictedDraws: int64(draws),
					MaxSamples:     draws,
				}
				if n, ok := p.BlockCount(); ok {
					plan.Blocks = n
				}
				resp.Explain = &ExplainInfo{Plan: plan, Spans: tr.Spans(), ActualDraws: acct.Draws}
			}
		default:
			return MarginalsResponse{}, badRequest("unknown mode %q (want \"exact\" or \"approx\")", req.Mode)
		}
		return resp, nil
	})
	if he != nil {
		s.writeError(w, he)
		return
	}
	s.met.queriesServed.Inc()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSemantics(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req SemanticsRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	m, he := parseGenerator(req.Generator, req.Singleton)
	if he != nil {
		s.writeError(w, he)
		return
	}
	resp, he := runWithDeadline(s, r.Context(), func(context.Context) (SemanticsResponse, *httpError) {
		p := e.prepared
		sem, err := p.Semantics(m, s.clampLimit(req.Limit))
		if err != nil {
			return SemanticsResponse{}, toHTTPError(err)
		}
		resp := SemanticsResponse{Instance: e.id, Generator: m.Symbol()}
		resp.Repairs = make([]RepairEntry, 0, len(sem))
		for _, rp := range sem {
			repair := p.RepairOf(rp)
			facts := make([]string, 0, repair.Len())
			for _, f := range repair.Facts() {
				facts = append(facts, f.String())
			}
			f, _ := rp.Prob.Float64()
			resp.Repairs = append(resp.Repairs, RepairEntry{Facts: facts, Prob: rp.Prob.RatString(), Value: f})
		}
		return resp, nil
	})
	if he != nil {
		s.writeError(w, he)
		return
	}
	s.met.queriesServed.Inc()
	writeJSON(w, http.StatusOK, resp)
}
