package server

// Wire types of the HTTP API. Every request body is JSON; every
// response is JSON. Exact probabilities travel both as the rational
// string ("1/3") and as a float; estimates carry their (ε, δ) and
// sample-count metadata.

import ocqa "repro"

// RegisterRequest is the body of POST /v1/instances: a database and an
// FD set in the text formats of package parse.
type RegisterRequest struct {
	// Facts is a newline-separated fact list, e.g. "Emp(1,Alice)".
	Facts string `json:"facts"`
	// FDs is a newline-separated FD list, e.g. "Emp: A1 -> A2".
	FDs string `json:"fds"`
	// Name optionally labels the instance.
	Name string `json:"name,omitempty"`
	// ID optionally pins the instance id instead of letting the server
	// allocate one — the cluster coordinator mints cluster-unique ids
	// this way so every backend names the instance identically. A
	// collision with a live id is a 409. Same charset as request ids:
	// [A-Za-z0-9._-], at most 64 characters.
	ID string `json:"id,omitempty"`
}

// RegisterResponse describes a registered instance.
type RegisterResponse struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	Facts      int    `json:"facts"`
	Class      string `json:"class"`
	Consistent bool   `json:"consistent"`
	// Prepared reports whether the DP sampler artifacts were built at
	// registration (true exactly for primary-key instances).
	Prepared bool `json:"prepared"`
}

// InstanceInfo is the GET /v1/instances[/{id}] view.
type InstanceInfo struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	Facts      int    `json:"facts"`
	Class      string `json:"class"`
	Consistent bool   `json:"consistent"`
	Prepared   bool   `json:"prepared"`
	CreatedAt  string `json:"created_at"`
}

// InsertFactRequest is the body of POST .../facts: one fact in the
// text format, e.g. "Emp(2,Carol)".
type InsertFactRequest struct {
	Fact string `json:"fact"`
}

// FactMutationResponse describes the instance after an insert-fact or
// delete-fact mutation.
type FactMutationResponse struct {
	ID string `json:"id"`
	// Op is "insert" or "delete".
	Op string `json:"op"`
	// Fact is the canonical rendering of the touched fact.
	Fact string `json:"fact"`
	// Index is the fact's index in the instance's sorted fact order:
	// the index assigned on insert, or the index removed on delete
	// (facts after it shift down by one).
	Index int `json:"index"`
	// Facts, Consistent and ConflictPairs describe the mutated
	// instance.
	Facts         int  `json:"facts"`
	Consistent    bool `json:"consistent"`
	ConflictPairs int  `json:"conflict_pairs"`
	// Gen is the instance's mutation generation after this operation.
	// The cluster coordinator acks a mutation only once the follower's
	// replica has synced to at least this generation.
	Gen int64 `json:"gen"`
}

// QueryRequest drives POST .../query and each element of a batch.
type QueryRequest struct {
	// Generator is "ur" (uniform repairs), "us" (uniform sequences) or
	// "uo" (uniform operations).
	Generator string `json:"generator"`
	// Singleton restricts to single-fact deletions (M^{·,1}).
	Singleton bool `json:"singleton,omitempty"`
	// Mode is "exact" (♯P engines, state-budget bounded) or "approx"
	// (the paper's samplers, matrix-enforced).
	Mode string `json:"mode"`
	// Query is a conjunctive query, e.g. "Ans(n) :- Emp(i, n)".
	Query string `json:"query"`
	// Tuple, when set, asks for that single candidate answer; empty
	// means every tuple of Q(D). Boolean queries use the empty tuple.
	Tuple string `json:"tuple,omitempty"`
	// HasTuple forces single-tuple semantics even for the empty tuple
	// of a Boolean query.
	HasTuple bool `json:"has_tuple,omitempty"`

	// Approx parameters (defaults mirror ocqa.ApproxOptions).
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	Force      bool    `json:"force,omitempty"`

	// Limit bounds the exact engines' state budget; it is clamped to
	// the server's -exact-limit cap (0 means "server cap").
	Limit int `json:"limit,omitempty"`
}

// Answer is one tuple with its exact or estimated probability.
type Answer struct {
	Tuple []string `json:"tuple"`
	// Prob is the exact rational ("1/3"); empty for estimates.
	Prob string `json:"prob,omitempty"`
	// Value is the probability as a float (exact value or estimate).
	Value float64 `json:"value"`
	// Estimate metadata (approx mode only).
	Samples   int   `json:"samples,omitempty"`
	Converged *bool `json:"converged,omitempty"`
}

// CostInfo is the per-request cost accounting embedded in every query,
// batch-element, count and marginals response. For sampling runs the
// draw fields come from the engine's own accounting; exact engines
// report zero draws and the handler-measured wall time.
type CostInfo struct {
	// Draws is the number of Monte-Carlo repair draws the computation
	// consumed, discarded parallel tails included (0 for exact engines;
	// on a cache hit, the draws the cached computation originally spent).
	Draws int64 `json:"draws"`
	// Chunks counts the rounds the draw loop ran (one context check
	// each, at most engine.Chunk draws per worker).
	Chunks int64 `json:"chunks,omitempty"`
	// ReusedDraws counts draws whose statistics were carried over from a
	// previous generation's strata by the delta-stratified estimator
	// instead of being redrawn. Draws stays the fresh work of this
	// request, so Draws + ReusedDraws is the statistical weight behind
	// the estimate.
	ReusedDraws int64 `json:"reused_draws,omitempty"`
	// Workers is the parallel fan-out of the sampling pass (0 when no
	// sampling ran).
	Workers int `json:"workers"`
	// PerWorkerDraws is the per-worker draw split of a parallel pass.
	PerWorkerDraws []int64 `json:"per_worker_draws,omitempty"`
	// WallSeconds is the handler-measured wall time of this request's
	// computation — the cache lookup, when Cached.
	WallSeconds float64 `json:"wall_seconds"`
	// Cached reports whether the response was served from the result
	// cache without executing any engine.
	Cached bool `json:"cached"`
	// Cancelled marks partial accounting from a run stopped by the
	// server deadline or a client disconnect.
	Cancelled bool `json:"cancelled,omitempty"`
}

// ExplainInfo is the per-query introspection payload a request opts
// into with ?explain=1: the pre-sampling plan (route, worst-case draw
// budget for the requested (ε, δ), budget_capped verdict), the phase
// spans the execution recorded, and the convergence curve of its draw
// loop. Predicted-vs-actual comparison is Plan.PredictedDraws against
// ActualDraws. Explain is presentation, not identity: it never enters
// the result-cache key, and a cache hit answers with the zero-draw
// cached plan instead of the original run's trace.
type ExplainInfo struct {
	Plan ocqa.QueryPlan `json:"plan"`
	// Spans are the execution's named phases (compile, plan, sample:*,
	// aa:phase*), with nanosecond offsets on the trace's own timeline.
	Spans []ocqa.TraceSpan `json:"spans,omitempty"`
	// Convergence is the draw loop's checkpoint curve: draws-so-far,
	// running estimate, distribution-free CI half-width. Deterministic
	// for a fixed (seed, workers) pair.
	Convergence []ocqa.TraceCheckpoint `json:"convergence,omitempty"`
	// ActualDraws is what the run really spent (0 for exact engines and
	// cache hits) — compare against Plan.PredictedDraws.
	ActualDraws int64 `json:"actual_draws"`
}

// QueryResponse is the result of one query execution.
type QueryResponse struct {
	Instance  string   `json:"instance"`
	Generator string   `json:"generator"`
	Mode      string   `json:"mode"`
	Query     string   `json:"query"`
	Answers   []Answer `json:"answers"`
	// Approximability echoes the matrix verdict with its citation.
	Approximability string `json:"approximability"`
	Citation        string `json:"citation"`
	// Cached is true when the response was served from the result
	// cache without executing any engine.
	Cached bool `json:"cached"`
	// Cost is the request's cost accounting.
	Cost *CostInfo `json:"cost,omitempty"`
	// Explain is the introspection payload, present only with ?explain=1.
	Explain *ExplainInfo `json:"explain,omitempty"`
}

// WatchResponse is the body of a successful GET .../watch long-poll:
// the instance generation that satisfied the watch and the query result
// computed against it. A watch that sees no mutation within the wait
// window answers 204 No Content instead.
type WatchResponse struct {
	// Gen is the instance's mutation generation the result reflects;
	// pass it back as ?since= to wait for the next change.
	Gen    int64          `json:"gen"`
	Result *QueryResponse `json:"result"`
}

// BatchRequest is the body of POST .../batch.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResult pairs a batch element (by its request index) with its
// result or error; Status is the HTTP status the same request would
// have received at the query endpoint.
type BatchResult struct {
	Index  int            `json:"index"`
	Status int            `json:"status"`
	Result *QueryResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// BatchResponse lists the results in request order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// CountRequest is the body of POST .../repairs/count.
type CountRequest struct {
	// Singleton selects |CORep^1| / |CRS^1|.
	Singleton bool `json:"singleton,omitempty"`
	// Sequences counts complete repairing sequences (|CRS|) instead of
	// candidate repairs (|CORep|).
	Sequences bool `json:"sequences,omitempty"`
	// Limit bounds the exponential fallback for non-primary-key CRS
	// counting (clamped to the server cap).
	Limit int `json:"limit,omitempty"`
}

// CountResponse carries the (possibly astronomically large) count as a
// decimal string.
type CountResponse struct {
	Count     string `json:"count"`
	Singleton bool   `json:"singleton"`
	Sequences bool   `json:"sequences"`
	// Cost is the request's cost accounting (exact counting performs no
	// draws; the wall time is the interesting part).
	Cost *CostInfo `json:"cost,omitempty"`
	// Explain is the introspection payload, present only with ?explain=1.
	Explain *ExplainInfo `json:"explain,omitempty"`
}

// MarginalsRequest is the body of POST .../marginals.
type MarginalsRequest struct {
	Generator string `json:"generator"`
	Singleton bool   `json:"singleton,omitempty"`
	// Mode is "exact" or "approx".
	Mode string `json:"mode"`
	// Exact state budget (clamped to the server cap).
	Limit int `json:"limit,omitempty"`
	// Approx parameters; MaxSamples is the exact draw count
	// (default 100,000). Workers parallelises the draw loop (clamped
	// to the server's batch pool size); estimates are deterministic in
	// (seed, workers).
	Seed       int64 `json:"seed,omitempty"`
	MaxSamples int   `json:"max_samples,omitempty"`
	Workers    int   `json:"workers,omitempty"`
	Force      bool  `json:"force,omitempty"`
}

// FactMarginal is one fact's survival probability.
type FactMarginal struct {
	Fact  string  `json:"fact"`
	Prob  string  `json:"prob,omitempty"`
	Value float64 `json:"value"`
}

// MarginalsResponse lists per-fact marginals in database fact order.
type MarginalsResponse struct {
	Instance  string         `json:"instance"`
	Generator string         `json:"generator"`
	Mode      string         `json:"mode"`
	Marginals []FactMarginal `json:"marginals"`
	// Cost is the request's cost accounting.
	Cost *CostInfo `json:"cost,omitempty"`
	// Explain is the introspection payload, present only with ?explain=1.
	Explain *ExplainInfo `json:"explain,omitempty"`
}

// SemanticsRequest is the body of POST .../semantics.
type SemanticsRequest struct {
	Generator string `json:"generator"`
	Singleton bool   `json:"singleton,omitempty"`
	Limit     int    `json:"limit,omitempty"`
}

// RepairEntry is one operational repair with its probability.
type RepairEntry struct {
	Facts []string `json:"facts"`
	Prob  string   `json:"prob"`
	Value float64  `json:"value"`
}

// SemanticsResponse is the exact distribution [[D]]_M over repairs.
type SemanticsResponse struct {
	Instance  string        `json:"instance"`
	Generator string        `json:"generator"`
	Repairs   []RepairEntry `json:"repairs"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the X-Request-Id response header so failures can
	// be correlated with the access log from the body alone.
	RequestID string `json:"request_id,omitempty"`
	// Cost carries the accounting of a computation that ran and was
	// stopped early (deadline, disconnect): the draws already spent are
	// real work, visible here rather than silently discarded.
	Cost *CostInfo `json:"cost,omitempty"`
	// Partial lists the per-tuple estimates a cancelled estimation had
	// computed when it stopped — below the requested (ε, δ), but often
	// still informative.
	Partial []Answer `json:"partial,omitempty"`
}
