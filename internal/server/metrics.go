package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	ocqa "repro"
	"repro/internal/buildinfo"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sampler"
)

// serverMetrics is the server's metrics core: every operational counter
// lives in one metrics.Registry, so the same registered values feed the
// back-compatible JSON /varz snapshot and the Prometheus text at
// GET /metrics. Handler hot paths touch pre-resolved handles (one
// atomic op each); anything derivable from live state — registry size,
// cache occupancy, per-instance gauges, store stats — is read at
// scrape time instead, via func metrics and the collect hook.
type serverMetrics struct {
	reg *metrics.Registry

	queriesServed  *metrics.Counter
	exactQueries   *metrics.Counter
	approxQueries  *metrics.Counter
	answersQueries *metrics.Counter
	answerTuples   *metrics.Counter
	batchRequests  *metrics.Counter
	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	refusals       *metrics.Counter
	timeouts       *metrics.Counter
	errors         *metrics.Counter
	sampleDraws    *metrics.Counter
	registered     *metrics.Counter
	mutations      *metrics.Counter
	evictions      *metrics.Counter
	// cacheRefreshes counts result-cache entries delta-refreshed in
	// place after a mutation; deltaRefreshLatency is the per-entry
	// refresh latency (the mutate-then-requery cost a client no longer
	// pays).
	cacheRefreshes      *metrics.Counter
	deltaRefreshLatency *metrics.Histogram

	// Replication counters: feed pulls served as an owner, incremental
	// ops and full-state transfers applied as a follower, replicas
	// promoted into the live registry, and query-path requests shed by
	// the inflight gate.
	replFeeds     *metrics.Counter
	replApplied   *metrics.Counter
	replFullSyncs *metrics.Counter
	replPromotes  *metrics.Counter
	shedRequests  *metrics.Counter

	// Per-endpoint request observability, fed by ServeHTTP for every
	// request (the classified endpoint label keeps cardinality fixed).
	httpRequests *metrics.CounterVec   // endpoint, code
	httpLatency  *metrics.HistogramVec // endpoint

	// Engine run histograms, fed by the engine's run hook: one
	// observation per estimation run, cancelled runs included.
	engineDraws *metrics.Histogram
	engineWall  *metrics.Histogram

	// Empirical (ε, δ)-envelope coverage: an approx single-tuple result
	// whose exact counterpart is in the result cache is checked against
	// |est − v| ≤ ε·v and counted per instance.
	coverageChecks *metrics.CounterVec // instance
	coverageWithin *metrics.CounterVec // instance

	// Per-instance gauges, rebuilt from the registry at every scrape.
	instFacts     *metrics.GaugeVec // instance
	instBlocks    *metrics.GaugeVec
	instConflicts *metrics.GaugeVec
	instGen       *metrics.GaugeVec
	instRuns      *metrics.GaugeVec
	instDraws     *metrics.GaugeVec
	instWall      *metrics.GaugeVec
}

// latencyBuckets spans 1 ms – ~65 s in ×4 steps: wide enough for both
// cache hits and near-deadline estimations, cheap enough to render.
func latencyBuckets() []float64 { return metrics.ExponentialBuckets(0.001, 4, 9) }

func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.New()
	m := &serverMetrics{reg: r}

	m.queriesServed = r.NewCounter("ocqa_queries_served_total",
		"Requests served by the query, batch-element, count and marginals paths.")
	m.exactQueries = r.NewCounter("ocqa_exact_queries_total", "Queries executed by the exact engines.")
	m.approxQueries = r.NewCounter("ocqa_approx_queries_total", "Queries executed by the estimation engines.")
	m.answersQueries = r.NewCounter("ocqa_answers_queries_total",
		"Queries executed in all-answers shape (every tuple of Q(D) in one computation).")
	m.answerTuples = r.NewCounter("ocqa_answer_tuples_total", "Tuples returned by all-answers queries.")
	m.batchRequests = r.NewCounter("ocqa_batch_requests_total", "Batch requests accepted.")
	m.cacheHits = r.NewCounter("ocqa_result_cache_hits_total", "Query executions served from the result cache.")
	m.cacheMisses = r.NewCounter("ocqa_result_cache_misses_total", "Query executions that missed the result cache.")
	m.refusals = r.NewCounter("ocqa_refusals_total", "Requests refused by the approximability matrix or a state budget (HTTP 422).")
	m.timeouts = r.NewCounter("ocqa_timeouts_total", "Requests that exceeded the server deadline (HTTP 504).")
	m.errors = r.NewCounter("ocqa_errors_total", "Requests failed with any other error status.")
	m.sampleDraws = r.NewCounter("ocqa_sample_draws_total",
		"Monte-Carlo draws accounted at the handler level (shared passes count their longest prefix once).")
	m.registered = r.NewCounter("ocqa_instances_registered_total", "Instance registrations over the server's lifetime.")
	m.mutations = r.NewCounter("ocqa_fact_mutations_total", "Applied insert-fact and delete-fact operations.")
	m.evictions = r.NewCounter("ocqa_instance_evictions_total", "Instances evicted by over-capacity registrations.")
	m.cacheRefreshes = r.NewCounter("ocqa_result_cache_delta_refreshes_total",
		"Result-cache entries re-executed against the post-mutation generation and re-cached in place.")
	m.deltaRefreshLatency = r.NewHistogram("ocqa_delta_refresh_seconds",
		"Latency of one result-cache entry's delta-refresh after a fact mutation.",
		metrics.ExponentialBuckets(0.0001, 4, 10))

	m.replFeeds = r.NewCounter("ocqa_replication_feeds_total",
		"Replication feed pulls served to follower backends.")
	m.replApplied = r.NewCounter("ocqa_replication_ops_applied_total",
		"Incremental mutation ops applied to local replicas.")
	m.replFullSyncs = r.NewCounter("ocqa_replication_full_syncs_total",
		"Replica syncs that fell back to a full-state transfer.")
	m.replPromotes = r.NewCounter("ocqa_replication_promotions_total",
		"Replicas promoted into the live registry (failovers).")
	m.shedRequests = r.NewCounter("ocqa_shed_requests_total",
		"Query-path requests shed with HTTP 503 by the inflight load gate.")

	m.httpRequests = r.NewCounterVec("ocqa_http_requests_total",
		"HTTP requests by classified endpoint and status code.", "endpoint", "code")
	m.httpLatency = r.NewHistogramVec("ocqa_http_request_duration_seconds",
		"HTTP request latency by classified endpoint.", latencyBuckets(), "endpoint")

	m.engineDraws = r.NewHistogram("ocqa_engine_run_draws",
		"Monte-Carlo draws per estimation run (discarded parallel tails included).",
		metrics.ExponentialBuckets(256, 4, 10))
	m.engineWall = r.NewHistogram("ocqa_engine_run_duration_seconds",
		"Wall time per estimation run.", metrics.ExponentialBuckets(0.0001, 4, 10))

	m.coverageChecks = r.NewCounterVec("ocqa_coverage_checks_total",
		"Approx results compared against a cached exact counterpart.", "instance")
	m.coverageWithin = r.NewCounterVec("ocqa_coverage_within_total",
		"Compared approx results that landed inside their (epsilon, delta) envelope.", "instance")

	m.instFacts = r.NewGaugeVec("ocqa_instance_facts", "Facts in the instance's database.", "instance")
	m.instBlocks = r.NewGaugeVec("ocqa_instance_blocks",
		"Non-singleton conflict blocks (present only once the sampler artifacts are built).", "instance")
	m.instConflicts = r.NewGaugeVec("ocqa_instance_conflict_pairs", "Conflicting fact pairs.", "instance")
	m.instGen = r.NewGaugeVec("ocqa_instance_generation", "Mutation generation (1 at registration).", "instance")
	m.instRuns = r.NewGaugeVec("ocqa_instance_estimation_runs", "Estimation runs served by the instance's current generation.", "instance")
	m.instDraws = r.NewGaugeVec("ocqa_instance_estimation_draws", "Monte-Carlo draws consumed by the instance's current generation.", "instance")
	m.instWall = r.NewGaugeVec("ocqa_instance_estimation_seconds", "Estimation wall time spent on the instance's current generation.", "instance")

	// The info-gauge idiom: a constant 1 whose labels identify the
	// running binary, joinable against any other series. The fields
	// mirror the provenance stamp ocqa-bench writes into BENCH_*.json,
	// so a scrape and a bench file name builds the same way.
	buildInfo := r.NewGaugeVec("ocqa_build_info",
		"Build identity of the running binary (constant 1; the labels carry the information).",
		"git_commit", "go_version", "gomaxprocs")
	buildInfo.With(buildinfo.Commit(), buildinfo.GoVersion(), strconv.Itoa(buildinfo.MaxProcs())).Set(1)

	r.NewGaugeFunc("ocqa_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.NewGaugeFunc("ocqa_instances", "Instances currently registered.",
		func() float64 { return float64(s.reg.len()) })
	r.NewGaugeFunc("ocqa_replicas", "Warm follower replicas currently held.",
		func() float64 { return float64(len(s.repl.listReplicas())) })
	r.NewGaugeFunc("ocqa_result_cache_entries", "Entries in the result cache.",
		func() float64 { return float64(s.cache.len()) })
	r.NewCounterFunc("ocqa_result_cache_evictions_total", "Result-cache entries evicted by the LRU capacity bound.",
		func() float64 { return float64(s.cache.evicted()) })
	r.NewCounterFunc("ocqa_sampler_constructions_total", "DP-table sampler constructions process-wide.",
		func() float64 { return float64(sampler.Constructions()) })
	r.NewCounterFunc("ocqa_engine_samples_drawn_total", "Monte-Carlo draws performed by the estimation engine process-wide.",
		func() float64 { return float64(engine.SamplesDrawn()) })
	r.NewCounterFunc("ocqa_engine_cancelled_runs_total", "Estimation runs stopped early by context cancellation.",
		func() float64 { return float64(engine.CancelledRuns()) })
	r.NewCounterFunc("ocqa_engine_multi_runs_total", "Shared-draw multi-target estimation passes.",
		func() float64 { return float64(engine.MultiRuns()) })
	r.NewCounterFunc("ocqa_engine_multi_targets_total", "Answer tuples served by shared-draw passes.",
		func() float64 { return float64(engine.MultiTargets()) })
	r.NewCounterFunc("ocqa_engine_auto_worker_runs_total", "Estimation runs whose worker count was resolved adaptively.",
		func() float64 { return float64(engine.AutoWorkerRuns()) })
	r.NewCounterFunc("ocqa_delta_refreshes_total", "Warm delta-path evaluations served by the incremental estimation layer process-wide.",
		func() float64 { return float64(ocqa.DeltaRefreshes()) })
	r.NewCounterFunc("ocqa_delta_factor_cache_hits_total", "Per-block exact factor cache hits in the delta estimation layer.",
		func() float64 { return float64(ocqa.DeltaFactorCacheHits()) })
	r.NewCounterFunc("ocqa_delta_factor_cache_misses_total", "Per-block exact factor cache misses (factors recomputed) in the delta estimation layer.",
		func() float64 { return float64(ocqa.DeltaFactorCacheMisses()) })
	r.NewCounterFunc("ocqa_delta_reused_draws_total", "Monte-Carlo draws whose statistics were reused from a previous generation's strata instead of being redrawn.",
		func() float64 { return float64(ocqa.DeltaReusedDraws()) })
	r.NewGaugeFunc("ocqa_engine_last_auto_workers", "Worker count chosen by the most recent adaptive resolution.",
		func() float64 { return float64(engine.LastAutoWorkers()) })

	if s.store != nil {
		r.NewCounterFunc("ocqa_store_wal_appends_total", "WAL append batches.",
			func() float64 { return float64(s.store.Stats().WalAppends) })
		r.NewCounterFunc("ocqa_store_wal_records_total", "WAL records written.",
			func() float64 { return float64(s.store.Stats().WalRecords) })
		r.NewCounterFunc("ocqa_store_snapshots_total", "Snapshots written.",
			func() float64 { return float64(s.store.Stats().Snapshots) })
		r.NewCounterFunc("ocqa_store_replayed_ops_total", "Operations replayed at boot.",
			func() float64 { return float64(s.store.Stats().ReplayedOps) })
		r.NewCounterFunc("ocqa_store_compactions_total", "Log compactions performed.",
			func() float64 { return float64(s.store.Stats().Compactions) })
	}

	r.OnCollect(s.collectInstanceGauges)
	return m
}

// collectInstanceGauges rebuilds the per-instance gauge families from
// the current registry — deregistered instances drop out of the scrape
// rather than freezing at their last value. BlockCount deliberately
// never forces a deferred sampler build: a metrics scrape must stay
// read-only.
func (s *Server) collectInstanceGauges() {
	m := s.met
	for _, v := range []*metrics.GaugeVec{
		m.instFacts, m.instBlocks, m.instConflicts, m.instGen,
		m.instRuns, m.instDraws, m.instWall,
	} {
		v.Reset()
	}
	for _, e := range s.reg.list() {
		in := e.prepared
		m.instFacts.With(e.id).Set(float64(in.DB().Len()))
		m.instConflicts.With(e.id).Set(float64(len(in.Core().ConflictPairs())))
		m.instGen.With(e.id).Set(float64(e.gen))
		if n, ok := e.prepared.BlockCount(); ok {
			m.instBlocks.With(e.id).Set(float64(n))
		}
		u := e.prepared.Usage()
		m.instRuns.With(e.id).Set(float64(u.Runs))
		m.instDraws.With(e.id).Set(float64(u.Draws))
		m.instWall.With(e.id).Set(time.Duration(u.WallNanos).Seconds())
	}
}

// varz is the JSON shape of GET /varz. The original field set is a
// compatibility contract — dashboards read it — so fields are only ever
// added, and every value is sourced from the same registry handles that
// feed GET /metrics.
type varz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Instances     int     `json:"instances"`
	CacheEntries  int     `json:"cache_entries"`

	// Build identifies the running binary — the same fields ocqa-bench
	// stamps into BENCH_*.json, so a /varz snapshot and a bench file can
	// be matched to the same build.
	Build buildVarz `json:"build"`

	QueriesServed int64 `json:"queries_served"`
	ExactQueries  int64 `json:"exact_queries"`
	ApproxQueries int64 `json:"approx_queries"`
	// AnswersQueries counts queries executed in all-answers shape (no
	// explicit tuple): every tuple of Q(D) served by one computation.
	// AnswerTuples totals the tuples those queries returned.
	AnswersQueries int64 `json:"answers_queries"`
	AnswerTuples   int64 `json:"answer_tuples"`
	BatchRequests  int64 `json:"batch_requests"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Refusals       int64 `json:"refusals"`
	Timeouts       int64 `json:"timeouts"`
	Errors         int64 `json:"errors"`
	// SampleDraws totals the Monte-Carlo draws consumed by approx
	// queries and marginals.
	SampleDraws int64 `json:"sample_draws"`
	// InstancesRegistered counts registrations over the server's
	// lifetime (deletions do not decrement it).
	InstancesRegistered int64 `json:"instances_registered"`
	// FactMutations counts applied insert-fact/delete-fact operations.
	FactMutations int64 `json:"fact_mutations"`
	// Evictions counts LRU evictions performed by over-capacity
	// registrations.
	Evictions int64 `json:"evictions"`
	// SamplerConstructions counts DP-table sampler constructions
	// process-wide; with prepared instances it moves at registration
	// time only, never per query.
	SamplerConstructions int64 `json:"sampler_constructions"`

	// EngineSamplesDrawn counts Monte-Carlo draws performed by the
	// estimation engine process-wide, partial draws of cancelled runs
	// included (unlike SampleDraws, which accounts requested budgets at
	// the handler level).
	EngineSamplesDrawn int64 `json:"engine_samples_drawn"`
	// EngineCancelledRuns counts estimation runs stopped early by
	// context cancellation (server deadline or client disconnect) —
	// each one is sampling work that no longer burns a worker to
	// completion.
	EngineCancelledRuns int64 `json:"engine_cancelled_runs"`
	// EngineMultiRuns counts shared-draw multi-target estimation
	// passes (one per all-answers approximation); EngineMultiTargets
	// totals the answer tuples those passes served, so
	// EngineMultiTargets/EngineMultiRuns is the mean fan-out a single
	// Monte-Carlo pass amortised.
	EngineMultiRuns    int64 `json:"engine_multi_runs"`
	EngineMultiTargets int64 `json:"engine_multi_targets"`
	// EngineAutoWorkerRuns counts estimation runs whose worker count
	// was resolved adaptively (request had workers ≤ 0);
	// EngineLastAutoWorkers is the count the most recent such
	// resolution chose, so an operator can see what "auto" currently
	// means on this host and workload.
	EngineAutoWorkerRuns  int64 `json:"engine_auto_worker_runs"`
	EngineLastAutoWorkers int64 `json:"engine_last_auto_workers"`

	// ResultCacheEvictions counts result-cache entries dropped by the
	// LRU capacity bound (instance-scoped invalidations not included).
	ResultCacheEvictions int64 `json:"result_cache_evictions"`
	// DeltaRefreshes counts warm delta-path evaluations served by the
	// incremental estimation layer (library-wide). DeltaFactorCacheHits
	// and DeltaFactorCacheMisses split the per-block exact factor cache
	// lookups behind them; DeltaReusedDraws totals the Monte-Carlo draws
	// whose statistics were carried over from a previous generation's
	// strata instead of being redrawn. CacheDeltaRefreshes counts
	// result-cache entries the server re-executed and re-cached in place
	// after a mutation.
	DeltaRefreshes         int64 `json:"delta_refreshes"`
	DeltaFactorCacheHits   int64 `json:"delta_factor_cache_hits"`
	DeltaFactorCacheMisses int64 `json:"delta_factor_cache_misses"`
	DeltaReusedDraws       int64 `json:"delta_reused_draws"`
	CacheDeltaRefreshes    int64 `json:"result_cache_delta_refreshes"`
	// Replication: ReplFeeds counts feed pulls served to followers,
	// ReplApplied incremental mutations applied to local replicas,
	// ReplFullSyncs syncs that fell back to a full-state transfer,
	// ReplPromotes replicas promoted into the live registry (failovers),
	// Replicas the warm replicas currently held, and ShedRequests
	// query-path requests shed with 503 by the inflight load gate.
	ReplFeeds     int64 `json:"replication_feeds"`
	ReplApplied   int64 `json:"replication_ops_applied"`
	ReplFullSyncs int64 `json:"replication_full_syncs"`
	ReplPromotes  int64 `json:"replication_promotions"`
	Replicas      int   `json:"replicas"`
	ShedRequests  int64 `json:"shed_requests"`
	// CoverageChecks / CoverageWithin total the empirical
	// (ε, δ)-envelope checks across instances: approx results compared
	// against a cached exact counterpart, and how many landed within
	// ε relative error.
	CoverageChecks int64 `json:"coverage_checks"`
	CoverageWithin int64 `json:"coverage_within"`
	// EndpointLatency summarises the per-endpoint request histograms;
	// endpoints that have served no requests are omitted.
	EndpointLatency map[string]endpointLatency `json:"endpoint_latency,omitempty"`

	// Persistence counters, all zero when the server runs without a
	// durable store (-data-dir unset).
	Persistent  bool  `json:"persistent"`
	WalAppends  int64 `json:"wal_appends"`
	WalRecords  int64 `json:"wal_records"`
	Snapshots   int64 `json:"snapshots"`
	ReplayedOps int64 `json:"replayed_ops"`
	Compactions int64 `json:"compactions"`
}

// buildVarz is the build-identity object in /varz.
type buildVarz struct {
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// endpointLatency is one endpoint's latency summary in /varz.
type endpointLatency struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	m := s.met
	v := varz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Instances:     s.reg.len(),
		CacheEntries:  s.cache.len(),
		Build: buildVarz{
			GitCommit:  buildinfo.Commit(),
			GoVersion:  buildinfo.GoVersion(),
			NumCPU:     buildinfo.NumCPU(),
			GoMaxProcs: buildinfo.MaxProcs(),
		},
		QueriesServed:          m.queriesServed.Value(),
		ExactQueries:           m.exactQueries.Value(),
		ApproxQueries:          m.approxQueries.Value(),
		AnswersQueries:         m.answersQueries.Value(),
		AnswerTuples:           m.answerTuples.Value(),
		BatchRequests:          m.batchRequests.Value(),
		CacheHits:              m.cacheHits.Value(),
		CacheMisses:            m.cacheMisses.Value(),
		Refusals:               m.refusals.Value(),
		Timeouts:               m.timeouts.Value(),
		Errors:                 m.errors.Value(),
		SampleDraws:            m.sampleDraws.Value(),
		InstancesRegistered:    m.registered.Value(),
		FactMutations:          m.mutations.Value(),
		Evictions:              m.evictions.Value(),
		SamplerConstructions:   sampler.Constructions(),
		EngineSamplesDrawn:     engine.SamplesDrawn(),
		EngineCancelledRuns:    engine.CancelledRuns(),
		EngineMultiRuns:        engine.MultiRuns(),
		EngineMultiTargets:     engine.MultiTargets(),
		EngineAutoWorkerRuns:   engine.AutoWorkerRuns(),
		EngineLastAutoWorkers:  engine.LastAutoWorkers(),
		ResultCacheEvictions:   s.cache.evicted(),
		DeltaRefreshes:         ocqa.DeltaRefreshes(),
		DeltaFactorCacheHits:   ocqa.DeltaFactorCacheHits(),
		DeltaFactorCacheMisses: ocqa.DeltaFactorCacheMisses(),
		DeltaReusedDraws:       ocqa.DeltaReusedDraws(),
		CacheDeltaRefreshes:    m.cacheRefreshes.Value(),
		ReplFeeds:              m.replFeeds.Value(),
		ReplApplied:            m.replApplied.Value(),
		ReplFullSyncs:          m.replFullSyncs.Value(),
		ReplPromotes:           m.replPromotes.Value(),
		Replicas:               len(s.repl.listReplicas()),
		ShedRequests:           m.shedRequests.Value(),
	}
	m.coverageChecks.Each(func(_ []string, n int64) { v.CoverageChecks += n })
	m.coverageWithin.Each(func(_ []string, n int64) { v.CoverageWithin += n })
	m.httpLatency.Each(func(labels []string, h *metrics.Histogram) {
		if h.Count() == 0 {
			return // Quantile is NaN on an empty histogram, which JSON cannot carry
		}
		if v.EndpointLatency == nil {
			v.EndpointLatency = make(map[string]endpointLatency)
		}
		v.EndpointLatency[labels[0]] = endpointLatency{
			Count: h.Count(),
			P50:   h.Quantile(0.5),
			P90:   h.Quantile(0.9),
			P99:   h.Quantile(0.99),
		}
	})
	if s.store != nil {
		st := s.store.Stats()
		v.Persistent = true
		v.WalAppends = st.WalAppends
		v.WalRecords = st.WalRecords
		v.Snapshots = st.Snapshots
		v.ReplayedOps = st.ReplayedOps
		v.Compactions = st.Compactions
	}
	writeJSON(w, http.StatusOK, v)
}

// handleMetrics serves the registry in the Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
