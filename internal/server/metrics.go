package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/metrics"
	"repro/internal/store"
)

// serverMetrics is the server's own metrics registry and the handles
// its handlers update. GET /metrics renders it beside metrics.Process,
// the process-wide engine, sampler and delta series, and GET /varz is
// rendered from the same two registries. Handler hot paths touch
// pre-resolved handles (one atomic op each); anything derivable from
// live state — registry size, cache occupancy, per-instance gauges,
// store stats — is read at scrape time instead, via func metrics and
// the collect hook.
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
		"Latency of one result-cache entry's delta-refresh after a fact mutation.")

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
		"HTTP request latency by classified endpoint.", "endpoint")

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
	if s.store != nil {
		for _, ss := range storeSeries {
			fn := func() float64 { return float64(ss.stat(s.store.Stats())) }
			if ss.gauge {
				r.NewGaugeFunc(ss.name, ss.help, fn)
			} else {
				r.NewCounterFunc(ss.name, ss.help, fn)
			}
		}
	}

	r.OnCollect(s.collectInstanceGauges)
	return m
}

// storeSeries are the durable store's counters and its one gauge, the
// WAL records a compaction has yet to fold into a snapshot. Only a
// server with a store registers them; a memory-only server's /varz
// reads their keys as 0.
var storeSeries = []struct {
	name, help string
	gauge      bool
	stat       func(store.Stats) int64
}{
	{"ocqa_store_wal_appends_total", "WAL append batches.", false, func(st store.Stats) int64 { return st.WalAppends }},
	{"ocqa_store_wal_records", "WAL records not yet folded into a snapshot.", true, func(st store.Stats) int64 { return st.WalRecords }},
	{"ocqa_store_snapshots_total", "Snapshots written.", false, func(st store.Stats) int64 { return st.Snapshots }},
	{"ocqa_store_replayed_ops_total", "Operations replayed at boot.", false, func(st store.Stats) int64 { return st.ReplayedOps }},
	{"ocqa_store_compactions_total", "Log compactions performed.", false, func(st store.Stats) int64 { return st.Compactions }},
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
		m.instConflicts.With(e.id).Set(float64(in.Core().ConflictPairCount()))
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

// endpointLatency is one endpoint's latency summary in /varz.
type endpointLatency struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// handleVarz serves GET /varz: every unlabelled series of the server's
// registry and of metrics.Process under its metrics.VarzKey, plus what
// no single series holds — the build identity (the fields ocqa-bench
// stamps into BENCH_*.json), whether the server is durable, the
// coverage counters summed over instances, and the per-endpoint latency
// summaries of the endpoints that have served a request. The key set is
// a compatibility contract: dashboards read it.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	m := s.met
	v := metrics.Varz(m.reg, metrics.Process)
	v["build"] = map[string]any{
		"git_commit": buildinfo.Commit(),
		"go_version": buildinfo.GoVersion(),
		"num_cpu":    buildinfo.NumCPU(),
		"gomaxprocs": buildinfo.MaxProcs(),
	}
	v["persistent"] = s.store != nil
	if s.store == nil {
		for _, ss := range storeSeries {
			v[metrics.VarzKey(ss.name)] = 0
		}
	}
	var checks, within int64
	m.coverageChecks.Each(func(_ []string, n int64) { checks += n })
	m.coverageWithin.Each(func(_ []string, n int64) { within += n })
	v["coverage_checks"], v["coverage_within"] = checks, within
	latency := map[string]endpointLatency{}
	m.httpLatency.Each(func(labels []string, h *metrics.Histogram) {
		if h.Count() == 0 {
			return // Quantile is NaN on an empty histogram, which JSON cannot carry
		}
		latency[labels[0]] = endpointLatency{
			Count: h.Count(),
			P50:   h.Quantile(0.5),
			P90:   h.Quantile(0.9),
			P99:   h.Quantile(0.99),
		}
	})
	if len(latency) > 0 {
		v["endpoint_latency"] = latency
	}
	writeJSON(w, http.StatusOK, v)
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
