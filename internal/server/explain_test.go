package server

// Tests for the per-query introspection surface: ?explain=1 plans and
// traces on the query/batch/count/marginals endpoints, the cached
// zero-draw explain, the /debug/queries flight recorder (bounded under
// concurrent load, gated off by default), the -slow-query log, and the
// build-info identity on /varz and /metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	ocqa "repro"
)

// postExplainQuery posts one query with ?explain=1 and decodes the
// response.
func postExplainQuery(t *testing.T, base, id string, req QueryRequest) QueryResponse {
	t.Helper()
	var resp QueryResponse
	status := do(t, http.MethodPost, base+"/v1/instances/"+id+"/query?explain=1", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("explain query: status %d", status)
	}
	return resp
}

// TestExplainQuery is the endpoint e2e: with ?explain=1 an approx
// query returns the pre-sampling plan, the phase spans and the
// convergence curve; without it the response carries no explain
// payload at all (trace off by default). The sampling run is M^us; the
// M^ur query on the same primary-key instance is factorized — the
// zero-draw delta-exact route.
func TestExplainQuery(t *testing.T) {
	ts, _ := newTestServer(t, Options{CacheSize: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	req := QueryRequest{
		Generator: "us", Mode: "approx",
		Query:   "Ans() :- Emp(1, 'Alice')",
		Epsilon: 0.2, Delta: 0.1, Seed: 5,
	}

	var plain QueryResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", req, &plain); status != http.StatusOK {
		t.Fatalf("plain query: status %d", status)
	}
	if plain.Explain != nil {
		t.Fatalf("response without ?explain=1 carries an explain payload: %+v", plain.Explain)
	}

	resp := postExplainQuery(t, ts.URL, reg.ID, req)
	ex := resp.Explain
	if ex == nil {
		t.Fatal("?explain=1 response carries no explain payload")
	}
	if ex.Plan.Route != ocqa.RouteDKLR {
		t.Fatalf("plan route = %q, want %q", ex.Plan.Route, ocqa.RouteDKLR)
	}
	if ex.Plan.PredictedDraws <= 0 || ex.Plan.RequiredDraws < ex.Plan.PredictedDraws {
		t.Fatalf("implausible plan budget: %+v", ex.Plan)
	}
	if ex.ActualDraws <= 0 {
		t.Fatalf("explain reports %d actual draws for a sampling run", ex.ActualDraws)
	}
	if len(ex.Convergence) == 0 {
		t.Fatal("explain carries no convergence curve")
	}
	last := ex.Convergence[len(ex.Convergence)-1]
	if last.Draws <= 0 || last.HalfWidth <= 0 {
		t.Fatalf("malformed terminal checkpoint: %+v", last)
	}
	var sawPlan, sawSample bool
	for _, sp := range ex.Spans {
		if sp.Name == "plan" {
			sawPlan = true
		}
		if strings.HasPrefix(sp.Name, "sample:") {
			sawSample = true
		}
	}
	if !sawPlan || !sawSample {
		t.Fatalf("spans missing plan/sample phases: %+v", ex.Spans)
	}

	req.Generator = "ur"
	ex = postExplainQuery(t, ts.URL, reg.ID, req).Explain
	if ex == nil {
		t.Fatal("?explain=1 response carries no explain payload")
	}
	if ex.Plan.Route != ocqa.RouteDeltaExact || ex.Plan.PredictedDraws != 0 || ex.Plan.RequiredDraws != 0 || ex.ActualDraws != 0 {
		t.Fatalf("M^ur explain = %+v, want the delta-exact route with 0 predicted and actual draws", ex)
	}
	spans := map[string]bool{}
	for _, sp := range ex.Spans {
		spans[sp.Name] = true
	}
	if !spans["compile"] || !spans["delta-refresh"] {
		t.Fatalf("M^ur spans missing compile/delta-refresh: %+v", ex.Spans)
	}
}

// TestExplainDeterministicCurve: for a fixed (seed, workers) pair the
// convergence curve is bitwise-identical across two (uncached) runs of
// a sampling query (M^us; M^ur factorizes with no curve).
func TestExplainDeterministicCurve(t *testing.T) {
	ts, _ := newTestServer(t, Options{CacheSize: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	req := QueryRequest{
		Generator: "us", Mode: "approx",
		Query:   "Ans(n) :- Emp(i, n)",
		Epsilon: 0.2, Delta: 0.1, Seed: 9, Workers: 2,
	}
	c1 := postExplainQuery(t, ts.URL, reg.ID, req).Explain
	c2 := postExplainQuery(t, ts.URL, reg.ID, req).Explain
	if c1 == nil || c2 == nil {
		t.Fatal("missing explain payload")
	}
	if len(c1.Convergence) == 0 {
		t.Fatal("sampling run carries no convergence curve")
	}
	b1, _ := json.Marshal(c1.Convergence)
	b2, _ := json.Marshal(c2.Convergence)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("curves differ across identical runs:\n%s\nvs\n%s", b1, b2)
	}
	if c1.Plan.Targets != len(postExplainQuery(t, ts.URL, reg.ID, req).Answers) {
		t.Fatalf("plan targets %d != answer count", c1.Plan.Targets)
	}
}

// TestExplainCachedHit: a cache hit with ?explain=1 reports the
// zero-draw cached plan — and the hit itself stays marked Cached.
func TestExplainCachedHit(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	req := QueryRequest{
		Generator: "ur", Mode: "approx",
		Query:   "Ans() :- Emp(1, 'Alice')",
		Epsilon: 0.2, Delta: 0.1, Seed: 5,
	}
	first := postExplainQuery(t, ts.URL, reg.ID, req)
	if first.Cached || first.Explain == nil || first.Explain.Plan.Route == ocqa.RouteCached {
		t.Fatalf("first execution looks cached: %+v", first.Explain)
	}
	second := postExplainQuery(t, ts.URL, reg.ID, req)
	if !second.Cached || second.Cost == nil || !second.Cost.Cached {
		t.Fatalf("second execution not served from cache: %+v", second)
	}
	ex := second.Explain
	if ex == nil {
		t.Fatal("cache hit with ?explain=1 carries no explain payload")
	}
	if ex.Plan.Route != ocqa.RouteCached || !ex.Plan.Cached {
		t.Fatalf("cache hit plan = %+v, want the cached route", ex.Plan)
	}
	if ex.ActualDraws != 0 || ex.Plan.PredictedDraws != 0 {
		t.Fatalf("cached explain reports draws: %+v", ex)
	}
	if len(ex.Spans) != 0 || len(ex.Convergence) != 0 {
		t.Fatalf("cached explain carries another run's trace: %+v", ex)
	}
	// The cache key ignores explain: a plain request now also hits.
	var plain QueryResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", req, &plain); status != http.StatusOK {
		t.Fatalf("plain query: status %d", status)
	}
	if !plain.Cached || plain.Explain != nil {
		t.Fatalf("plain request after explain run: cached=%v explain=%v", plain.Cached, plain.Explain)
	}
}

// TestExplainBatchCountMarginals: the remaining ?explain=1 surfaces.
func TestExplainBatchCountMarginals(t *testing.T) {
	ts, _ := newTestServer(t, Options{CacheSize: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)

	var batch BatchResponse
	breq := BatchRequest{Queries: []QueryRequest{
		{Generator: "ur", Mode: "approx", Query: "Ans() :- Emp(1, 'Alice')", Epsilon: 0.2, Delta: 0.1, Seed: 5},
		{Generator: "ur", Mode: "exact", Query: "Ans() :- Emp(1, 'Alice')"},
	}}
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/batch?explain=1", breq, &batch); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	for i, res := range batch.Results {
		if res.Result == nil || res.Result.Explain == nil {
			t.Fatalf("batch element %d carries no explain payload: %+v", i, res)
		}
	}
	if got := batch.Results[1].Result.Explain.Plan.Route; got != ocqa.RouteExactDP {
		t.Fatalf("exact batch element route = %q, want %q", got, ocqa.RouteExactDP)
	}

	var count CountResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/repairs/count?explain=1",
		CountRequest{}, &count); status != http.StatusOK {
		t.Fatalf("count: status %d", status)
	}
	if count.Explain == nil || count.Explain.Plan.Route != ocqa.RouteExactDP {
		t.Fatalf("count explain = %+v", count.Explain)
	}

	var marg MarginalsResponse
	mreq := MarginalsRequest{Generator: "ur", Mode: "approx", Seed: 3, MaxSamples: 2000}
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/marginals?explain=1",
		mreq, &marg); status != http.StatusOK {
		t.Fatalf("marginals: status %d", status)
	}
	ex := marg.Explain
	if ex == nil {
		t.Fatal("marginals explain missing")
	}
	if ex.Plan.Targets != 5 || ex.Plan.PredictedDraws != 2000 || ex.ActualDraws <= 0 {
		t.Fatalf("marginals plan = %+v actual=%d", ex.Plan, ex.ActualDraws)
	}
}

// TestFlightRecorderGatedOff: without EnableDebugQueries the endpoint
// does not exist — the same opt-in contract as pprof.
func TestFlightRecorderGatedOff(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ungated /debug/queries: status %d, want 404", resp.StatusCode)
	}
}

// TestFlightRecorderRecordsWrites: a fact insert and a fact delete on a
// durable server land in the flight recorder, each with the write
// path's three spans — the copy-on-write apply, the journal append with
// its fsync, and the synchronous cache refresh.
func TestFlightRecorderRecordsWrites(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	ts, _ := newTestServer(t, Options{EnableDebugQueries: true, Store: st})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var ins, del FactMutationResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/facts",
		InsertFactRequest{Fact: "Emp(2,Carol)"}, &ins); status != http.StatusOK {
		t.Fatalf("insert fact: status %d", status)
	}
	if status := do(t, http.MethodDelete, fmt.Sprintf("%s/v1/instances/%s/facts/%d", ts.URL, reg.ID, ins.Index),
		nil, &del); status != http.StatusOK {
		t.Fatalf("delete fact: status %d", status)
	}

	var fr flightResponse
	if status := do(t, http.MethodGet, ts.URL+"/debug/queries", nil, &fr); status != http.StatusOK {
		t.Fatalf("/debug/queries: status %d", status)
	}
	seen := map[string]bool{}
	for _, rec := range fr.Recent {
		if rec.Endpoint != "insert_fact" && rec.Endpoint != "delete_fact" {
			continue
		}
		seen[rec.Endpoint] = true
		if rec.Status != http.StatusOK || rec.Instance != reg.ID {
			t.Errorf("%s record: status %d, instance %q", rec.Endpoint, rec.Status, rec.Instance)
		}
		var names []string
		for _, sp := range rec.Spans {
			names = append(names, sp.Name)
		}
		if strings.Join(names, ",") != "apply,wal.append,refresh" {
			t.Errorf("%s spans = %v, want [apply wal.append refresh]", rec.Endpoint, names)
		}
	}
	if !seen["insert_fact"] || !seen["delete_fact"] {
		t.Fatalf("recorded write endpoints %v, want insert_fact and delete_fact", seen)
	}
}

// TestFlightRecorderBounded: under a concurrent query storm the rings
// stay bounded at their documented sizes while the total keeps
// counting, and the records carry traces. The storm samples M^us
// (M^ur factorizes, with no convergence curve to record).
func TestFlightRecorderBounded(t *testing.T) {
	ts, _ := newTestServer(t, Options{EnableDebugQueries: true, CacheSize: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)

	const queries = 3 * flightRecentSize
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan int)
	errs := make(chan error, queries)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				body := jsonBytes(QueryRequest{
					Generator: "us", Mode: "approx",
					Query:   "Ans() :- Emp(1, 'Alice')",
					Epsilon: 0.3, Delta: 0.2, Seed: int64(i + 1),
				})
				resp, err := http.Post(ts.URL+"/v1/instances/"+reg.ID+"/query",
					"application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %d: status %d", i, resp.StatusCode)
				}
			}
		}()
	}
	for i := 0; i < queries; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var fr flightResponse
	if status := do(t, http.MethodGet, ts.URL+"/debug/queries", nil, &fr); status != http.StatusOK {
		t.Fatalf("/debug/queries: status %d", status)
	}
	if fr.Total != queries {
		t.Fatalf("recorder total = %d, want %d", fr.Total, queries)
	}
	if len(fr.Recent) != flightRecentSize {
		t.Fatalf("recent ring holds %d records, want %d", len(fr.Recent), flightRecentSize)
	}
	if len(fr.Slowest) > flightSlowestSize {
		t.Fatalf("slowest ring holds %d records, cap %d", len(fr.Slowest), flightSlowestSize)
	}
	for i := 1; i < len(fr.Slowest); i++ {
		if fr.Slowest[i].DurationSeconds > fr.Slowest[i-1].DurationSeconds {
			t.Fatalf("slowest ring unsorted at %d", i)
		}
	}
	var traced bool
	for _, rec := range fr.Recent {
		if rec.RequestID == "" || rec.Endpoint != "query" {
			t.Fatalf("malformed record: %+v", rec)
		}
		if len(rec.Spans) > 0 && len(rec.Convergence) > 0 {
			traced = true
		}
	}
	if !traced {
		t.Fatal("no recorded request carries a trace")
	}

	// The text rendering serves too.
	resp, err := http.Get(ts.URL + "/debug/queries?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "flight recorder:") {
		t.Fatalf("text rendering missing header:\n%s", body)
	}
}

// TestSlowQueryLog: a threshold of 1ns makes every query slow; the log
// line must carry the request id, the trace spans and the convergence
// terminal of a sampling query (M^us; M^ur factorizes).
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	ts, _ := newTestServer(t, Options{SlowQuery: time.Nanosecond, AccessLog: logger, CacheSize: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var resp QueryResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", QueryRequest{
		Generator: "us", Mode: "approx",
		Query:   "Ans() :- Emp(1, 'Alice')",
		Epsilon: 0.2, Delta: 0.1, Seed: 5,
	}, &resp); status != http.StatusOK {
		t.Fatalf("query: status %d", status)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query line logged:\n%s", logged)
	}
	if !strings.Contains(logged, "request_id=") || !strings.Contains(logged, "endpoint=query") {
		t.Fatalf("slow-query line missing identity attrs:\n%s", logged)
	}
	if !strings.Contains(logged, "spans.") || !strings.Contains(logged, "convergence.final_draws=") {
		t.Fatalf("slow-query line missing trace payload:\n%s", logged)
	}
}

// jsonBytes marshals v, panicking on failure (test fixtures only).
func jsonBytes(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// lockedWriter serialises concurrent handler writes into the buffer.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestBuildInfoExposed: /varz carries the build object and /metrics the
// ocqa_build_info gauge, agreeing on the Go version.
func TestBuildInfoExposed(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var v struct {
		Build struct {
			GitCommit  string `json:"git_commit"`
			GoVersion  string `json:"go_version"`
			NumCPU     int    `json:"num_cpu"`
			GoMaxProcs int    `json:"gomaxprocs"`
		} `json:"build"`
	}
	if status := do(t, http.MethodGet, ts.URL+"/varz", nil, &v); status != http.StatusOK {
		t.Fatalf("/varz: status %d", status)
	}
	if v.Build.GoVersion != runtime.Version() {
		t.Fatalf("varz build.go_version = %q, want %q", v.Build.GoVersion, runtime.Version())
	}
	if v.Build.GitCommit == "" || v.Build.NumCPU < 1 || v.Build.GoMaxProcs < 1 {
		t.Fatalf("varz build incomplete: %+v", v.Build)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := fmt.Sprintf("ocqa_build_info{git_commit=%q,go_version=%q,gomaxprocs=%q} 1",
		v.Build.GitCommit, v.Build.GoVersion, fmt.Sprint(v.Build.GoMaxProcs))
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %s in:\n%s", want, grepLines(string(body), "ocqa_build_info"))
	}
}

// grepLines returns the lines of s containing sub (for terse failures).
func grepLines(s, sub string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
