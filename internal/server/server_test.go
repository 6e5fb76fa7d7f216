package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	ocqa "repro"
	"repro/internal/sampler"
)

// Text fixtures: a primary-key instance with two conflicting blocks
// (the running Emp example) and a general-FD instance (the FD is not a
// key, so the class is GeneralFDs and M^ur has no FPRAS).
const (
	pkFacts = "Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)\nEmp(3,Eve)\nEmp(3,Mallory)\n"
	pkFDs   = "Emp: A1 -> A2\n"

	fdFacts = "R(1,x,p)\nR(1,y,q)\nR(2,x,r)\n"
	fdFDs   = "R: A1 -> A2\n"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

// do posts (or gets/deletes) JSON and decodes the response into out,
// returning the HTTP status.
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func register(t *testing.T, base, facts, fds string) RegisterResponse {
	t.Helper()
	var reg RegisterResponse
	status := do(t, http.MethodPost, base+"/v1/instances", RegisterRequest{Facts: facts, FDs: fds}, &reg)
	if status != http.StatusCreated {
		t.Fatalf("register: status %d", status)
	}
	return reg
}

func TestRegistryLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	if reg.ID == "" || reg.Facts != 5 || !reg.Prepared {
		t.Fatalf("unexpected register response: %+v", reg)
	}
	if reg.Class != ocqa.PrimaryKeys.String() {
		t.Fatalf("class = %q, want primary keys", reg.Class)
	}

	var listed []InstanceInfo
	if status := do(t, http.MethodGet, ts.URL+"/v1/instances", nil, &listed); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(listed) != 1 || listed[0].ID != reg.ID {
		t.Fatalf("list = %+v", listed)
	}

	var info InstanceInfo
	if status := do(t, http.MethodGet, ts.URL+"/v1/instances/"+reg.ID, nil, &info); status != http.StatusOK {
		t.Fatalf("info: status %d", status)
	}
	if info.Facts != 5 || info.Consistent {
		t.Fatalf("info = %+v", info)
	}

	if status := do(t, http.MethodDelete, ts.URL+"/v1/instances/"+reg.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	var e errorResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}, &e); status != http.StatusNotFound {
		t.Fatalf("query after delete: status %d, body %+v", status, e)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	qURL := ts.URL + "/v1/instances/" + reg.ID + "/query"

	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"bad generator", QueryRequest{Generator: "xx", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}},
		{"bad mode", QueryRequest{Generator: "ur", Mode: "guess", Query: "Ans(n) :- Emp(i, n)"}},
		{"bad query", QueryRequest{Generator: "ur", Mode: "exact", Query: "not a query"}},
	}
	for _, tc := range cases {
		var e errorResponse
		if status := do(t, http.MethodPost, qURL, tc.req, &e); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %+v", tc.name, status, e)
		}
	}

	var e errorResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances", RegisterRequest{Facts: "R(1"}, &e); status != http.StatusBadRequest {
		t.Errorf("malformed facts: status %d", status)
	}
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances", map[string]string{"facts": "R(1,2)", "bogus": "x"}, &e); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", status)
	}
}

// TestExactQueryMatchesLibrary checks the HTTP exact path returns the
// same rationals as the library path.
func TestExactQueryMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)

	inst, err := ocqa.NewInstanceFromText(pkFacts, pkFDs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	if err != nil {
		t.Fatal(err)
	}

	for _, gen := range []string{"ur", "us", "uo"} {
		var resp QueryResponse
		status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
			QueryRequest{Generator: gen, Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}, &resp)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", gen, status)
		}
		m, he := parseGenerator(gen, false)
		if he != nil {
			t.Fatal(he)
		}
		want, err := inst.ConsistentAnswers(m, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != len(want) {
			t.Fatalf("%s: %d answers, want %d", gen, len(resp.Answers), len(want))
		}
		for i, a := range resp.Answers {
			if a.Prob != want[i].Prob.RatString() {
				t.Errorf("%s: answer %v = %s, library says %s", gen, a.Tuple, a.Prob, want[i].Prob.RatString())
			}
		}
	}
}

// TestApproxMatchesLibraryWithZeroConstructions pins the sampler-
// construction contract of a registered primary-key instance:
// registration builds exactly one sampler (the block decomposition), the
// first M^us and the first M^{us,1} query build exactly one each (their
// sequence DP tables), and no repeat — M^ur, or M^us on another tuple so
// the result cache cannot answer — builds any. The estimates coincide
// with the library's under the same seed.
func TestApproxMatchesLibraryWithZeroConstructions(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	step := func(what string, want int64, run func()) {
		t.Helper()
		before := sampler.Constructions()
		run()
		if got := sampler.Constructions() - before; got != want {
			t.Fatalf("%s: %d sampler constructions, want %d", what, got, want)
		}
	}
	var reg RegisterResponse
	step("registration", 1, func() { reg = register(t, ts.URL, pkFacts, pkFDs) })
	qURL := ts.URL + "/v1/instances/" + reg.ID + "/query"
	query := func(gen string, singleton bool, tuple string) QueryResponse {
		t.Helper()
		var resp QueryResponse
		if status := do(t, http.MethodPost, qURL, QueryRequest{Generator: gen, Singleton: singleton, Mode: "approx",
			Query: "Ans(n) :- Emp(i, n)", Tuple: tuple, Seed: 7}, &resp); status != http.StatusOK {
			t.Fatalf("%s singleton=%v %s: status %d", gen, singleton, tuple, status)
		}
		return resp
	}
	var us, ur QueryResponse
	step("first M^us query", 1, func() { us = query("us", false, "Bob") })
	step("first M^us,1 query", 1, func() { query("us", true, "Bob") })
	step("repeat queries", 0, func() {
		ur = query("ur", false, "Alice")
		query("ur", true, "Alice")
		query("us", false, "Alice")
		query("us", true, "Alice")
	})

	inst, err := ocqa.NewInstanceFromText(pkFacts, pkFDs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		resp  QueryResponse
		gen   ocqa.Generator
		tuple string
	}{{us, ocqa.UniformSequences, "Bob"}, {ur, ocqa.UniformRepairs, "Alice"}} {
		est, err := inst.Approximate(context.Background(), ocqa.Mode{Gen: c.gen}, q, ocqa.ParseTuple(c.tuple), ocqa.ApproxOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.resp.Answers) != 1 || c.resp.Answers[0].Value != est.Value || c.resp.Answers[0].Samples != est.Samples {
			t.Fatalf("server estimate %+v != library estimate %+v", c.resp.Answers, est)
		}
	}
}

// TestRegistrationBuildsOnlyTheBlockDecomposition: registering 1,000
// primary-key blocks of 4 facts builds one sampler and keeps under 64 MB
// of heap. The sequence-sampler DP tables, quadratic in the 4,000 facts
// that sit in conflict blocks, wait for the first M^us query.
func TestRegistrationBuildsOnlyTheBlockDecomposition(t *testing.T) {
	var facts strings.Builder
	for b := 0; b < 1000; b++ {
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&facts, "R(k%d,v%d)\n", b, i)
		}
	}
	ts, _ := newTestServer(t, Options{})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0, c0 := heap(), sampler.Constructions()
	register(t, ts.URL, facts.String(), "R: A1 -> A2")
	h1, c1 := heap(), sampler.Constructions()
	t.Logf("registration built %d sampler(s) and kept %.2f MB", c1-c0, float64(int64(h1)-int64(h0))/(1<<20))
	if c1-c0 != 1 {
		t.Errorf("registration built %d samplers, want 1", c1-c0)
	}
	if kept := int64(h1) - int64(h0); kept >= 64<<20 {
		t.Errorf("registration kept %.1f MB of heap, want under 64 MB", float64(kept)/(1<<20))
	}
}

// TestRefusalCitesTheorem: a (generator, class) pair without an FPRAS
// is a 4xx whose body carries the paper's citation, exactly as the
// library refuses.
func TestRefusalCitesTheorem(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, fdFacts, fdFDs)
	if reg.Class != ocqa.GeneralFDs.String() {
		t.Fatalf("fixture class = %q, want general FDs", reg.Class)
	}

	var e errorResponse
	status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "ur", Mode: "approx", Query: "Ans(y) :- R(x, y, z)"}, &e)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("refusal status = %d, want 422 (body %+v)", status, e)
	}
	if !strings.Contains(e.Error, "Theorem 5.1(3)") {
		t.Fatalf("refusal does not cite Theorem 5.1(3): %q", e.Error)
	}
	// M^uo over general FDs is heuristic-only: refused without force,
	// served with it.
	status = do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "uo", Mode: "approx", Query: "Ans(y) :- R(x, y, z)"}, &e)
	if status != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "Force") {
		t.Fatalf("heuristic pair: status %d, body %+v", status, e)
	}
	var resp QueryResponse
	status = do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "uo", Mode: "approx", Query: "Ans(y) :- R(x, y, z)", Force: true}, &resp)
	if status != http.StatusOK {
		t.Fatalf("forced heuristic pair: status %d", status)
	}
}

func TestCacheHitSecondQuery(t *testing.T) {
	ts, srv := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	qURL := ts.URL + "/v1/instances/" + reg.ID + "/query"
	req := QueryRequest{Generator: "ur", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Bob", Seed: 3}

	var first, second QueryResponse
	do(t, http.MethodPost, qURL, req, &first)
	do(t, http.MethodPost, qURL, req, &second)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first %v, second %v", first.Cached, second.Cached)
	}
	if first.Answers[0].Value != second.Answers[0].Value {
		t.Fatalf("cache changed the answer: %v != %v", first.Answers[0], second.Answers[0])
	}
	if hits := srv.met.cacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestBatchDeterminism: a batch fans out over the worker pool but the
// response must be byte-identical run over run (fixed seeds) and
// element-wise identical to single queries.
func TestBatchDeterminism(t *testing.T) {
	ts, _ := newTestServer(t, Options{BatchWorkers: 4, CacheSize: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	bURL := ts.URL + "/v1/instances/" + reg.ID + "/batch"

	var queries []QueryRequest
	for i := 0; i < 12; i++ {
		gen := []string{"ur", "us", "uo"}[i%3]
		queries = append(queries, QueryRequest{
			Generator: gen, Mode: "approx",
			Query: "Ans(n) :- Emp(i, n)", Tuple: []string{"Alice", "Bob", "Eve"}[i%3],
			Seed: int64(i + 1),
		})
	}
	batch := BatchRequest{Queries: queries}

	var runs [2]BatchResponse
	for i := range runs {
		if status := do(t, http.MethodPost, bURL, batch, &runs[i]); status != http.StatusOK {
			t.Fatalf("batch run %d: status %d", i, status)
		}
		// Cost carries wall time, which legitimately differs run over
		// run; the draw counts must not.
		for _, res := range runs[i].Results {
			if res.Result == nil || res.Result.Cost == nil {
				t.Fatalf("run %d result %d: missing cost accounting: %+v", i, res.Index, res.Result)
			}
			res.Result.Cost.WallSeconds = 0
		}
	}
	for j, res := range runs[1].Results {
		if a, b := runs[0].Results[j].Result.Cost.Draws, res.Result.Cost.Draws; a != b {
			t.Fatalf("element %d: draw accounting differs between runs: %d vs %d", j, a, b)
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("batch runs differ:\n%+v\n%+v", runs[0], runs[1])
	}
	for i, res := range runs[0].Results {
		if res.Index != i || res.Status != http.StatusOK || res.Result == nil {
			t.Fatalf("result %d: %+v", i, res)
		}
		var single QueryResponse
		if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", queries[i], &single); status != http.StatusOK {
			t.Fatalf("single query %d: status %d", i, status)
		}
		if !reflect.DeepEqual(single.Answers, res.Result.Answers) {
			t.Fatalf("batch element %d differs from single query:\n%+v\n%+v", i, res.Result.Answers, single.Answers)
		}
	}
}

// TestBatchSurfacesPerElementErrors: one refused element must not sink
// the batch.
func TestBatchSurfacesPerElementErrors(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, fdFacts, fdFDs)

	batch := BatchRequest{Queries: []QueryRequest{
		{Generator: "uo", Mode: "exact", Query: "Ans(y) :- R(x, y, z)"},
		{Generator: "ur", Mode: "approx", Query: "Ans(y) :- R(x, y, z)"}, // refused: no FPRAS
		{Generator: "zz", Mode: "exact", Query: "Ans(y) :- R(x, y, z)"},  // bad generator
	}}
	var resp BatchResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/batch", batch, &resp); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results: %+v", resp.Results)
	}
	if resp.Results[0].Status != http.StatusOK {
		t.Errorf("element 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Status != http.StatusUnprocessableEntity || !strings.Contains(resp.Results[1].Error, "Theorem 5.1(3)") {
		t.Errorf("element 1: %+v", resp.Results[1])
	}
	if resp.Results[2].Status != http.StatusBadRequest {
		t.Errorf("element 2: %+v", resp.Results[2])
	}
}

func TestCountMarginalsSemantics(t *testing.T) {
	ts, srv := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	base := ts.URL + "/v1/instances/" + reg.ID

	inst, _ := ocqa.NewInstanceFromText(pkFacts, pkFDs)

	var cr CountResponse
	if status := do(t, http.MethodPost, base+"/repairs/count", CountRequest{}, &cr); status != http.StatusOK {
		t.Fatalf("count: status %d", status)
	}
	if want := inst.CountRepairs(false).String(); cr.Count != want {
		t.Fatalf("|CORep| = %s, want %s", cr.Count, want)
	}
	if status := do(t, http.MethodPost, base+"/repairs/count", CountRequest{Sequences: true, Singleton: true}, &cr); status != http.StatusOK {
		t.Fatalf("count sequences: status %d", status)
	}
	wantSeq, err := inst.CountSequences(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Count != wantSeq.String() {
		t.Fatalf("|CRS^1| = %s, want %s", cr.Count, wantSeq)
	}

	var mr MarginalsResponse
	if status := do(t, http.MethodPost, base+"/marginals", MarginalsRequest{Generator: "ur", Mode: "exact"}, &mr); status != http.StatusOK {
		t.Fatalf("marginals: status %d", status)
	}
	want, err := inst.FactMarginals(ocqa.Mode{Gen: ocqa.UniformRepairs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Marginals) != len(want) {
		t.Fatalf("marginals: %d entries, want %d", len(mr.Marginals), len(want))
	}
	for i, fm := range mr.Marginals {
		if fm.Prob != want[i].Prob.RatString() {
			t.Errorf("marginal %s = %s, want %s", fm.Fact, fm.Prob, want[i].Prob.RatString())
		}
	}

	// Approx marginals must respect the requested draw count exactly
	// (the old facade clamped large values down).
	drawsBefore := srv.met.sampleDraws.Value()
	if status := do(t, http.MethodPost, base+"/marginals",
		MarginalsRequest{Generator: "ur", Mode: "approx", MaxSamples: 250_000, Seed: 5}, &mr); status != http.StatusOK {
		t.Fatalf("approx marginals: status %d", status)
	}
	if got := srv.met.sampleDraws.Value() - drawsBefore; got != 250_000 {
		t.Fatalf("approx marginals consumed %d draws, want exactly 250000", got)
	}

	var sr SemanticsResponse
	if status := do(t, http.MethodPost, base+"/semantics", SemanticsRequest{Generator: "us"}, &sr); status != http.StatusOK {
		t.Fatalf("semantics: status %d", status)
	}
	sem, err := inst.Semantics(ocqa.Mode{Gen: ocqa.UniformSequences}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Repairs) != len(sem) {
		t.Fatalf("semantics: %d repairs, want %d", len(sr.Repairs), len(sem))
	}
}

func TestHealthzAndVarz(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var h map[string]string
	if status := do(t, http.MethodGet, ts.URL+"/healthz", nil, &h); status != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %+v", status, h)
	}
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var resp QueryResponse
	do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}, &resp)

	var v varz
	if status := do(t, http.MethodGet, ts.URL+"/varz", nil, &v); status != http.StatusOK {
		t.Fatalf("varz: status %d", status)
	}
	if v.Instances != 1 || v.QueriesServed != 1 || v.ExactQueries != 1 || v.InstancesRegistered != 1 {
		t.Fatalf("varz counters: %+v", v)
	}
}

func TestQueryDeadline(t *testing.T) {
	// The deadline also governs registration, so it must be long
	// enough for the tiny fixture to register yet far shorter than a
	// tight-ε stopping-rule run (millions of draws). M^us samples on a
	// prepared primary-key instance (M^ur factorizes).
	ts, _ := newTestServer(t, Options{QueryTimeout: 20 * time.Millisecond})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var e errorResponse
	status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "us", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Bob", Epsilon: 0.001}, &e)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline: status %d, body %+v", status, e)
	}
}

// TestConcurrentClients hammers one prepared instance from many
// goroutines mixing every endpoint; run under -race it proves the
// registry, cache, counters and shared samplers are data-race free.
func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t, Options{BatchWorkers: 4})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	base := ts.URL + "/v1/instances/" + reg.ID

	const clients = 8
	const perClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var status int
				switch i % 4 {
				case 0:
					var resp QueryResponse
					status = do(t, http.MethodPost, base+"/query", QueryRequest{
						Generator: []string{"ur", "us", "uo"}[c%3], Mode: "approx",
						Query: "Ans(n) :- Emp(i, n)", Tuple: "Bob", Seed: int64(c*100 + i + 1),
					}, &resp)
				case 1:
					var resp QueryResponse
					status = do(t, http.MethodPost, base+"/query", QueryRequest{
						Generator: "us", Mode: "exact", Query: "Ans(n) :- Emp(i, n)",
					}, &resp)
				case 2:
					var cr CountResponse
					status = do(t, http.MethodPost, base+"/repairs/count", CountRequest{Sequences: c%2 == 0}, &cr)
				case 3:
					var mr MarginalsResponse
					status = do(t, http.MethodPost, base+"/marginals", MarginalsRequest{
						Generator: "us", Mode: "approx", MaxSamples: 2000, Seed: int64(c + 1),
					}, &mr)
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d op %d: status %d", c, i, status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExactCacheIgnoresApproxParams: parameters the exact mode ignores
// (seed, epsilon) must not fragment the cache.
func TestExactCacheIgnoresApproxParams(t *testing.T) {
	ts, srv := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	qURL := ts.URL + "/v1/instances/" + reg.ID + "/query"

	var first, second QueryResponse
	do(t, http.MethodPost, qURL, QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)", Seed: 5, Epsilon: 0.2}, &first)
	do(t, http.MethodPost, qURL, QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)", Seed: 9}, &second)
	if !second.Cached {
		t.Fatal("exact query with a different (irrelevant) seed missed the cache")
	}
	if hits := srv.met.cacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestBodySizeLimit: oversized request bodies are rejected with 413.
func TestBodySizeLimit(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBodyBytes: 512})
	var e errorResponse
	status := do(t, http.MethodPost, ts.URL+"/v1/instances",
		RegisterRequest{Facts: "Emp(1," + strings.Repeat("x", 2048) + ")"}, &e)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, body %+v", status, e)
	}
}

// TestBatchSizeLimit: batches beyond the configured element cap are
// rejected up front.
func TestBatchSizeLimit(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBatchQueries: 2})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	batch := BatchRequest{Queries: make([]QueryRequest, 3)}
	var e errorResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/batch", batch, &e); status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, body %+v", status, e)
	}
	if !strings.Contains(e.Error, "exceeds the limit of 2") {
		t.Fatalf("unhelpful error: %q", e.Error)
	}
}

// TestCacheKeyCanonicalisesQueryText: whitespace variants of the same
// query share one cache entry.
func TestCacheKeyCanonicalisesQueryText(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	qURL := ts.URL + "/v1/instances/" + reg.ID + "/query"

	var first, second QueryResponse
	do(t, http.MethodPost, qURL, QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}, &first)
	do(t, http.MethodPost, qURL, QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n):-Emp(i,n)"}, &second)
	if !second.Cached {
		t.Fatal("whitespace variant of the same query missed the cache")
	}
}

// TestSampleCapClampsRequests: a request demanding an absurd draw
// budget is clamped to the server's SampleCap rather than honored.
func TestSampleCapClampsRequests(t *testing.T) {
	ts, srv := newTestServer(t, Options{SampleCap: 1000})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var mr MarginalsResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/marginals",
		MarginalsRequest{Generator: "ur", Mode: "approx", MaxSamples: 2_000_000_000, Seed: 3}, &mr); status != http.StatusOK {
		t.Fatalf("marginals: status %d", status)
	}
	if got := srv.met.sampleDraws.Value(); got != 1000 {
		t.Fatalf("marginals consumed %d draws, want the 1000-draw cap", got)
	}
}

// TestInvalidEpsilonDeltaRejected: out-of-range estimator parameters
// are a 400, never a panic in fpras.
func TestInvalidEpsilonDeltaRejected(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	qURL := ts.URL + "/v1/instances/" + reg.ID + "/query"
	for _, req := range []QueryRequest{
		{Generator: "ur", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Bob", Epsilon: 1.5},
		{Generator: "ur", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Bob", Epsilon: -0.1},
		{Generator: "ur", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Bob", Delta: 2},
	} {
		var e errorResponse
		if status := do(t, http.MethodPost, qURL, req, &e); status != http.StatusBadRequest {
			t.Errorf("eps=%v delta=%v: status %d, body %+v", req.Epsilon, req.Delta, status, e)
		}
	}
	// The server must still be alive afterwards.
	var h map[string]string
	if status := do(t, http.MethodGet, ts.URL+"/healthz", nil, &h); status != http.StatusOK {
		t.Fatalf("server died: healthz %d", status)
	}
}

// TestWorkersClamped: a request demanding absurd estimator parallelism
// is clamped to the server pool size and still answers correctly.
func TestWorkersClamped(t *testing.T) {
	ts, _ := newTestServer(t, Options{BatchWorkers: 2})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var resp QueryResponse
	status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "ur", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Bob", Workers: 10_000, Seed: 4}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Value <= 0.9 {
		t.Fatalf("answers = %+v (Bob survives every repair, value should be ~1)", resp.Answers)
	}
}

// TestTupleArityValidated: an arity-mismatched tuple is a 400, not a
// full-budget estimate of zero.
func TestTupleArityValidated(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	qURL := ts.URL + "/v1/instances/" + reg.ID + "/query"
	var e errorResponse
	status := do(t, http.MethodPost, qURL,
		QueryRequest{Generator: "ur", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Alice,extra"}, &e)
	if status != http.StatusBadRequest || !strings.Contains(e.Error, "answer variables") {
		t.Fatalf("arity mismatch: status %d, body %+v", status, e)
	}
}

// TestRegistryCapacity: registrations beyond MaxInstances are refused
// until an instance is deleted.
func TestRegistryCapacityEvictsLRU(t *testing.T) {
	ts, s := newTestServer(t, Options{MaxInstances: 2})
	a := register(t, ts.URL, pkFacts, pkFDs)
	b := register(t, ts.URL, fdFacts, fdFDs)
	// Touch a so b becomes the least-recently-used entry.
	if status := do(t, http.MethodGet, ts.URL+"/v1/instances/"+a.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("touch a: status %d", status)
	}
	c := register(t, ts.URL, pkFacts, pkFDs)
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatalf("IDs must never be reused within a process, got %s again", c.ID)
	}
	// b was evicted; a and c survive.
	if status := do(t, http.MethodGet, ts.URL+"/v1/instances/"+b.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("evicted instance still served: status %d", status)
	}
	for _, id := range []string{a.ID, c.ID} {
		if status := do(t, http.MethodGet, ts.URL+"/v1/instances/"+id, nil, nil); status != http.StatusOK {
			t.Fatalf("surviving instance %s: status %d", id, status)
		}
	}
	if n := s.reg.len(); n != 2 {
		t.Fatalf("registry holds %d entries, want capacity 2", n)
	}
	var v varz
	if status := do(t, http.MethodGet, ts.URL+"/varz", nil, &v); status != http.StatusOK || v.Evictions != 1 {
		t.Fatalf("evictions counter = %d (status %d), want 1", v.Evictions, status)
	}
}
