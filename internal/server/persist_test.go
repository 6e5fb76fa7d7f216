package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	ocqa "repro"
	"repro/internal/sampler"
	"repro/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// TestServerPersistenceRestart is the PR's acceptance criterion: a
// server restarted over the same data dir serves identical query
// results for all previously registered instances — including one that
// was mutated through the fact endpoints — without re-registration.
func TestServerPersistenceRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ts, _ := newTestServer(t, Options{Store: st})

	reg1 := register(t, ts.URL, pkFacts, pkFDs)
	reg2 := register(t, ts.URL, fdFacts, fdFDs)
	var mut FactMutationResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg1.ID+"/facts",
		InsertFactRequest{Fact: "Emp(2,Carol)"}, &mut); status != http.StatusOK {
		t.Fatalf("insert fact: status %d", status)
	}
	if mut.Facts != 6 || mut.Consistent {
		t.Fatalf("mutation response %+v", mut)
	}

	queries := []struct {
		id  string
		req QueryRequest
	}{
		{reg1.ID, QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}},
		{reg1.ID, QueryRequest{Generator: "us", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Alice", Seed: 7, MaxSamples: 5000}},
		{reg2.ID, QueryRequest{Generator: "uo", Mode: "exact", Query: "Ans(x) :- R(a, x, p)"}},
	}
	var before []QueryResponse
	for _, q := range queries {
		var resp QueryResponse
		if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+q.id+"/query", q.req, &resp); status != http.StatusOK {
			t.Fatalf("pre-restart query on %s: status %d", q.id, status)
		}
		resp.Cached = false
		before = append(before, resp)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory, a fresh server,
	// no registrations.
	st2 := openTestStore(t, dir)
	defer st2.Close()
	ts2, _ := newTestServer(t, Options{Store: st2})
	var infos []InstanceInfo
	if status := do(t, http.MethodGet, ts2.URL+"/v1/instances", nil, &infos); status != http.StatusOK || len(infos) != 2 {
		t.Fatalf("after restart: %d instances (status %d), want 2", len(infos), status)
	}
	for i, q := range queries {
		var resp QueryResponse
		if status := do(t, http.MethodPost, ts2.URL+"/v1/instances/"+q.id+"/query", q.req, &resp); status != http.StatusOK {
			t.Fatalf("post-restart query on %s: status %d", q.id, status)
		}
		resp.Cached = false
		// Cost wall time is not reproducible across runs; everything
		// else must be.
		resp.Cost, before[i].Cost = nil, nil
		if !reflect.DeepEqual(resp, before[i]) {
			t.Fatalf("query %d diverges after restart:\nbefore %+v\nafter  %+v", i, before[i], resp)
		}
	}
	var v varz
	if status := do(t, http.MethodGet, ts2.URL+"/varz", nil, &v); status != http.StatusOK {
		t.Fatalf("varz: status %d", status)
	}
	if !v.Persistent || v.ReplayedOps != 3 { // 2 registers + 1 insert
		t.Fatalf("varz persistence counters %+v, want persistent with 3 replayed ops", v)
	}
}

// storeState returns the store's state for id, or nil.
func storeState(st *store.Store, id string) *store.InstanceState {
	for _, is := range st.Instances() {
		if is.ID == id {
			return is
		}
	}
	return nil
}

// TestStoreStateIsRegistryDatabase: a durable server keeps one database
// per instance. After every one of a random run of fact inserts and
// deletes over HTTP, the store's state is the very database the
// registry serves; after a restart, WAL replay gives an Equal database
// with the conflict_pairs the last write reported.
func TestStoreStateIsRegistryDatabase(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ts, s := newTestServer(t, Options{Store: st})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	url := ts.URL + "/v1/instances/" + reg.ID
	rng := rand.New(rand.NewSource(13))
	var last FactMutationResponse
	writes := 0
	for step := 0; step < 80; step++ {
		e, _ := s.reg.get(reg.ID)
		var mut FactMutationResponse
		var status int
		if n := e.prepared.DB().Len(); n < 3 || rng.Intn(2) == 0 {
			f := fmt.Sprintf("Emp(%d,N%d)", rng.Intn(4), rng.Intn(5))
			if status = do(t, http.MethodPost, url+"/facts", InsertFactRequest{Fact: f}, &mut); status == http.StatusConflict {
				continue // already present
			}
		} else {
			status = do(t, http.MethodDelete, fmt.Sprintf("%s/facts/%d", url, rng.Intn(n)), nil, &mut)
		}
		if status != http.StatusOK {
			t.Fatalf("step %d: %s: status %d", step, mut.Op, status)
		}
		last, writes = mut, writes+1
		e, _ = s.reg.get(reg.ID)
		if is := storeState(st, reg.ID); is == nil || is.DB != e.prepared.DB() {
			t.Fatalf("step %d: the store's state is not the registry's database", step)
		}
	}
	if writes < 40 || last.Consistent {
		t.Fatalf("%d writes, last consistent=%t: want ≥ 40 writes ending with conflicts", writes, last.Consistent)
	}
	e, _ := s.reg.get(reg.ID)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	_, s2 := newTestServer(t, Options{Store: st2})
	e2, ok := s2.reg.get(reg.ID)
	if !ok {
		t.Fatal("instance missing after restart")
	}
	if !e2.prepared.DB().Equal(e.prepared.DB()) {
		t.Fatalf("replay gives %v, the registry served %v", e2.prepared.DB(), e.prepared.DB())
	}
	if got := len(e2.prepared.Core().ConflictPairs()); got != last.ConflictPairs {
		t.Fatalf("conflict pairs after replay %d, the last write reported %d", got, last.ConflictPairs)
	}
}

// TestDeleteDuringRegistrationIsRefused: a DELETE that lands after a
// registration installed its entry but before the register record is
// journalled must not be acknowledged, because the record written
// after it would bring the instance back at the next boot. It gets
// 409; once the record is written, a restart finds the instance, and
// no acknowledged delete was undone.
func TestDeleteDuringRegistrationIsRefused(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ts, s := newTestServer(t, Options{Store: st})
	inst, err := ocqa.NewInstanceFromText(pkFacts, pkFDs)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.reg.install("racing", "", inst, time.Now(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if status := do(t, http.MethodDelete, ts.URL+"/v1/instances/racing", nil, &er); status != http.StatusConflict {
		t.Fatalf("DELETE before the register record: status %d (%+v), want 409", status, er)
	}
	if err := st.LogRegister(e.id, e.name, e.created, inst.DB(), inst.Sigma()); err != nil {
		t.Fatal(err)
	}
	if status := do(t, http.MethodGet, ts.URL+"/v1/instances/racing", nil, nil); status != http.StatusOK {
		t.Fatalf("refused DELETE removed the instance: status %d", status)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	ts2, _ := newTestServer(t, Options{Store: st2})
	var info InstanceInfo
	if status := do(t, http.MethodGet, ts2.URL+"/v1/instances/racing", nil, &info); status != http.StatusOK || info.Facts != inst.DB().Len() {
		t.Fatalf("after restart: status %d, %+v", status, info)
	}
}

// TestMutationMatchesFromScratch asserts the differential criterion at
// the HTTP layer: the conflict count after an insert equals a fresh
// registration of the post-mutation database, and exact answers agree.
func TestMutationMatchesFromScratch(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var mut FactMutationResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/facts",
		InsertFactRequest{Fact: "Emp(2,Carol)"}, &mut); status != http.StatusOK {
		t.Fatalf("insert: status %d", status)
	}
	fresh := register(t, ts.URL, pkFacts+"Emp(2,Carol)\n", pkFDs)
	inst, err := ocqa.NewInstanceFromText(pkFacts+"Emp(2,Carol)\n", pkFDs)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(inst.Core().ConflictPairs()); mut.ConflictPairs != want {
		t.Fatalf("conflict_pairs = %d, want %d", mut.ConflictPairs, want)
	}
	q := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}
	var a, b QueryResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", q, &a); status != http.StatusOK {
		t.Fatalf("mutated query: status %d", status)
	}
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+fresh.ID+"/query", q, &b); status != http.StatusOK {
		t.Fatalf("fresh query: status %d", status)
	}
	if !reflect.DeepEqual(a.Answers, b.Answers) {
		t.Fatalf("mutated answers %+v != from-scratch %+v", a.Answers, b.Answers)
	}
}

func TestMutationErrorsAndCacheInvalidation(t *testing.T) {
	// Delta refresh disabled: this test pins the bare invalidation
	// semantics (post-mutation queries recompute, never replay); the
	// refresh-enabled path is pinned by TestCacheDeltaRefreshAfterMutation.
	ts, _ := newTestServer(t, Options{DeltaRefreshLimit: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	url := ts.URL + "/v1/instances/" + reg.ID

	var e errorResponse
	if status := do(t, http.MethodPost, url+"/facts", InsertFactRequest{Fact: "Emp(1,Alice)"}, &e); status != http.StatusConflict {
		t.Fatalf("duplicate insert: status %d (%+v)", status, e)
	}
	if status := do(t, http.MethodPost, url+"/facts", InsertFactRequest{Fact: "Zz(1)"}, &e); status != http.StatusBadRequest {
		t.Fatalf("unknown relation: status %d", status)
	}
	if status := do(t, http.MethodPost, url+"/facts", InsertFactRequest{Fact: "not a fact"}, &e); status != http.StatusBadRequest {
		t.Fatalf("malformed fact: status %d", status)
	}
	if status := do(t, http.MethodDelete, url+"/facts/99", nil, &e); status != http.StatusBadRequest {
		t.Fatalf("out-of-range delete: status %d", status)
	}
	if status := do(t, http.MethodDelete, url+"/facts/x", nil, &e); status != http.StatusBadRequest {
		t.Fatalf("non-integer index: status %d", status)
	}
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/nope/facts", InsertFactRequest{Fact: "Emp(7,New)"}, &e); status != http.StatusNotFound {
		t.Fatalf("unknown instance: status %d", status)
	}

	// Cache invalidation: the same exact query must change after an
	// insert that adds a conflict, rather than replaying a stale entry.
	q := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}
	var beforeResp QueryResponse
	if status := do(t, http.MethodPost, url+"/query", q, &beforeResp); status != http.StatusOK {
		t.Fatalf("query: status %d", status)
	}
	var mut FactMutationResponse
	if status := do(t, http.MethodPost, url+"/facts", InsertFactRequest{Fact: "Emp(2,Carol)"}, &mut); status != http.StatusOK {
		t.Fatalf("insert: status %d", status)
	}
	var afterResp QueryResponse
	if status := do(t, http.MethodPost, url+"/query", q, &afterResp); status != http.StatusOK {
		t.Fatalf("query after insert: status %d", status)
	}
	if afterResp.Cached {
		t.Fatal("post-mutation query served from the stale cache")
	}
	if reflect.DeepEqual(beforeResp.Answers, afterResp.Answers) {
		t.Fatalf("answers unchanged by a conflicting insert: %+v", afterResp.Answers)
	}
}

// TestStaleCachePutCannotMaskMutation replays the in-flight-query race
// directly: a query computed against the pre-mutation entry finishes
// (and caches) after the mutation's cache invalidation ran. Its result
// must land under the old generation's key, invisible to post-mutation
// lookups.
func TestStaleCachePutCannotMaskMutation(t *testing.T) {
	// Delta refresh disabled so the post-mutation lookup must miss: with
	// refresh on, the same lookup would legitimately hit the refreshed
	// (new-generation, correct) entry and the race being replayed here
	// would be invisible.
	ts, s := newTestServer(t, Options{DeltaRefreshLimit: -1})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	stale, ok := s.reg.get(reg.ID)
	if !ok {
		t.Fatal("entry missing")
	}
	req := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}
	var mut FactMutationResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/facts",
		InsertFactRequest{Fact: "Emp(2,Carol)"}, &mut); status != http.StatusOK {
		t.Fatalf("insert: status %d", status)
	}
	// The abandoned pre-mutation computation lands now, after the
	// invalidation, holding the stale entry pointer.
	staleResp, he := s.executeQuery(context.Background(), stale, req, false)
	if he != nil {
		t.Fatalf("stale executeQuery: %v", he)
	}
	var fresh QueryResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", req, &fresh); status != http.StatusOK {
		t.Fatalf("fresh query: status %d", status)
	}
	if fresh.Cached {
		t.Fatal("post-mutation query served the stale in-flight result from the cache")
	}
	if reflect.DeepEqual(fresh.Answers, staleResp.Answers) {
		t.Fatalf("post-mutation answers equal the pre-mutation ones: %+v", fresh.Answers)
	}
}

// TestWarmBootEnforcesLoweredCapacity: a store written under a high
// -max-instances replayed into a smaller registry must be evicted (and
// journalled) down to the new cap at boot.
func TestWarmBootEnforcesLoweredCapacity(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ts, _ := newTestServer(t, Options{Store: st, MaxInstances: 8})
	for i := 0; i < 5; i++ {
		register(t, ts.URL, pkFacts, pkFDs)
	}
	st.Close()

	st2 := openTestStore(t, dir)
	s2 := New(Options{Store: st2, MaxInstances: 2})
	if n := s2.reg.len(); n != 2 {
		t.Fatalf("registry holds %d entries after warm boot, want lowered cap 2", n)
	}
	st2.Close()
	// The boot-time evictions must be durable too.
	st3 := openTestStore(t, dir)
	defer st3.Close()
	if n := len(st3.Instances()); n != 2 {
		t.Fatalf("store replays %d instances after capped boot, want 2", n)
	}
}

// TestEvictionIsJournalled: with a capacity-1 registry over a store,
// the evicted instance must not resurrect at the next boot.
func TestEvictionIsJournalled(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ts, _ := newTestServer(t, Options{Store: st, MaxInstances: 1})
	register(t, ts.URL, pkFacts, pkFDs)      // will be evicted
	b := register(t, ts.URL, fdFacts, fdFDs) // evicts a
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	states := st2.Instances()
	if len(states) != 1 || states[0].ID != b.ID {
		t.Fatalf("replayed state %v, want only %s", states, b.ID)
	}
}

// TestConcurrentRegisterRemoveGetRace is the satellite race test: the
// registry (behind the HTTP handlers) is hammered by concurrent
// registrations, removals, lookups and mutations at tiny capacity, so
// LRU eviction interleaves with everything. Run under -race in CI.
func TestConcurrentRegisterRemoveGetRace(t *testing.T) {
	ts, s := newTestServer(t, Options{MaxInstances: 4})
	seed := make([]string, 4)
	for i := range seed {
		seed[i] = register(t, ts.URL, pkFacts, pkFDs).ID
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (w + i) % 4 {
				case 0:
					var reg RegisterResponse
					do(t, http.MethodPost, ts.URL+"/v1/instances",
						RegisterRequest{Facts: pkFacts, FDs: pkFDs, Name: fmt.Sprintf("w%d-%d", w, i)}, &reg)
				case 1:
					do(t, http.MethodDelete, ts.URL+"/v1/instances/"+seed[i%len(seed)], nil, nil)
				case 2:
					do(t, http.MethodGet, ts.URL+"/v1/instances/"+seed[(w+i)%len(seed)], nil, nil)
					do(t, http.MethodGet, ts.URL+"/v1/instances", nil, nil)
				case 3:
					var mut FactMutationResponse
					do(t, http.MethodPost, ts.URL+"/v1/instances/"+seed[i%len(seed)]+"/facts",
						InsertFactRequest{Fact: fmt.Sprintf("Emp(9%d,W%d)", i, w)}, &mut)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.reg.len(); n > 4 {
		t.Fatalf("registry exceeded capacity: %d", n)
	}
	// The server must still be coherent: a fresh register + query works.
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var resp QueryResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}, &resp); status != http.StatusOK {
		t.Fatalf("post-race query: status %d", status)
	}
}

// TestWarmBootPrepLazily: replayed instances must not pay sampler
// construction until first use.
func TestWarmBootPreparesLazily(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ts, _ := newTestServer(t, Options{Store: st})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	before := sampler.Constructions.Value()
	ts2, _ := newTestServer(t, Options{Store: st2})
	if got := sampler.Constructions.Value(); got != before {
		t.Fatalf("warm boot built %d samplers eagerly", got-before)
	}
	var resp QueryResponse
	if status := do(t, http.MethodPost, ts2.URL+"/v1/instances/"+reg.ID+"/query",
		QueryRequest{Generator: "us", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Alice", MaxSamples: 2000}, &resp); status != http.StatusOK {
		t.Fatalf("query after warm boot: status %d", status)
	}
	if got := sampler.Constructions.Value(); got == before {
		t.Fatal("first query after warm boot did not build samplers")
	}
}
