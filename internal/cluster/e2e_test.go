package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

const (
	pkFacts = "Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)\nEmp(3,Eve)\nEmp(3,Mallory)\n"
	pkFDs   = "Emp: A1 -> A2\n"
	empQ    = "Ans(n) :- Emp(i, n)"
)

// cdo posts (or gets/deletes) JSON and decodes the response.
func cdo(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader = bytes.NewReader(nil)
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func newClusterHarness(t *testing.T, n int, backendOpts server.Options, copts Options) *Harness {
	t.Helper()
	h, err := NewHarness(n, backendOpts, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func clusterRegister(t *testing.T, base string) server.RegisterResponse {
	t.Helper()
	var reg server.RegisterResponse
	status := cdo(t, http.MethodPost, base+"/v1/instances",
		server.RegisterRequest{Facts: pkFacts, FDs: pkFDs}, &reg)
	if status != http.StatusCreated {
		t.Fatalf("register via coordinator: status %d", status)
	}
	return reg
}

func TestCoordinatorPlacementAndProxy(t *testing.T) {
	h := newClusterHarness(t, 3, server.Options{}, Options{})
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, clusterRegister(t, h.Coord.URL).ID)
	}

	// Placement must match the rendezvous ranking, with distinct owner
	// and follower.
	var shards []ShardInfo
	if status := cdo(t, http.MethodGet, h.Coord.URL+"/v1/cluster/shards", nil, &shards); status != http.StatusOK {
		t.Fatalf("shards: status %d", status)
	}
	if len(shards) != len(ids) {
		t.Fatalf("%d shards for %d instances", len(shards), len(ids))
	}
	bases := make([]string, len(h.Backends))
	for i, b := range h.Backends {
		bases[i] = b.URL
	}
	for _, sh := range shards {
		rank := Rank(bases, sh.ID)
		if sh.Owner != rank[0] || sh.Follower != rank[1] {
			t.Fatalf("shard %s placed at (%s, %s), rendezvous says (%s, %s)",
				sh.ID, sh.Owner, sh.Follower, rank[0], rank[1])
		}
		// The owner serves it live; the follower holds a warm replica.
		var info server.InstanceInfo
		if status := cdo(t, http.MethodGet, sh.Owner+"/v1/instances/"+sh.ID, nil, &info); status != http.StatusOK {
			t.Fatalf("instance %s not live on its owner", sh.ID)
		}
		var reps []server.ReplInstanceInfo
		cdo(t, http.MethodGet, sh.Follower+"/v1/replication/replicas", nil, &reps)
		found := false
		for _, re := range reps {
			found = found || re.ID == sh.ID
		}
		if !found {
			t.Fatalf("instance %s has no replica on its follower %s", sh.ID, sh.Follower)
		}
	}

	// A query through the coordinator answers exactly like the owner.
	q := server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}
	for _, sh := range shards[:2] {
		var viaCoord, direct server.QueryResponse
		if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+sh.ID+"/query", q, &viaCoord); status != http.StatusOK {
			t.Fatalf("coordinator query: status %d", status)
		}
		if status := cdo(t, http.MethodPost, sh.Owner+"/v1/instances/"+sh.ID+"/query", q, &direct); status != http.StatusOK {
			t.Fatalf("direct query: status %d", status)
		}
		if !reflect.DeepEqual(viaCoord.Answers, direct.Answers) {
			t.Fatalf("answers diverge: coordinator %+v, direct %+v", viaCoord.Answers, direct.Answers)
		}
	}

	// The merged listing sees every instance exactly once.
	var listed []server.InstanceInfo
	if status := cdo(t, http.MethodGet, h.Coord.URL+"/v1/instances", nil, &listed); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(listed) != len(ids) {
		t.Fatalf("merged list has %d instances, want %d", len(listed), len(ids))
	}

	// Unknown ids 404 through the proxy.
	var e map[string]any
	if status := cdo(t, http.MethodGet, h.Coord.URL+"/v1/instances/nope", nil, &e); status != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", status)
	}
}

func TestCoordinatorMutationReplicatesBeforeAck(t *testing.T) {
	h := newClusterHarness(t, 3, server.Options{}, Options{})
	reg := clusterRegister(t, h.Coord.URL)

	req, _ := http.NewRequest(http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/facts",
		bytes.NewReader([]byte(`{"fact":"Emp(7,Gail)"}`)))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mut server.FactMutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation: status %d err %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("X-Replicated-Gen"); got != fmt.Sprint(mut.Gen) {
		t.Fatalf("X-Replicated-Gen = %q, want %d — the ack must follow the follower sync", got, mut.Gen)
	}

	// The follower's replica really is at the acked generation.
	var shards []ShardInfo
	cdo(t, http.MethodGet, h.Coord.URL+"/v1/cluster/shards", nil, &shards)
	var reps []server.ReplInstanceInfo
	cdo(t, http.MethodGet, shards[0].Follower+"/v1/replication/replicas", nil, &reps)
	if len(reps) != 1 || reps[0].Gen != mut.Gen {
		t.Fatalf("follower replica at %+v, want gen %d", reps, mut.Gen)
	}
}

func TestCoordinatorBatchFanout(t *testing.T) {
	h := newClusterHarness(t, 3, server.Options{}, Options{})
	reg := clusterRegister(t, h.Coord.URL)

	var queries []server.QueryRequest
	for i := 0; i < 11; i++ {
		q := server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}
		if i == 5 {
			q.Query = "not a query" // parse error: per-element failure must keep its index
		}
		queries = append(queries, q)
	}
	var br server.BatchResponse
	if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/batch",
		server.BatchRequest{Queries: queries}, &br); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(br.Results), len(queries))
	}
	var want server.QueryResponse
	cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/query",
		server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}, &want)
	for i, el := range br.Results {
		if el.Index != i {
			t.Fatalf("result %d carries index %d — fan-out lost request order", i, el.Index)
		}
		if i == 5 {
			if el.Status == http.StatusOK || el.Error == "" {
				t.Fatalf("bad element answered %+v, want an error", el)
			}
			continue
		}
		if el.Status != http.StatusOK || el.Result == nil {
			t.Fatalf("element %d: %+v", i, el)
		}
		if !reflect.DeepEqual(el.Result.Answers, want.Answers) {
			t.Fatalf("element %d answers diverge from the direct query", i)
		}
	}
}

// TestCoordinatorBatchProxiedWhole: a 40-query batch reaches its owner
// as one request (hedging off, so nothing duplicates it), and the
// owner's per-element answers come back in request order, each with its
// own index and status.
func TestCoordinatorBatchProxiedWhole(t *testing.T) {
	h := newClusterHarness(t, 3, server.Options{}, Options{HedgeFloor: -1})
	reg := clusterRegister(t, h.Coord.URL)
	var shards []ShardInfo
	cdo(t, http.MethodGet, h.Coord.URL+"/v1/cluster/shards", nil, &shards)
	if len(shards) != 1 || shards[0].ID != reg.ID {
		t.Fatalf("placement table %+v, want one shard for %s", shards, reg.ID)
	}
	batchRequests := func() float64 {
		var v map[string]any
		if status := cdo(t, http.MethodGet, shards[0].Owner+"/varz", nil, &v); status != http.StatusOK {
			t.Fatalf("owner /varz: status %d", status)
		}
		return v["batch_requests"].(float64)
	}

	queries := make([]server.QueryRequest, 40)
	for i := range queries {
		queries[i] = server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}
		if i%13 == 7 {
			queries[i].Query = "not a query"
		}
	}
	before := batchRequests()
	var br server.BatchResponse
	if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/batch",
		server.BatchRequest{Queries: queries}, &br); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if got := batchRequests() - before; got != 1 {
		t.Fatalf("the owner accepted %v batch requests for one 40-query batch, want 1", got)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(br.Results), len(queries))
	}
	var want server.QueryResponse
	cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/query",
		server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}, &want)
	for i, el := range br.Results {
		if el.Index != i {
			t.Fatalf("result %d carries index %d", i, el.Index)
		}
		if i%13 == 7 {
			if el.Status != http.StatusBadRequest || el.Error == "" {
				t.Fatalf("bad element %d answered %+v, want its own 400", i, el)
			}
			continue
		}
		if el.Status != http.StatusOK || el.Result == nil || !reflect.DeepEqual(el.Result.Answers, want.Answers) {
			t.Fatalf("element %d: %+v, want the direct query's answers", i, el)
		}
	}
}

func TestCoordinatorShedPassthroughAndBreaker(t *testing.T) {
	// One backend with an inflight cap of 1; a parked watch occupies it.
	h := newClusterHarness(t, 1, server.Options{ShedInflight: 1, WatchWait: time.Minute}, Options{HedgeFloor: -1})
	reg := clusterRegister(t, h.Coord.URL)

	watchURL := h.Backends[0].URL + "/v1/instances/" + reg.ID +
		"/watch?generator=ur&mode=exact&query=Ans(n)%20:-%20Emp(i,%20n)&since=1"
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(watchURL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for h.Servers[0].Inflight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never became inflight")
		}
		time.Sleep(time.Millisecond)
	}

	// The backend sheds; the coordinator passes the 503 through.
	q := server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}
	var e map[string]any
	for i := 0; i < breakerThreshold; i++ {
		if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/query", q, &e); status != http.StatusServiceUnavailable {
			t.Fatalf("shed query %d: status %d, want 503 passthrough", i, status)
		}
	}

	// Three passthroughs opened the breaker: the next rejection is the
	// coordinator's own, without touching the backend.
	var varz struct {
		ShedPassed   int64 `json:"shed_passthroughs"`
		BreakerDrops int64 `json:"breaker_rejections"`
	}
	if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/query", q, &e); status != http.StatusServiceUnavailable {
		t.Fatalf("post-breaker query: status %d, want 503", status)
	}
	cdo(t, http.MethodGet, h.Coord.URL+"/varz", nil, &varz)
	if varz.ShedPassed < int64(breakerThreshold) || varz.BreakerDrops < 1 {
		t.Fatalf("varz = %+v, want ≥%d passthroughs and ≥1 breaker rejection", varz, breakerThreshold)
	}

	// Coordinator health reflects the open circuit.
	resp, err := http.Get(h.Coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("coordinator healthz = %d with every backend down, want 503", resp.StatusCode)
	}

	// Wake the watcher (insert directly on the backend) and let the
	// cooldown close the breaker via a half-open probe.
	cdo(t, http.MethodPost, h.Backends[0].URL+"/v1/instances/"+reg.ID+"/facts",
		server.InsertFactRequest{Fact: "Emp(8,Hal)"}, nil)
	wg.Wait()
}

// TestHedgedRequestWinsOverStraggler pins the hedge path end to end: a
// backend whose first response stalls must be beaten by the hedge fired
// after the tracked delay, first-response-wins.
func TestHedgedRequestWinsOverStraggler(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// The straggler: parked until the test ends.
			<-release
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"instance":"x","answers":[]}`))
	}))
	defer fake.Close()
	defer close(release)

	c, err := New(Options{
		Backends:       []string{fake.URL},
		HedgeFloor:     30 * time.Millisecond,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	start := time.Now()
	var out server.QueryResponse
	status := cdo(t, http.MethodPost, ts.URL+"/v1/instances/x/query",
		server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}, &out)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged query: status %d", status)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hedge did not rescue the straggler: %v elapsed", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend saw %d requests, want primary + hedge = 2", got)
	}
	if c.met.hedges.Value() != 1 || c.met.hedgeWins.Value() != 1 {
		t.Fatalf("hedge counters = %d fired / %d won, want 1/1",
			c.met.hedges.Value(), c.met.hedgeWins.Value())
	}
}

// TestRegisterSkipsDeadBackend pins the degraded-cluster registration
// path: once a backend's breaker is open, new instances whose
// rendezvous rank-0 is the dead backend must be placed on the first
// live backend in their ranking instead of being refused with 503.
func TestRegisterSkipsDeadBackend(t *testing.T) {
	h := newClusterHarness(t, 3, server.Options{}, Options{})
	dead := h.Backends[0].URL
	h.KillBackend(0)
	h.Failover(context.Background()) // trips the dead backend's breaker

	bases := make([]string, len(h.Backends))
	for i, b := range h.Backends {
		bases[i] = b.URL
	}
	// "c<n>" ids are minted in sequence; find upcoming ones that would
	// hash to the dead backend and register until one is allocated.
	sawDeadRank0 := false
	for i := 0; i < 12 && !sawDeadRank0; i++ {
		reg := clusterRegister(t, h.Coord.URL)
		sawDeadRank0 = sawDeadRank0 || Rank(bases, reg.ID)[0] == dead
	}
	if !sawDeadRank0 {
		t.Fatal("no registered id ranked the dead backend first — test vacuous")
	}
	var shards []ShardInfo
	cdo(t, http.MethodGet, h.Coord.URL+"/v1/cluster/shards", nil, &shards)
	for _, sh := range shards {
		if sh.Owner == dead || sh.Follower == dead {
			t.Fatalf("instance %s placed on the dead backend (%s, %s)", sh.ID, sh.Owner, sh.Follower)
		}
		var info server.InstanceInfo
		if status := cdo(t, http.MethodGet, sh.Owner+"/v1/instances/"+sh.ID, nil, &info); status != http.StatusOK {
			t.Fatalf("instance %s not live on its owner %s", sh.ID, sh.Owner)
		}
	}
}

// TestRegisterRetriesStaleMintedIDs pins the coordinator-restart path:
// backends still holding instances registered by a previous coordinator
// incarnation answer 409 to its re-minted ids, and the new coordinator
// must walk its mint sequence past them instead of surfacing the
// conflict. Caller-supplied ids keep their 409.
func TestRegisterRetriesStaleMintedIDs(t *testing.T) {
	h := newClusterHarness(t, 3, server.Options{}, Options{})
	// Occupy c1..c3 on every backend directly, as a dead coordinator's
	// placements would have (plus their replicas' promotions, worst
	// case: the id is taken everywhere).
	for _, id := range []string{"c1", "c2", "c3"} {
		for _, b := range h.Backends {
			status := cdo(t, http.MethodPost, b.URL+"/v1/instances",
				server.RegisterRequest{ID: id, Facts: pkFacts, FDs: pkFDs}, nil)
			if status != http.StatusCreated {
				t.Fatalf("seeding %s on %s: status %d", id, b.URL, status)
			}
		}
	}
	// The fresh coordinator mints c1 first; it must skip the three
	// stale ids and land on c4.
	reg := clusterRegister(t, h.Coord.URL)
	if reg.ID != "c4" {
		t.Fatalf("registered as %q, want c4 (mint retries should skip stale c1..c3)", reg.ID)
	}
	// An explicit caller-supplied collision is still a 409.
	var errBody map[string]any
	status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances",
		server.RegisterRequest{ID: "c2", Facts: pkFacts, FDs: pkFDs}, &errBody)
	if status != http.StatusConflict {
		t.Fatalf("caller-supplied duplicate id: status %d, want 409", status)
	}
}

func TestCoordinatorHealthLoopFailsOver(t *testing.T) {
	h := newClusterHarness(t, 3, server.Options{}, Options{
		HealthInterval: 30 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
	})
	reg := clusterRegister(t, h.Coord.URL)
	var shards []ShardInfo
	cdo(t, http.MethodGet, h.Coord.URL+"/v1/cluster/shards", nil, &shards)
	owner := shards[0].Owner
	follower := shards[0].Follower

	h.KillBackend(h.BackendIndex(owner))

	// The background loop must notice and promote without manual help.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var now []ShardInfo
		cdo(t, http.MethodGet, h.Coord.URL+"/v1/cluster/shards", nil, &now)
		if len(now) == 1 && now[0].Owner == follower {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health loop never failed the shard over (still %+v)", now)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var out server.QueryResponse
	if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/query",
		server.QueryRequest{Generator: "ur", Mode: "exact", Query: empQ}, &out); status != http.StatusOK {
		t.Fatalf("query after automatic failover: status %d", status)
	}
	_ = context.Background
}
