package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// insertFact posts one fact and returns the mutation response.
func insertFact(t *testing.T, base, id, fact string) FactMutationResponse {
	t.Helper()
	var out FactMutationResponse
	status := do(t, http.MethodPost, base+"/v1/instances/"+id+"/facts", InsertFactRequest{Fact: fact}, &out)
	if status != http.StatusOK {
		t.Fatalf("insert %q: status %d", fact, status)
	}
	return out
}

// syncReplica asks the follower to pull id from the source backend.
func syncReplica(t *testing.T, follower, source, id string) ReplSyncResponse {
	t.Helper()
	var out ReplSyncResponse
	status := do(t, http.MethodPost, follower+"/v1/replication/sync", ReplSyncRequest{ID: id, Source: source}, &out)
	if status != http.StatusOK {
		t.Fatalf("sync %q from %s: status %d", id, source, status)
	}
	return out
}

func TestMutationResponseCarriesGen(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)

	if m := insertFact(t, ts.URL, reg.ID, "Emp(4,Dan)"); m.Gen != 2 {
		t.Fatalf("gen after first insert = %d, want 2", m.Gen)
	}
	var del FactMutationResponse
	status := do(t, http.MethodDelete, fmt.Sprintf("%s/v1/instances/%s/facts/%d", ts.URL, reg.ID, 0), nil, &del)
	if status != http.StatusOK || del.Gen != 3 {
		t.Fatalf("delete: status %d gen %d, want 200 gen 3", status, del.Gen)
	}
}

// TestExplicitIDRegistration runs over a durable store: explicit and
// minted ids share one install path, so both come back after a
// restart, and a refused id journals nothing.
func TestExplicitIDRegistration(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ts, _ := newTestServer(t, Options{Store: st})

	var reg RegisterResponse
	req := RegisterRequest{Facts: pkFacts, FDs: pkFDs, ID: "node7-i42"}
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances", req, &reg); status != http.StatusCreated {
		t.Fatalf("explicit-id register: status %d", status)
	}
	if reg.ID != "node7-i42" {
		t.Fatalf("registered id = %q, want node7-i42", reg.ID)
	}

	// The id is now taken: a second registration under it must 409
	// rather than silently overwrite, and leave the WAL alone.
	appends := st.Stats().WalAppends
	var e errorResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances", req, &e); status != http.StatusConflict {
		t.Fatalf("duplicate explicit id: status %d, want 409", status)
	}
	if got := st.Stats().WalAppends; got != appends {
		t.Fatalf("a refused registration journalled %d record(s)", got-appends)
	}

	// Ill-formed ids are rejected before any engine work.
	bad := RegisterRequest{Facts: pkFacts, FDs: pkFDs, ID: "has space"}
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances", bad, &e); status != http.StatusBadRequest {
		t.Fatalf("bad explicit id: status %d, want 400", status)
	}

	// Auto-allocation must not collide with a numeric explicit id.
	var reg2 RegisterResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances",
		RegisterRequest{Facts: pkFacts, FDs: pkFDs, ID: "i7"}, &reg2); status != http.StatusCreated {
		t.Fatalf("numeric explicit id: status %d", status)
	}
	auto := register(t, ts.URL, pkFacts, pkFDs)
	if auto.ID == "i7" || auto.ID == "node7-i42" {
		t.Fatalf("auto-allocated id %q collided with an explicit id", auto.ID)
	}

	// After a restart every instance is back at generation 1, and
	// minting still steers clear of the restored ids.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	ts2, _ := newTestServer(t, Options{Store: st2})
	var cursors []ReplInstanceInfo
	do(t, http.MethodGet, ts2.URL+"/v1/replication/instances", nil, &cursors)
	got := map[string]int64{}
	for _, c := range cursors {
		got[c.ID] = c.Gen
	}
	if want := map[string]int64{"node7-i42": 1, "i7": 1, auto.ID: 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart the registry holds %v, want %v", got, want)
	}
	if again := register(t, ts2.URL, pkFacts, pkFDs); got[again.ID] != 0 {
		t.Fatalf("auto-allocated id %q collided with a restored id", again.ID)
	}
}

// getFeed pulls one feed and decodes its frames.
func getFeed(t *testing.T, base, id string, after int64) (int, int64, []store.Record) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/replication/instances/%s?after=%d", base, id, after))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0, nil
	}
	gen, err := strconv.ParseInt(resp.Header.Get(replGenHeader), 10, 64)
	if err != nil {
		t.Fatalf("feed generation header: %v", err)
	}
	recs, err := store.DecodeFrames(body)
	if err != nil {
		t.Fatalf("decoding feed frames: %v", err)
	}
	return resp.StatusCode, gen, recs
}

func TestReplicationFeed(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	insertFact(t, ts.URL, reg.ID, "Emp(4,Dan)")
	insertFact(t, ts.URL, reg.ID, "Emp(5,Fay)")

	// A follower at gen 1 (registration) still has mutations 2..3 in the
	// tail: the feed is incremental, their insert frames.
	status, gen, recs := getFeed(t, ts.URL, reg.ID, 1)
	if status != http.StatusOK {
		t.Fatalf("feed: status %d", status)
	}
	if len(recs) != 2 || gen != 3 {
		t.Fatalf("incremental feed = %d records up to gen %d, want 2 up to gen 3", len(recs), gen)
	}
	for i, want := range []string{"Emp(4,Dan)", "Emp(5,Fay)"} {
		if r := recs[i]; r.Kind != store.OpInsertFact || r.ID != reg.ID || r.Fact.String() != want {
			t.Fatalf("feed record %d = %s %q %v, want insert-fact %s", i, r.Kind, r.ID, r.Fact, want)
		}
	}

	// after=0 asks for mutation 1, which never exists (registration is
	// not one): the feed must fall back to full state, one register frame.
	status, gen, recs = getFeed(t, ts.URL, reg.ID, 0)
	if status != http.StatusOK {
		t.Fatalf("full feed: status %d", status)
	}
	if len(recs) != 1 || recs[0].Kind != store.OpRegister || gen != 3 || recs[0].DB.Len() != 7 || recs[0].Sigma == nil {
		t.Fatalf("full feed = %d records up to gen %d, want the 7-fact state at gen 3", len(recs), gen)
	}

	// A follower already at the head receives neither frames nor state.
	status, gen, recs = getFeed(t, ts.URL, reg.ID, 3)
	if status != http.StatusOK {
		t.Fatalf("caught-up feed: status %d", status)
	}
	if len(recs) != 0 || gen != 3 {
		t.Fatalf("caught-up feed = %d records at gen %d", len(recs), gen)
	}

	// Unknown instance: 404.
	if status, _, _ := getFeed(t, ts.URL, "nope", 0); status != http.StatusNotFound {
		t.Fatalf("unknown instance feed: status %d, want 404", status)
	}
}

// TestReplicationCorruptFrameFallsBackToFullSync: a follower whose
// incremental feed arrives with a damaged frame must not apply any of
// it; it re-seeds from the full state and lands on the owner's
// generation.
func TestReplicationCorruptFrameFallsBackToFullSync(t *testing.T) {
	owner, _ := newTestServer(t, Options{})
	follower, _ := newTestServer(t, Options{})
	// The source the follower pulls from flips one byte of every
	// incremental feed body on its way through.
	var flipped atomic.Int64
	relay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(owner.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if r.URL.Query().Get("after") != "0" && len(body) > 0 {
			body[len(body)/2] ^= 0x20
			flipped.Add(1)
		}
		w.Header().Set(replGenHeader, resp.Header.Get(replGenHeader))
		w.Header().Set(replLineageHeader, resp.Header.Get(replLineageHeader))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(relay.Close)

	reg := register(t, owner.URL, pkFacts, pkFDs)
	if sy := syncReplica(t, follower.URL, relay.URL, reg.ID); !sy.Full || sy.Gen != 1 {
		t.Fatalf("initial sync = %+v, want full at gen 1", sy)
	}
	insertFact(t, owner.URL, reg.ID, "Emp(4,Dan)")
	insertFact(t, owner.URL, reg.ID, "Emp(5,Fay)")
	sy := syncReplica(t, follower.URL, relay.URL, reg.ID)
	if flipped.Load() != 1 {
		t.Fatalf("relay corrupted %d feeds, want 1", flipped.Load())
	}
	if !sy.Full || sy.Applied != 0 || sy.Gen != 3 {
		t.Fatalf("sync over a corrupt frame = %+v, want a full sync to gen 3", sy)
	}
}

func TestReplicationSyncAndPromote(t *testing.T) {
	owner, _ := newTestServer(t, Options{})
	follower, _ := newTestServer(t, Options{})

	reg := register(t, owner.URL, pkFacts, pkFDs)

	// First sync has no local replica: full-state transfer at gen 1.
	sy := syncReplica(t, follower.URL, owner.URL, reg.ID)
	if !sy.Full || sy.Gen != 1 {
		t.Fatalf("initial sync = %+v, want full at gen 1", sy)
	}

	// Mutations on the owner, then an incremental catch-up.
	insertFact(t, owner.URL, reg.ID, "Emp(4,Dan)")
	insertFact(t, owner.URL, reg.ID, "Emp(4,Dana)")
	sy = syncReplica(t, follower.URL, owner.URL, reg.ID)
	if sy.Full || sy.Applied != 2 || sy.Gen != 3 {
		t.Fatalf("incremental sync = %+v, want 2 ops applied to gen 3", sy)
	}

	// Replicas are invisible to the serving surface.
	var listed []InstanceInfo
	do(t, http.MethodGet, follower.URL+"/v1/instances", nil, &listed)
	if len(listed) != 0 {
		t.Fatalf("replica leaked into the live listing: %+v", listed)
	}
	var reps []ReplInstanceInfo
	do(t, http.MethodGet, follower.URL+"/v1/replication/replicas", nil, &reps)
	if len(reps) != 1 || reps[0].ID != reg.ID || reps[0].Gen != 3 {
		t.Fatalf("replicas = %+v", reps)
	}

	// The owner's exact answers, as the oracle for the promoted copy.
	q := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}
	var want QueryResponse
	if status := do(t, http.MethodPost, owner.URL+"/v1/instances/"+reg.ID+"/query", q, &want); status != http.StatusOK {
		t.Fatalf("owner query failed")
	}

	// Promote: the follower now serves the instance at the same gen.
	var pr ReplPromoteResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/replication/promote", ReplPromoteRequest{ID: reg.ID}, &pr); status != http.StatusOK {
		t.Fatalf("promote: status %d", status)
	}
	if pr.Gen != 3 || pr.Facts != 7 {
		t.Fatalf("promote = %+v, want gen 3 with 7 facts", pr)
	}

	var got QueryResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/instances/"+reg.ID+"/query", q, &got); status != http.StatusOK {
		t.Fatalf("promoted query: status %d", status)
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("promoted answers diverged:\n  owner:    %+v\n  follower: %+v", want.Answers, got.Answers)
	}

	// Promotion consumed the replica; a second promote is a 404.
	var e errorResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/replication/promote", ReplPromoteRequest{ID: reg.ID}, &e); status != http.StatusNotFound {
		t.Fatalf("re-promote: status %d, want 404", status)
	}

	// And now that the follower owns the instance, it refuses to follow
	// it again (split-brain guard).
	if status := do(t, http.MethodPost, follower.URL+"/v1/replication/sync",
		ReplSyncRequest{ID: reg.ID, Source: owner.URL}, &e); status != http.StatusConflict {
		t.Fatalf("sync of live instance: status %d, want 409", status)
	}

	// Mutations keep the gen lineage going on the new owner.
	if m := insertFact(t, follower.URL, reg.ID, "Emp(6,Gil)"); m.Gen != 4 {
		t.Fatalf("post-promotion gen = %d, want 4", m.Gen)
	}
}

func TestReplicationPromoteCollision(t *testing.T) {
	owner, _ := newTestServer(t, Options{})
	follower, _ := newTestServer(t, Options{})

	reg := register(t, owner.URL, pkFacts, pkFDs) // "i1" on the owner
	syncReplica(t, follower.URL, owner.URL, reg.ID)

	// The follower registers its own live instance under the same id.
	var dup RegisterResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/instances",
		RegisterRequest{Facts: fdFacts, FDs: fdFDs, ID: reg.ID}, &dup); status != http.StatusCreated {
		t.Fatalf("conflicting live register: status %d", status)
	}

	// Promote must refuse — and must NOT lose the replica.
	var e errorResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/replication/promote", ReplPromoteRequest{ID: reg.ID}, &e); status != http.StatusConflict {
		t.Fatalf("promote over live id: status %d, want 409", status)
	}
	var reps []ReplInstanceInfo
	do(t, http.MethodGet, follower.URL+"/v1/replication/replicas", nil, &reps)
	if len(reps) != 1 {
		t.Fatalf("replica lost by failed promotion: %+v", reps)
	}
}

// TestReplicationPromoteUnjournalled: a promotion whose register record
// cannot be written is not acknowledged. With the follower's store
// closed, promote answers 500, the id stays unknown to the serving
// surface, and the replica is kept for a later promotion.
func TestReplicationPromoteUnjournalled(t *testing.T) {
	owner, _ := newTestServer(t, Options{})
	st := openTestStore(t, t.TempDir())
	follower, _ := newTestServer(t, Options{Store: st})

	reg := register(t, owner.URL, pkFacts, pkFDs)
	syncReplica(t, follower.URL, owner.URL, reg.ID)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var e errorResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/replication/promote", ReplPromoteRequest{ID: reg.ID}, &e); status != http.StatusInternalServerError {
		t.Fatalf("promote with a closed store: status %d, want 500", status)
	}
	if status := do(t, http.MethodGet, follower.URL+"/v1/instances/"+reg.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("unjournalled promotion is served: status %d, want 404", status)
	}
	var reps []ReplInstanceInfo
	do(t, http.MethodGet, follower.URL+"/v1/replication/replicas", nil, &reps)
	if len(reps) != 1 || reps[0].ID != reg.ID {
		t.Fatalf("replica lost by failed promotion: %+v", reps)
	}
}

func TestReplicationSyncAfterTailOverflow(t *testing.T) {
	owner, _ := newTestServer(t, Options{})
	follower, _ := newTestServer(t, Options{})

	reg := register(t, owner.URL, pkFacts, pkFDs)
	syncReplica(t, follower.URL, owner.URL, reg.ID)

	// Push the owner past the bounded tail so the follower's window is
	// gone; the sync must fall back to a full transfer and still land on
	// the owner's generation.
	for i := 0; i < replTailMax+8; i++ {
		insertFact(t, owner.URL, reg.ID, fmt.Sprintf("Emp(%d,N%d)", 100+i, i))
	}
	sy := syncReplica(t, follower.URL, owner.URL, reg.ID)
	if !sy.Full || sy.Gen != int64(1+replTailMax+8) {
		t.Fatalf("post-overflow sync = %+v, want full at gen %d", sy, 1+replTailMax+8)
	}
}

// TestReplicationAfterOwnerRestart: a restarted owner boots its
// instances at generation 1, so its generations start again on a
// history the follower's replica never saw. The feed's lineage token
// tells the follower so: it full-syncs once instead of taking the lower
// generation for "caught up", then follows the new lineage
// incrementally, and a promotion holds every acknowledged write.
func TestReplicationAfterOwnerRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	owner, _ := newTestServer(t, Options{Store: st})
	follower, _ := newTestServer(t, Options{})

	reg := register(t, owner.URL, pkFacts, pkFDs)
	syncReplica(t, follower.URL, owner.URL, reg.ID)
	for _, f := range []string{"Emp(4,Dan)", "Emp(5,Fay)", "Emp(6,Gil)"} {
		insertFact(t, owner.URL, reg.ID, f)
	}
	if sy := syncReplica(t, follower.URL, owner.URL, reg.ID); sy.Full || sy.Applied != 3 || sy.Gen != 4 {
		t.Fatalf("sync before the restart = %+v, want 3 ops applied to gen 4", sy)
	}

	owner.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	owner2, _ := newTestServer(t, Options{Store: st2})
	if m := insertFact(t, owner2.URL, reg.ID, "Emp(7,Hal)"); m.Gen != 2 || m.Facts != 9 {
		t.Fatalf("insert after the restart = %+v, want gen 2 with 9 facts", m)
	}

	if sy := syncReplica(t, follower.URL, owner2.URL, reg.ID); !sy.Full || sy.Gen != 2 {
		t.Fatalf("sync after the owner restarted = %+v, want a full sync to gen 2", sy)
	}
	insertFact(t, owner2.URL, reg.ID, "Emp(8,Ida)")
	if sy := syncReplica(t, follower.URL, owner2.URL, reg.ID); sy.Full || sy.Applied != 1 || sy.Gen != 3 {
		t.Fatalf("sync on the new lineage = %+v, want 1 op applied to gen 3", sy)
	}

	q := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}
	var want QueryResponse
	if status := do(t, http.MethodPost, owner2.URL+"/v1/instances/"+reg.ID+"/query", q, &want); status != http.StatusOK {
		t.Fatalf("owner query: status %d", status)
	}
	var pr ReplPromoteResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/replication/promote", ReplPromoteRequest{ID: reg.ID}, &pr); status != http.StatusOK {
		t.Fatalf("promote: status %d", status)
	}
	if pr.Gen != 3 || pr.Facts != 10 {
		t.Fatalf("promote = %+v, want gen 3 with 10 facts", pr)
	}
	var got QueryResponse
	if status := do(t, http.MethodPost, follower.URL+"/v1/instances/"+reg.ID+"/query", q, &got); status != http.StatusOK {
		t.Fatalf("promoted query: status %d", status)
	}
	hal := false
	for _, a := range got.Answers {
		hal = hal || reflect.DeepEqual(a.Tuple, []string{"Hal"})
	}
	if !hal || !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("promoted answers lost the acknowledged write:\n  owner:    %+v\n  follower: %+v", want.Answers, got.Answers)
	}
}

func TestLoadSheddingQueriesOnly(t *testing.T) {
	ts, s := newTestServer(t, Options{ShedInflight: 1, WatchWait: time.Minute})
	reg := register(t, ts.URL, pkFacts, pkFDs)

	// Park a watcher to occupy the single inflight slot.
	watchURL := ts.URL + "/v1/instances/" + reg.ID +
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
	for s.inflight.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never became inflight")
		}
		time.Sleep(time.Millisecond)
	}

	// The query path sheds with 503...
	q := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}
	var e errorResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", q, &e); status != http.StatusServiceUnavailable {
		t.Fatalf("query under pressure: status %d, want 503", status)
	}
	if e.Error == "" || e.RequestID == "" {
		t.Fatalf("shed error body = %+v", e)
	}

	// ...while mutations, replication and control traffic pass.
	if m := insertFact(t, ts.URL, reg.ID, "Emp(9,Zoe)"); m.Gen != 2 {
		t.Fatalf("mutation under pressure: %+v", m)
	}
	if status, _, _ := getFeed(t, ts.URL, reg.ID, 1); status != http.StatusOK {
		t.Fatalf("replication feed under pressure: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under pressure: %v %v", err, resp)
	}
	resp.Body.Close()

	// The mutation above also wakes the parked watcher.
	wg.Wait()
}
