package server

// Regression tests for server lifecycle shutdown semantics: Close must
// stop post-mutation delta refreshes (they run on the server's own
// authority, not a client request) and wake parked /watch long-polls,
// and the watch hub must not leak one map entry per ever-watched
// instance once all waiters are gone.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestShutdownCancelsDeltaRefresh: a mutation landing after Close must
// not spend engine time refreshing cached entries nobody will read.
// Pre-fix, refreshAfterMutation ran on context.Background() with no
// lifecycle to consult, so the refresh always executed.
func TestShutdownCancelsDeltaRefresh(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	url := ts.URL + "/v1/instances/" + reg.ID

	q := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}
	var cold QueryResponse
	if status := do(t, http.MethodPost, url+"/query", q, &cold); status != http.StatusOK {
		t.Fatalf("cold query: status %d", status)
	}

	s.Close()

	var mut FactMutationResponse
	if status := do(t, http.MethodPost, url+"/facts", InsertFactRequest{Fact: "Emp(2,Carol)"}, &mut); status != http.StatusOK {
		t.Fatalf("insert after Close: status %d", status)
	}
	if n := s.met.cacheRefreshes.Value(); n != 0 {
		t.Fatalf("cacheRefreshes = %d after Close, want 0 (shutdown must cancel delta refreshes)", n)
	}
	// The entry was dropped, not refreshed: the next query is a miss.
	var warm QueryResponse
	if status := do(t, http.MethodPost, url+"/query", q, &warm); status != http.StatusOK {
		t.Fatalf("post-mutation query: status %d", status)
	}
	if warm.Cached {
		t.Fatal("post-Close mutation still refreshed the cache entry")
	}
}

// TestShutdownWakesParkedWatchers: a long-poll parked inside its wait
// window must return (204) promptly once Close cancels the lifecycle,
// instead of holding the connection for the full WatchWait.
func TestShutdownWakesParkedWatchers(t *testing.T) {
	ts, s := newTestServer(t, Options{WatchWait: time.Minute})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	watchURL := ts.URL + "/v1/instances/" + reg.ID +
		"/watch?generator=ur&mode=exact&query=Ans(n)%20:-%20Emp(i,%20n)&since=1"

	type out struct {
		status int
		err    error
	}
	ch := make(chan out, 1)
	go func() {
		r, err := http.Get(watchURL)
		if err != nil {
			ch <- out{0, err}
			return
		}
		r.Body.Close()
		ch <- out{r.StatusCode, nil}
	}()

	time.Sleep(50 * time.Millisecond) // let the watcher park
	s.Close()

	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("watch during shutdown: %v", o.err)
		}
		if o.status != http.StatusNoContent {
			t.Fatalf("watch during shutdown: status %d, want 204", o.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the parked watcher")
	}
	if n := s.watch.size(); n != 0 {
		t.Fatalf("watch hub holds %d entries after shutdown, want 0", n)
	}
}

// TestEvictionWakesParkedWatchers: a watcher parked on an instance that
// a registration evicts gets its 404 at once, not at the end of a
// minute-long wait window.
func TestEvictionWakesParkedWatchers(t *testing.T) {
	ts, s := newTestServer(t, Options{WatchWait: time.Minute, MaxInstances: 1})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	watchURL := ts.URL + "/v1/instances/" + reg.ID +
		"/watch?generator=ur&mode=exact&query=Ans(n)%20:-%20Emp(i,%20n)&since=1"
	status := make(chan int, 1)
	go func() {
		r, err := http.Get(watchURL)
		if err != nil {
			status <- 0
			return
		}
		r.Body.Close()
		status <- r.StatusCode
	}()
	for deadline := time.Now().Add(5 * time.Second); s.watch.size() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watcher never parked")
		}
	}
	register(t, ts.URL, fdFacts, fdFDs) // evicts reg: MaxInstances is 1
	select {
	case st := <-status:
		if st != http.StatusNotFound {
			t.Fatalf("watcher of the evicted instance: status %d, want 404", st)
		}
	case <-time.After(time.Second):
		t.Fatal("eviction did not wake the parked watcher")
	}
}

// TestWatchHubReleasesEntries: the hub map entry for an instance must
// disappear when its last waiter times out or disconnects — pre-fix,
// one channel per ever-watched id lived until the next mutation,
// unbounded for read-only instances.
func TestWatchHubReleasesEntries(t *testing.T) {
	ts, s := newTestServer(t, Options{WatchWait: 50 * time.Millisecond})
	reg := register(t, ts.URL, pkFacts, pkFDs)

	// Many ids, each watched once with a since beyond the current
	// generation so every poll parks and then times out with 204.
	for i := 0; i < 4; i++ {
		u := fmt.Sprintf("%s/v1/instances/%s/watch?generator=ur&mode=exact&query=Ans(n)%%20:-%%20Emp(i,%%20n)&since=%d",
			ts.URL, reg.ID, 100+i)
		r, err := http.Get(u)
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNoContent {
			t.Fatalf("idle watch: status %d, want 204", r.StatusCode)
		}
	}
	if n := s.watch.size(); n != 0 {
		t.Fatalf("watch hub holds %d entries after all waiters timed out, want 0", n)
	}
}

// TestWatchHubRefcounting drives the hub directly: concurrent waiters
// share one entry, release drops it only when the last waiter leaves,
// and a release racing a changed()+fresh wait() must not delete the
// successor entry installed under the same id.
func TestWatchHubRefcounting(t *testing.T) {
	h := newWatchHub()

	ch1, rel1 := h.wait("i1")
	ch2, rel2 := h.wait("i1")
	if ch1 != ch2 {
		t.Fatal("two concurrent waiters got different channels")
	}
	if n := h.size(); n != 1 {
		t.Fatalf("size = %d with two waiters on one id, want 1", n)
	}
	rel1()
	if n := h.size(); n != 1 {
		t.Fatalf("size = %d after first release, want 1 (second waiter still parked)", n)
	}
	rel2()
	rel2() // double release must be a no-op
	if n := h.size(); n != 0 {
		t.Fatalf("size = %d after last release, want 0", n)
	}

	// Stale release after changed(): waiter A parks, a mutation closes
	// and removes its entry, waiter B installs a fresh one. A's release
	// must not evict B's live entry.
	_, relA := h.wait("i2")
	h.changed("i2")
	chB, relB := h.wait("i2")
	relA()
	if n := h.size(); n != 1 {
		t.Fatalf("stale release evicted the successor entry: size = %d, want 1", n)
	}
	// The successor channel must still be live (waking on changed).
	done := make(chan struct{})
	go func() {
		<-chB
		close(done)
	}()
	h.changed("i2")
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("successor waiter never woke after stale release")
	}
	relB()
	if n := h.size(); n != 0 {
		t.Fatalf("size = %d after all waiters released, want 0", n)
	}

	// Hammer the hub from many goroutines to give the race detector
	// something to chew on; the invariant at the end is still zero.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("i%d", g%3)
			for i := 0; i < 200; i++ {
				_, rel := h.wait(id)
				if i%7 == 0 {
					h.changed(id)
				}
				rel()
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 3; g++ {
		h.changed(fmt.Sprintf("i%d", g))
	}
	if n := h.size(); n != 0 {
		t.Fatalf("size = %d after stress, want 0", n)
	}
}
