package server

import (
	"fmt"
	"sync"
	"testing"
)

func respFor(id string) QueryResponse {
	return QueryResponse{Instance: id, Query: "Ans()"}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.putQuery(cacheKey("i1", "a"), 1, QueryRequest{}, respFor("i1"))
	c.putQuery(cacheKey("i1", "b"), 1, QueryRequest{}, respFor("i1"))
	// Touch "a" so "b" is the eviction victim.
	if _, ok := c.get(cacheKey("i1", "a")); !ok {
		t.Fatal("a missing")
	}
	c.putQuery(cacheKey("i1", "c"), 1, QueryRequest{}, respFor("i1"))
	if _, ok := c.get(cacheKey("i1", "b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get(cacheKey("i1", "a")); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.get(cacheKey("i1", "c")); !ok {
		t.Fatal("c should be present")
	}
}

func TestCacheMarksResponsesCached(t *testing.T) {
	c := newResultCache(4)
	c.putQuery(cacheKey("i1", "a"), 1, QueryRequest{}, respFor("i1"))
	got, ok := c.get(cacheKey("i1", "a"))
	if !ok || !got.Cached {
		t.Fatalf("get = %+v, %v; want Cached=true", got, ok)
	}
}

func TestCacheInvalidateByInstance(t *testing.T) {
	c := newResultCache(8)
	c.putQuery(cacheKey("i1", "a"), 1, QueryRequest{}, respFor("i1"))
	c.putQuery(cacheKey("i2", "a"), 1, QueryRequest{}, respFor("i2"))
	c.putQuery(cacheKey("i1", "b"), 1, QueryRequest{}, respFor("i1"))
	// "i1" must not match "i10": the key separator prevents it.
	c.putQuery(cacheKey("i10", "a"), 1, QueryRequest{}, respFor("i10"))

	c.invalidate("i1")
	if _, ok := c.get(cacheKey("i1", "a")); ok {
		t.Fatal("i1/a should be gone")
	}
	if _, ok := c.get(cacheKey("i1", "b")); ok {
		t.Fatal("i1/b should be gone")
	}
	if _, ok := c.get(cacheKey("i2", "a")); !ok {
		t.Fatal("i2/a should survive")
	}
	if _, ok := c.get(cacheKey("i10", "a")); !ok {
		t.Fatal("i10/a should survive")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.putQuery(cacheKey("i1", "a"), 1, QueryRequest{}, respFor("i1"))
	if _, ok := c.get(cacheKey("i1", "a")); ok {
		t.Fatal("disabled cache must never hit")
	}
	if c.len() != 0 {
		t.Fatalf("len = %d", c.len())
	}
}

// deepResp builds a response with every nested reference a shallow
// struct copy would share: tuple slices and the Converged pointer.
func deepResp(id string) QueryResponse {
	conv := true
	return QueryResponse{
		Instance: id,
		Query:    "Ans(x)",
		Answers: []Answer{
			{Tuple: []string{"a", "b"}, Value: 0.5, Samples: 100, Converged: &conv},
			{Tuple: []string{"c"}, Value: 0.25},
		},
	}
}

// TestCacheIsolatesNestedState: the aliasing regression — a caller
// mutating the response it got back (or the response it put in) must
// never corrupt what the next hit sees.
func TestCacheIsolatesNestedState(t *testing.T) {
	c := newResultCache(4)
	k := cacheKey("i1", "q")
	orig := deepResp("i1")
	c.putQuery(k, 1, QueryRequest{}, orig)
	// Mutating the put-input after the fact must not reach the cache.
	orig.Answers[0].Tuple[0] = "CORRUPT"
	*orig.Answers[0].Converged = false
	orig.Answers[1].Value = -1

	got, ok := c.get(k)
	if !ok {
		t.Fatal("miss")
	}
	if got.Answers[0].Tuple[0] != "a" || *got.Answers[0].Converged != true || got.Answers[1].Value != 0.25 {
		t.Fatalf("put-input mutation reached the cache: %+v", got.Answers)
	}
	// Mutating the get-result must not reach the next reader either.
	got.Answers[0].Tuple[1] = "CORRUPT"
	*got.Answers[0].Converged = false
	again, _ := c.get(k)
	if again.Answers[0].Tuple[1] != "b" || *again.Answers[0].Converged != true {
		t.Fatalf("get-result mutation reached the cache: %+v", again.Answers)
	}
}

// TestCacheConcurrentMutation: many goroutines mutate their own copies
// of the same cached entry while others re-read it — under -race this
// fails if get ever hands out shared slices or pointers.
func TestCacheConcurrentMutation(t *testing.T) {
	c := newResultCache(4)
	k := cacheKey("i1", "q")
	c.putQuery(k, 1, QueryRequest{}, deepResp("i1"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := c.get(k)
				if !ok {
					t.Error("miss")
					return
				}
				// Scribble over everything a shallow copy would share.
				got.Answers[0].Tuple[0] = fmt.Sprint(g)
				*got.Answers[0].Converged = g%2 == 0
				got.Answers[1].Value = float64(g)
			}
		}(g)
	}
	wg.Wait()
	final, _ := c.get(k)
	if final.Answers[0].Tuple[0] != "a" || final.Answers[1].Value != 0.25 {
		t.Fatalf("concurrent mutations leaked into the cache: %+v", final.Answers)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(16)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := cacheKey("i1", fmt.Sprint(i%32))
				if i%2 == 0 {
					c.putQuery(k, 1, QueryRequest{}, respFor("i1"))
				} else {
					c.get(k)
				}
				if i%50 == 0 {
					c.invalidate("i2")
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
