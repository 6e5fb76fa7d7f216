package server

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	ocqa "repro"
)

// resultCache is a bounded LRU over finished query responses, keyed by
// the full identity of the computation — instance, generator,
// operation space, mode, query text, tuple, and every parameter that
// changes the answer (ε, δ, seed, sample cap, worker count, force
// flag, state budget). Every engine in the library is deterministic
// given that key, so a hit is exactly the response the engine would
// recompute.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
	// evictions counts entries dropped by the capacity bound (not by
	// instance-scoped invalidation); the metrics registry reads it at
	// scrape time.
	evictions atomic.Int64
}

type cacheItem struct {
	key  string
	resp QueryResponse
	// req and gen are the normalized request and instance generation the
	// entry was computed for: what lets a mutation delta-refresh the
	// entry (re-execute req against the new generation) instead of
	// merely dropping it.
	req QueryRequest
	gen int64
}

// newResultCache returns a cache holding at most capacity entries;
// capacity <= 0 disables caching (every lookup misses).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// cacheKey joins the identity fields NUL-separated; the instance ID is
// first so invalidate can match by prefix.
func cacheKey(instanceID string, fields ...string) string {
	return instanceID + "\x00" + strings.Join(fields, "\x00")
}

// cloneResponse deep-copies the response's nested slices and pointers.
// A shallow struct copy is not enough: QueryResponse carries Answers
// whose Tuple slices and Converged pointers would otherwise be shared
// between the cache and every caller — one caller mutating its
// response (or the handler that later serialises it) would corrupt
// what every subsequent hit sees.
func cloneResponse(r QueryResponse) QueryResponse {
	if r.Answers != nil {
		answers := make([]Answer, len(r.Answers))
		for i, a := range r.Answers {
			if a.Tuple != nil {
				a.Tuple = append([]string(nil), a.Tuple...)
			}
			if a.Converged != nil {
				conv := *a.Converged
				a.Converged = &conv
			}
			answers[i] = a
		}
		r.Answers = answers
	}
	if r.Cost != nil {
		cost := *r.Cost
		if cost.PerWorkerDraws != nil {
			cost.PerWorkerDraws = append([]int64(nil), cost.PerWorkerDraws...)
		}
		r.Cost = &cost
	}
	if r.Explain != nil {
		// executeQuery strips Explain before the put (a trace is one
		// run's story, not the computation's identity), so entries never
		// carry one — but the clone stays safe if that ever changes.
		ex := *r.Explain
		ex.Spans = append([]ocqa.TraceSpan(nil), ex.Spans...)
		ex.Convergence = append([]ocqa.TraceCheckpoint(nil), ex.Convergence...)
		r.Explain = &ex
	}
	return r
}

// get returns a deep copy of the cached response, marked Cached —
// callers own their copy outright and may mutate it freely.
func (c *resultCache) get(key string) (QueryResponse, bool) {
	if c.cap <= 0 {
		return QueryResponse{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return QueryResponse{}, false
	}
	c.ll.MoveToFront(el)
	resp := cloneResponse(el.Value.(*cacheItem).resp)
	resp.Cached = true
	return resp, true
}

// putQuery stores a deep copy of resp, so later mutations by the
// caller cannot reach the cached entry, with the normalized request and
// the instance generation it was computed for, which make the entry
// delta-refreshable after a mutation (see takeRefreshable).
func (c *resultCache) putQuery(key string, gen int64, req QueryRequest, resp QueryResponse) {
	if c.cap <= 0 {
		return
	}
	it := &cacheItem{key: key, resp: cloneResponse(resp), req: req, gen: gen}
	it.resp.Cached = false
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[it.key]; ok {
		c.ll.MoveToFront(el)
		*el.Value.(*cacheItem) = *it
		return
	}
	c.items[it.key] = c.ll.PushFront(it)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
		c.evictions.Add(1)
	}
}

// invalidate drops every entry belonging to the instance (called when
// the instance is deregistered).
func (c *resultCache) invalidate(instanceID string) {
	c.takeRefreshable(instanceID, 0, 0)
}

// takeRefreshable drops every entry belonging to the instance — exactly
// what invalidate does — and additionally returns the normalized
// requests of up to limit dropped entries whose generation predates
// beforeGen, most recently used first. A mutation uses the returned
// requests to re-execute (and re-cache, under the new generation's key)
// the instance's hottest cached computations, so churned instances keep
// answering warm instead of taking a full cold miss per entry.
func (c *resultCache) takeRefreshable(instanceID string, beforeGen int64, limit int) []QueryRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	prefix := instanceID + "\x00"
	var reqs []QueryRequest
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if it := el.Value.(*cacheItem); strings.HasPrefix(it.key, prefix) {
			if it.gen < beforeGen && len(reqs) < limit {
				reqs = append(reqs, it.req)
			}
			c.ll.Remove(el)
			delete(c.items, it.key)
		}
		el = next
	}
	return reqs
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// evicted returns the number of capacity evictions performed.
func (c *resultCache) evicted() int64 {
	return c.evictions.Load()
}
