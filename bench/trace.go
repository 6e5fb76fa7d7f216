package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Spans of one request
// share its request id; Parent is filled in when the spans are joined.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	RID    string `json:"request_id,omitempty"`
	Path   string `json:"path,omitempty"`
	// Cost is the response's cost object, on client spans.
	Cost *cost `json:"cost,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory while it is on; they are joined and
// written out only when the run ends. A nil tracer records nothing and
// wraps nothing, so untraced runs execute exactly the production
// handlers.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
}

// newTracer returns a tracer that is off until switched on.
func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// add records s and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// wrap times every request a handler serves as a span named name,
// tagged with the request id the coordinator forwards to backends.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{Name: name, Start: t.ns(start), End: t.ns(time.Now()),
			RID: r.Header.Get("X-Request-Id"), Path: r.Method + " " + r.URL.Path})
	})
}

// client records one load-generator request, from its scheduled send to
// its completion.
func (t *tracer) client(rid string, r *request, due, end time.Time, c *cost) {
	if t == nil || !t.on.Load() {
		return
	}
	t.add(span{Name: "client", Start: t.ns(due), End: t.ns(end), RID: rid, Path: r.method + " " + r.path, Cost: c})
}

// timed runs f as a span named name and returns its duration.
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(span{Name: name, Start: t.ns(start), End: t.ns(end)})
	return end.Sub(start), err
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
