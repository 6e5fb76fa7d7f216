package server

// The slow-query flight recorder: a bounded in-memory record of recent
// and slowest query and fact-write executions, each carrying the
// request's identity, cost and — when a trace ran — its phase spans and
// convergence curve.
// Mounted at GET /debug/queries, gated behind Options.EnableDebugQueries
// exactly like the pprof endpoints (the traces expose query text and
// timing internals, so the operator opts in). Recording happens once
// per request in ServeHTTP, after the handler returns; the rings are
// mutex-guarded and fixed-size, so a concurrent query storm costs one
// short critical section per request and bounded memory forever.

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

const (
	// flightRecentSize bounds the last-N ring; flightSlowestSize bounds
	// the slowest-N leaderboard.
	flightRecentSize  = 64
	flightSlowestSize = 32
)

// flightRecord is one recorded query execution.
type flightRecord struct {
	RequestID string `json:"request_id"`
	Endpoint  string `json:"endpoint"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	Status    int    `json:"status"`
	// Start is when the request arrived; DurationSeconds its total wall
	// time inside the server.
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Instance        string    `json:"instance,omitempty"`
	Generator       string    `json:"generator,omitempty"`
	Mode            string    `json:"mode,omitempty"`
	Draws           int64     `json:"draws,omitempty"`
	CacheHits       int64     `json:"cache_hits,omitempty"`
	CacheMisses     int64     `json:"cache_misses,omitempty"`
	// Spans and Convergence come from the request-wide trace ServeHTTP
	// arms while the recorder is enabled.
	Spans       []engine.Span       `json:"spans,omitempty"`
	Convergence []engine.Checkpoint `json:"convergence,omitempty"`
}

// flightRecorder holds the two bounded rings.
type flightRecorder struct {
	mu     sync.Mutex
	total  int64
	recent []flightRecord // circular, next points at the oldest slot
	next   int
	// slowest is kept sorted by duration descending and truncated to
	// flightSlowestSize.
	slowest []flightRecord
}

func newFlightRecorder() *flightRecorder {
	return &flightRecorder{}
}

// record admits one finished request into both rings.
func (f *flightRecorder) record(rec flightRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	if len(f.recent) < flightRecentSize {
		f.recent = append(f.recent, rec)
	} else {
		f.recent[f.next] = rec
		f.next = (f.next + 1) % flightRecentSize
	}
	if len(f.slowest) < flightSlowestSize || rec.DurationSeconds > f.slowest[len(f.slowest)-1].DurationSeconds {
		f.slowest = append(f.slowest, rec)
		sort.SliceStable(f.slowest, func(i, j int) bool {
			return f.slowest[i].DurationSeconds > f.slowest[j].DurationSeconds
		})
		if len(f.slowest) > flightSlowestSize {
			f.slowest = f.slowest[:flightSlowestSize]
		}
	}
}

// snapshot returns the total admitted count, the recent ring newest
// first, and the slowest leaderboard; the slices are copies.
func (f *flightRecorder) snapshot() (total int64, recent, slowest []flightRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	recent = make([]flightRecord, 0, len(f.recent))
	// The ring stores oldest at next (once full); walk backwards from
	// the newest slot.
	for i := 0; i < len(f.recent); i++ {
		idx := (f.next - 1 - i + len(f.recent)) % len(f.recent)
		recent = append(recent, f.recent[idx])
	}
	slowest = append([]flightRecord(nil), f.slowest...)
	return f.total, recent, slowest
}

// flightResponse is the JSON shape of GET /debug/queries.
type flightResponse struct {
	// Total counts every request admitted since the server started —
	// the rings below are bounded views of it.
	Total   int64          `json:"total"`
	Recent  []flightRecord `json:"recent"`
	Slowest []flightRecord `json:"slowest"`
}

// handleDebugQueries serves the recorder: JSON by default, a terse
// human-readable table with ?format=text.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	total, recent, slowest := s.flight.snapshot()
	if r.URL.Query().Get("format") != "text" {
		writeJSON(w, http.StatusOK, flightResponse{Total: total, Recent: recent, Slowest: slowest})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "flight recorder: %d requests recorded (ring %d, slowest %d)\n\n",
		total, flightRecentSize, flightSlowestSize)
	writeSection := func(title string, recs []flightRecord) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, rec := range recs {
			fmt.Fprintf(w, "  %-16s %-10s %3d %9.3fms draws=%-8d %s %s\n",
				rec.RequestID, rec.Endpoint, rec.Status, rec.DurationSeconds*1000,
				rec.Draws, rec.Instance, rec.Mode)
			for _, sp := range rec.Spans {
				fmt.Fprintf(w, "      span %-14s %9.3fms\n",
					sp.Name, float64(sp.EndNanos-sp.StartNanos)/1e6)
			}
		}
		fmt.Fprintln(w)
	}
	writeSection("recent (newest first)", recent)
	writeSection("slowest", slowest)
}

// flightEndpoint reports whether a classified endpoint performs query
// or write work worth recording — registry bookkeeping, scrapes and the
// recorder itself stay out of the rings.
func flightEndpoint(ep string) bool {
	switch ep {
	case "query", "batch", "count", "marginals", "semantics", "insert_fact", "delete_fact":
		return true
	}
	return false
}
