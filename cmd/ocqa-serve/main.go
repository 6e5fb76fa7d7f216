// Command ocqa-serve runs the concurrent OCQA query service: a
// long-running HTTP server that registers inconsistent databases once,
// builds their block decomposition, and then answers exact and
// approximate operational-CQA queries — singly or in batches — for any
// number of concurrent clients.
//
// Usage:
//
//	ocqa-serve [-addr :8080] [-batch-workers N] [-cache 1024]
//	           [-timeout 30s] [-exact-limit 2000000]
//	           [-data-dir DIR] [-fsync] [-compact-every 4096]
//	           [-access-log] [-pprof] [-debug-queries] [-slow-query 0]
//	           [-delta-refresh 8] [-watch-wait 25s] [-shed-inflight 0]
//
// -batch-workers also caps the estimation workers a request asks for;
// a request that omits them runs adaptive (the engine sizes each run
// from the instance's conflict structure and draw budget).
//
// Observability: GET /varz serves the JSON counter snapshot, GET
// /metrics the same series (the server's registry and the process-wide
// one) in Prometheus text format. Every response
// carries an X-Request-Id header (propagated from the client's, minted
// otherwise); -access-log emits one structured log line per request to
// stderr. Any query endpoint accepts ?explain=1 and then returns the
// pre-sampling plan, phase spans and convergence curve alongside the
// answer. -debug-queries mounts the flight recorder at /debug/queries
// (bounded rings of the last and the slowest query traces);
// -slow-query DURATION logs every request at or above the threshold
// with its full trace. -pprof exposes the Go profiler under
// /debug/pprof/ — like -debug-queries, leave it off unless the
// listener is trusted, the records reveal internals.
//
// A session against a running server:
//
//	curl -s localhost:8080/v1/instances -d '{"facts":"Emp(1,Alice)\nEmp(1,Tom)","fds":"Emp: A1 -> A2"}'
//	curl -s localhost:8080/v1/instances/i1/query -d '{"generator":"ur","mode":"exact","query":"Ans(n) :- Emp(i, n)"}'
//	curl -s localhost:8080/v1/instances/i1/facts -d '{"fact":"Emp(2,Bob)"}'
//	curl -s localhost:8080/varz
//
// With -data-dir the registry is durable: every registry operation is
// journalled to an append-only WAL (periodically compacted into a
// binary snapshot), and a restarted server replays the directory and
// serves every previously registered instance without re-registration.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	ocqa "repro"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		batchWorkers  = flag.Int("batch-workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		cacheSize     = flag.Int("cache", 1024, "result cache entries (negative disables)")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-query deadline (negative disables)")
		exactLimit    = flag.Int("exact-limit", 2_000_000, "state-budget cap for the exact engines")
		sampleCap     = flag.Int("sample-cap", ocqa.DefaultMaxSamples, "Monte-Carlo draw cap per request")
		maxConcurrent = flag.Int("max-concurrent", 0, "engine computations running at once (0 = 4×GOMAXPROCS)")
		maxInstances  = flag.Int("max-instances", 1024, "registered-instance cap (LRU eviction beyond it)")
		maxBatch      = flag.Int("max-batch", 1024, "queries per batch request")
		dataDir       = flag.String("data-dir", "", "durable store directory (empty = memory-only)")
		fsync         = flag.Bool("fsync", false, "fsync the WAL after every append")
		compactEvery  = flag.Int("compact-every", 0, "auto-compact once the WAL holds N records (0 = default 4096, negative disables)")
		accessLog     = flag.Bool("access-log", false, "emit one structured access-log line per request to stderr")
		pprofEnable   = flag.Bool("pprof", false, "expose the Go profiler under /debug/pprof/ (trusted listeners only)")
		debugQueries  = flag.Bool("debug-queries", false, "expose the slow-query flight recorder under /debug/queries (trusted listeners only)")
		slowQuery     = flag.Duration("slow-query", 0, "log requests at or above this duration with their full trace (0 disables)")
		deltaRefresh  = flag.Int("delta-refresh", 0, "cached results delta-refreshed per mutation (0 = default 8, negative disables)")
		watchWait     = flag.Duration("watch-wait", 0, "GET /watch long-poll window (0 = default 25s, negative returns immediately)")
		shedInflight  = flag.Int("shed-inflight", 0, "shed query-path requests with 503 beyond this many in flight (0 disables; mutations and replication are never shed)")
	)
	flag.Parse()
	opts := server.Options{
		BatchWorkers:         *batchWorkers,
		CacheSize:            *cacheSize,
		QueryTimeout:         *timeout,
		ExactLimit:           *exactLimit,
		SampleCap:            *sampleCap,
		MaxConcurrentQueries: *maxConcurrent,
		MaxInstances:         *maxInstances,
		MaxBatchQueries:      *maxBatch,
		DeltaRefreshLimit:    *deltaRefresh,
		WatchWait:            *watchWait,
		ShedInflight:         *shedInflight,
		EnablePprof:          *pprofEnable,
		EnableDebugQueries:   *debugQueries,
		SlowQuery:            *slowQuery,
	}
	if *accessLog {
		opts.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	// serve (not main) owns the store so its deferred Close runs even on
	// the error path, which os.Exit would skip.
	if err := serve(*addr, opts, *dataDir, *fsync, *compactEvery); err != nil {
		fmt.Fprintln(os.Stderr, "ocqa-serve:", err)
		os.Exit(1)
	}
}

// serve opens the durable store (when a data dir is given), wires it
// into the server options, and blocks in run until shutdown.
func serve(addr string, opts server.Options, dataDir string, fsync bool, compactEvery int) error {
	if dataDir != "" {
		st, err := store.Open(store.Options{Dir: dataDir, Fsync: fsync, CompactEvery: compactEvery})
		if err != nil {
			return err
		}
		stats := st.Stats()
		log.Printf("ocqa-serve: data dir %s: replayed %d op(s)", dataDir, stats.ReplayedOps)
		if stats.TornTail {
			log.Printf("ocqa-serve: WAL had a torn tail (crash signature); truncated to the last complete record")
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("ocqa-serve: closing store: %v", err)
			}
		}()
		opts.Store = st
	}
	return run(context.Background(), addr, opts, nil)
}

// run starts the server on addr and blocks until ctx is cancelled or a
// termination signal arrives, then drains in-flight requests. If ready
// is non-nil it receives the bound address once the listener is up
// (the tests use it with addr ":0").
func run(ctx context.Context, addr string, opts server.Options, ready chan<- net.Addr) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := server.New(opts)
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("ocqa-serve: listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("ocqa-serve: shutting down")
	// Cancel server-owned background work (delta refreshes, long-poll
	// watchers) first, so Shutdown's drain is not held hostage by
	// computations no client is reading.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
