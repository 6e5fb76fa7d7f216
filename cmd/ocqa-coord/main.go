// Command ocqa-coord runs the cluster coordinator: a stateless proxy
// that consistent-hashes instance ids across a static list of
// ocqa-serve backends, routes all /v1/instances/* traffic to each
// instance's owning backend (a batch whole, as one read the owner runs
// over its own worker pool), hedges straggling reads against the p99
// of the owner's last 512 to 1,024 successes, passes backend load
// shedding through (opening a per-backend circuit breaker on
// consecutive failures), and keeps one warm follower replica per
// instance so a dead owner fails over without losing an acked
// mutation.
//
// Usage:
//
//	ocqa-coord -backends http://h1:8080,http://h2:8080,http://h3:8080
//	           [-listen :8090] [-hedge-floor 25ms] [-breaker-cooldown 2s]
//	           [-health-interval 500ms] [-health-timeout 1s]
//
// The coordinator serves the same /v1/instances surface as a single
// backend — clients need no changes — plus GET /v1/cluster/shards (the
// placement table), GET /healthz (503 once every backend's breaker is
// open), and GET /varz and GET /metrics: one registry of proxy
// counters (hedges, hedge wins, shed passthroughs, breaker rejections,
// failovers, follower syncs) and backend and shard gauges, as JSON and
// as Prometheus text.
//
// Placement is rendezvous hashing: deterministic in the backend list,
// so any number of coordinators over the same -backends agree without
// talking to each other. The backend list is static for the process;
// add or remove backends by restarting the coordinator — rendezvous
// ranking moves only the ids owned by a removed backend.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	var (
		listen          = flag.String("listen", ":8090", "listen address")
		backends        = flag.String("backends", "", "comma-separated backend base URLs (required)")
		hedgeFloor      = flag.Duration("hedge-floor", 0, "minimum hedge delay (0 = default 25ms, negative disables hedging)")
		breakerCooldown = flag.Duration("breaker-cooldown", 0, "open-circuit cooldown before a half-open probe (0 = default 2s)")
		healthInterval  = flag.Duration("health-interval", 0, "background health-probe period (0 = default 500ms, negative disables)")
		healthTimeout   = flag.Duration("health-timeout", 0, "per-probe timeout (0 = default 1s)")
	)
	flag.Parse()
	if err := run(context.Background(), *listen, cluster.Options{
		Backends:        splitBackends(*backends),
		HedgeFloor:      *hedgeFloor,
		BreakerCooldown: *breakerCooldown,
		HealthInterval:  *healthInterval,
		HealthTimeout:   *healthTimeout,
		Log:             slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ocqa-coord:", err)
		os.Exit(1)
	}
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, strings.TrimRight(b, "/"))
		}
	}
	return out
}

// run starts the coordinator on addr and blocks until ctx is cancelled
// or a termination signal arrives. If ready is non-nil it receives the
// bound address once the listener is up.
func run(ctx context.Context, addr string, opts cluster.Options, ready chan<- net.Addr) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := cluster.New(opts)
	if err != nil {
		return err
	}
	defer c.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           c,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("ocqa-coord: listening on %s, %d backend(s)", ln.Addr(), len(opts.Backends))
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
	log.Printf("ocqa-coord: shutting down")
	c.Close()
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
