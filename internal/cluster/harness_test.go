package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"

	"repro/internal/server"
)

// Harness is an in-process cluster: N ocqa-serve backends and one
// coordinator, all on loopback listeners, the same topology the cmd
// binaries deploy for real.
type Harness struct {
	// Backends are the backend HTTP listeners, index-aligned with
	// Servers; a killed backend's entry stays (closed) so indices keep
	// meaning mid-test.
	Backends []*httptest.Server
	// Servers are the backend server cores (for Close and inspection).
	Servers []*server.Server
	// Coord is the coordinator's listener; C the coordinator itself.
	Coord *httptest.Server
	C     *Coordinator

	killed []bool
}

// NewHarness builds n backends with backendOpts and a coordinator with
// copts over them. copts.Backends is filled in by the harness;
// copts.HealthInterval defaults to -1 (disabled) so tests drive
// CheckBackends deterministically — set it positive to exercise the
// real loop.
func NewHarness(n int, backendOpts server.Options, copts Options) (*Harness, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster harness: need at least one backend")
	}
	h := &Harness{killed: make([]bool, n)}
	for i := 0; i < n; i++ {
		s := server.New(backendOpts)
		ts := httptest.NewServer(s)
		h.Servers = append(h.Servers, s)
		h.Backends = append(h.Backends, ts)
		copts.Backends = append(copts.Backends, ts.URL)
	}
	if copts.HealthInterval == 0 {
		copts.HealthInterval = -1
	}
	c, err := New(copts)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.C = c
	h.Coord = httptest.NewServer(c)
	return h, nil
}

// KillBackend hard-stops backend i: its listener closes (in-flight
// connections drop) and its server's lifecycle context is cancelled —
// the closest an in-process harness gets to kill -9.
func (h *Harness) KillBackend(i int) {
	if h.killed[i] {
		return
	}
	h.killed[i] = true
	h.Backends[i].CloseClientConnections()
	h.Backends[i].Close()
	h.Servers[i].Close()
}

// BackendIndex maps a backend base URL to its harness index.
func (h *Harness) BackendIndex(base string) int {
	for i, ts := range h.Backends {
		if ts.URL == base {
			return i
		}
	}
	return -1
}

// Failover probes backends until the coordinator notices the dead ones
// and promotes followers (breakerThreshold consecutive probe failures
// trigger it). Deterministic: three sequential probe rounds.
func (h *Harness) Failover(ctx context.Context) {
	for i := 0; i < breakerThreshold; i++ {
		h.C.CheckBackends(ctx)
	}
}

// Close tears the whole cluster down (idempotent per backend).
func (h *Harness) Close() {
	if h.Coord != nil {
		h.Coord.Close()
	}
	if h.C != nil {
		h.C.Close()
	}
	for i := range h.Backends {
		if !h.killed[i] {
			h.Backends[i].Close()
			h.Servers[i].Close()
			h.killed[i] = true
		}
	}
}
