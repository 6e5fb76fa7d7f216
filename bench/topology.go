package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

// maxBody lifts every request-body cap to 64 MiB: a million-fact
// registration is about 15.4 MiB of JSON, just under the 16 MiB default.
const maxBody = 64 << 20

// topology is the deployed shape: one coordinator in front of three
// backends, each with its own durable store (fsync on every WAL
// append), every listener on loopback.
type topology struct {
	dir      string
	stores   []*store.Store
	servers  []*server.Server
	backends []*httptest.Server
	coord    *cluster.Coordinator
	front    *httptest.Server
}

// startTopology opens the stores under dir and starts the listeners.
// With a non-nil tracer every backend's and the coordinator's handler
// is wrapped in a timing handler.
func startTopology(dir string, tr *tracer) (*topology, error) {
	t := &topology{dir: dir}
	var urls []string
	for i := 0; i < 3; i++ {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, "backend"+strconv.Itoa(i)), Fsync: true})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("opening store %d: %w", i, err)
		}
		t.stores = append(t.stores, st)
		s := server.New(server.Options{Store: st, MaxBodyBytes: maxBody})
		t.servers = append(t.servers, s)
		ts := httptest.NewServer(tr.wrap("backend"+strconv.Itoa(i), s))
		t.backends = append(t.backends, ts)
		urls = append(urls, ts.URL)
	}
	c, err := cluster.New(cluster.Options{Backends: urls, MaxBodyBytes: maxBody})
	if err != nil {
		t.close()
		return nil, err
	}
	t.coord = c
	t.front = httptest.NewServer(tr.wrap("coordinator", c))
	return t, nil
}

// bases lists the backend base URLs in start order.
func (t *topology) bases() []string {
	out := make([]string, len(t.backends))
	for i, b := range t.backends {
		out[i] = b.URL
	}
	return out
}

// close stops every listener and server, closes the stores and removes
// the data directory. Safe on a partially started topology.
func (t *topology) close() {
	if t.front != nil {
		t.front.Close()
	}
	if t.coord != nil {
		t.coord.Close()
	}
	for i, b := range t.backends {
		b.Close()
		t.servers[i].Close()
	}
	for _, st := range t.stores {
		st.Close()
	}
	os.RemoveAll(t.dir)
}

// placedID returns an instance id whose rendezvous placement puts its
// owner on backend owner and its follower on backend follower. Ports
// are random, so pinning ids keeps which instances share a backend —
// and which backend follows which — identical across runs.
func placedID(bases []string, prefix string, k, owner, follower int) string {
	for n := 0; ; n++ {
		id := prefix + strconv.Itoa(k)
		if n > 0 {
			id += "." + strconv.Itoa(n)
		}
		rank := cluster.Rank(bases, id)
		if rank[0] == bases[owner] && rank[1] == bases[follower] {
			return id
		}
	}
}

// client is the load generator's HTTP side: at most two connections to
// the coordinator, kept alive and reused.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request with the given request id and returns the status
// and the whole response body.
func (c *client) do(ctx context.Context, method, path string, body []byte, rid string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches an introspection endpoint (/varz) from any base URL.
func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d", base, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// register registers one instance through the coordinator under a
// pinned id.
func register(ctx context.Context, c *client, id, facts, fds string) error {
	body, err := json.Marshal(registerRequest{ID: id, Facts: facts, FDs: fds})
	if err != nil {
		return err
	}
	status, resp, err := c.do(ctx, http.MethodPost, "/v1/instances", body, "register-"+id)
	if err != nil {
		return fmt.Errorf("registering %s: %w", id, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("registering %s: status %d: %s", id, status, resp)
	}
	return nil
}
