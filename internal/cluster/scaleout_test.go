package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/metrics"
	"repro/internal/parse"
	"repro/internal/server"
	"repro/internal/workload"
)

// The scale-out band: adding backends must not cost the coordinator
// tail latency, so p99 over three backends stays within
// scaleOutSlack·p99 over one, plus scaleOutFloor to absorb loopback
// jitter at sub-millisecond p99s.
const (
	scaleOutSlack    = 1.25
	scaleOutFloor    = 2 * time.Millisecond
	scaleOutRequests = 1000 // p99 then has 10 samples beyond it
)

// TestScaleOutP99 guards the proxy path's tail: a coordinator over
// three backends, with follower replication and hedging on, against a
// coordinator over one. Both clusters replay the same seeded traffic
// (workload.RandomScenario primary-key instances; 90% exact queries,
// 10% fresh-key inserts) in a closed loop, request by request in
// alternation so host noise lands on both alike. One retry of the
// whole comparison absorbs a one-off host stall. A closed loop is
// enough because this guards the hop, not saturation; latency under
// load is the repository benchmark's to measure.
func TestScaleOutP99(t *testing.T) {
	for attempt := 0; ; attempt++ {
		p1, p3 := scaleOutP99s(t)
		limit := time.Duration(float64(p1)*scaleOutSlack) + scaleOutFloor
		t.Logf("p99 over %d requests: 1 backend %v, 3 backends %v (band %v)", scaleOutRequests, p1, p3, limit)
		if p3 <= limit {
			return
		}
		if attempt >= 1 {
			t.Fatalf("the 3-backend coordinator's p99 (%v) exceeds the 1-backend coordinator's band (%v): adding backends must not cost latency", p3, limit)
		}
		t.Logf("p99 above the band; retrying the comparison once")
	}
}

// scaleOutP99s runs the interleaved comparison once on fresh clusters,
// so no result cache carries over from an earlier attempt.
func scaleOutP99s(t *testing.T) (p1, p3 time.Duration) {
	t.Helper()
	one := newScaleOutClient(t, 1)
	three := newScaleOutClient(t, 3)
	for i := 0; i < scaleOutRequests; i++ {
		one.step(t)
		three.step(t)
	}
	return one.p99(), three.p99()
}

// scaleOutClient drives one cluster: its instances, its traffic stream
// and the latencies it measured.
type scaleOutClient struct {
	url   string
	rng   *rand.Rand
	insts []scaleOutInstance
	lat   metrics.Histogram
}

type scaleOutInstance struct {
	id, query, rel string
	arity, seq     int
}

func newScaleOutClient(t *testing.T, backends int) *scaleOutClient {
	t.Helper()
	h := newClusterHarness(t, backends, server.Options{}, Options{HealthInterval: 500 * time.Millisecond})
	c := &scaleOutClient{url: h.Coord.URL, rng: rand.New(rand.NewSource(42))}
	for i := 0; i < 4; i++ {
		sc := workload.RandomScenario(c.rng, workload.ScenarioSpec{
			Class: fd.PrimaryKeys, Shape: workload.ShapeBlocks, AnswerVars: i%2 == 1,
		})
		var reg server.RegisterResponse
		if status := cdo(t, http.MethodPost, c.url+"/v1/instances", server.RegisterRequest{
			Facts: parse.FormatDatabase(sc.DB), FDs: parse.FormatFDs(sc.Sigma),
		}, &reg); status != http.StatusCreated {
			t.Fatalf("registering scenario %d: status %d", i, status)
		}
		r := sc.Schema.Relations()[0]
		c.insts = append(c.insts, scaleOutInstance{id: reg.ID, query: sc.Query.String(), rel: r.Name, arity: r.Arity()})
	}
	return c
}

// step sends the stream's next request and records its latency: an
// exact M^ur query, or one time in ten a fact with a fresh key (a new
// singleton block).
func (c *scaleOutClient) step(t *testing.T) {
	t.Helper()
	in := &c.insts[c.rng.Intn(len(c.insts))]
	var path string
	var body any
	if c.rng.Float64() < 0.1 {
		in.seq++
		args := make([]string, in.arity)
		args[0] = fmt.Sprintf("so%d", in.seq)
		for k := 1; k < in.arity; k++ {
			args[k] = "w"
		}
		path = "/v1/instances/" + in.id + "/facts"
		body = server.InsertFactRequest{Fact: in.rel + "(" + strings.Join(args, ",") + ")"}
	} else {
		path = "/v1/instances/" + in.id + "/query"
		body = server.QueryRequest{Generator: "ur", Mode: "exact", Query: in.query}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(c.url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.lat.Observe(time.Since(start).Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

func (c *scaleOutClient) p99() time.Duration {
	return time.Duration(c.lat.Quantile(0.99) * float64(time.Second))
}
