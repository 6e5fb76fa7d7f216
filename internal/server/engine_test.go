package server

// Tests for the estimation-engine integration: batch worker clamping
// (the zero-worker deadlock regression), request-scoped cancellation
// of sampling work, the parallel marginals endpoint, and the engine
// counters surfaced at /varz.

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestOptionsFillClampsBatchWorkers: options validation never lets a
// non-positive worker count through — the pool that handleBatch spawns
// must have at least one goroutine or the jobs sends block forever.
func TestOptionsFillClampsBatchWorkers(t *testing.T) {
	for _, w := range []int{-5, -1, 0} {
		o := Options{BatchWorkers: w}
		o.fill()
		if o.BatchWorkers < 1 {
			t.Fatalf("fill left BatchWorkers = %d for input %d", o.BatchWorkers, w)
		}
	}
}

// TestBatchZeroWorkersRegression: even if the validated option is
// bypassed (a future refactor, a test fixture building Options by
// hand), handleBatch itself must clamp to one worker instead of
// deadlocking with zero.
func TestBatchZeroWorkersRegression(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	// Force the broken configuration past fill's clamp.
	s.opts.BatchWorkers = 0
	done := make(chan int, 1)
	go func() {
		var out BatchResponse
		done <- do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/batch", BatchRequest{
			Queries: []QueryRequest{{Generator: "ur", Mode: "exact", Query: "Ans(n) :- Emp(i, n)"}},
		}, &out)
	}()
	select {
	case status := <-done:
		if status != http.StatusOK {
			t.Fatalf("batch status = %d", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("batch request deadlocked with zero workers")
	}
}

// TestQueryDeadlineStopsSampling: a sampling query that would run far
// past the server deadline returns 504 AND the engine actually stops —
// observed via the cancelled-runs counter, not just the status code.
// M^us samples on a prepared primary-key instance (M^ur factorizes).
func TestQueryDeadlineStopsSampling(t *testing.T) {
	ts, _ := newTestServer(t, Options{QueryTimeout: 50 * time.Millisecond, SampleCap: 2_000_000_000})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	before := engine.CancelledRuns.Value()
	var out errorResponse
	// A tiny (ε, δ) pushes the stopping rule's success threshold into
	// the tens of millions, guaranteeing the deadline fires
	// mid-estimation rather than after convergence.
	status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/query", QueryRequest{
		Generator: "us", Mode: "approx", Query: "Ans(n) :- Emp(i, n)", Tuple: "Alice", HasTuple: true,
		Epsilon: 0.001, Delta: 0.001, MaxSamples: 2_000_000_000,
	}, &out)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, out.Error)
	}
	// The engine observes the cancellation within one chunk; give the
	// abandoned goroutine a moment to reach its next chunk boundary.
	deadline := time.Now().Add(10 * time.Second)
	for engine.CancelledRuns.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("engine never recorded the cancelled run: sampling kept going")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMarginalsWorkersDeterministic: the marginals endpoint accepts a
// worker count, parallel runs reproduce bit-for-bit for the same
// (seed, workers), and the result agrees with the serial run to
// Monte-Carlo accuracy.
func TestMarginalsWorkersDeterministic(t *testing.T) {
	ts, _ := newTestServer(t, Options{BatchWorkers: 8})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	run := func(workers int) MarginalsResponse {
		var out MarginalsResponse
		status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/marginals", MarginalsRequest{
			Generator: "ur", Mode: "approx", Seed: 5, MaxSamples: 40_000, Workers: workers,
		}, &out)
		if status != http.StatusOK {
			t.Fatalf("marginals(workers=%d): status %d", workers, status)
		}
		return out
	}
	par1, par2 := run(4), run(4)
	if !reflect.DeepEqual(par1.Marginals, par2.Marginals) {
		t.Fatal("same (seed, workers) must reproduce identical marginals")
	}
	serial := run(1)
	if len(serial.Marginals) != len(par1.Marginals) {
		t.Fatal("worker count changed the marginals arity")
	}
	for i := range serial.Marginals {
		if d := serial.Marginals[i].Value - par1.Marginals[i].Value; d > 0.02 || d < -0.02 {
			t.Fatalf("fact %d: serial %.4f vs parallel %.4f", i, serial.Marginals[i].Value, par1.Marginals[i].Value)
		}
	}
}

// TestVarzEngineCounters: /varz exposes the engine_* counters and
// sampling traffic moves them.
func TestVarzEngineCounters(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	var out MarginalsResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/instances/"+reg.ID+"/marginals", MarginalsRequest{
		Generator: "ur", Mode: "approx", MaxSamples: 10_000,
	}, &out); status != http.StatusOK {
		t.Fatalf("marginals: status %d", status)
	}
	var v varz
	if status := do(t, http.MethodGet, ts.URL+"/varz", nil, &v); status != http.StatusOK {
		t.Fatalf("varz: status %d", status)
	}
	if v.EngineSamplesDrawn < 10_000 {
		t.Fatalf("engine_samples_drawn = %d after 10k-draw marginals", v.EngineSamplesDrawn)
	}
	if v.EngineCancelledRuns < 0 {
		t.Fatalf("engine_cancelled_runs = %d", v.EngineCancelledRuns)
	}
}
