package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	m := &member{base: "http://x"}
	now := time.Unix(1000, 0)
	cooldown := 2 * time.Second

	if !m.available(now) {
		t.Fatal("fresh member must be available")
	}
	// Two failures stay under the threshold.
	m.recordFailure(now, cooldown)
	m.recordFailure(now, cooldown)
	if !m.available(now) {
		t.Fatal("breaker tripped below the threshold")
	}
	// The third opens the circuit.
	m.recordFailure(now, cooldown)
	if m.available(now.Add(time.Millisecond)) {
		t.Fatal("breaker did not open after three consecutive failures")
	}
	if !m.open(now.Add(time.Millisecond)) {
		t.Fatal("open() disagrees with available()")
	}
	// After the cooldown, exactly one half-open probe is admitted.
	later := now.Add(cooldown + time.Millisecond)
	if !m.available(later) {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if m.available(later) {
		t.Fatal("second request admitted while the probe is still out")
	}
	// A failing probe re-opens; a succeeding one closes.
	m.recordFailure(later, cooldown)
	if m.available(later.Add(time.Millisecond)) {
		t.Fatal("breaker closed after a failed probe")
	}
	later2 := later.Add(cooldown + time.Millisecond)
	if !m.available(later2) {
		t.Fatal("no probe after second cooldown")
	}
	m.recordSuccess(time.Millisecond)
	if !m.available(later2) || !m.available(later2) {
		t.Fatal("breaker did not close after a successful probe")
	}
}

// within2 reports whether got is within 2% of want.
func within2(got, want time.Duration) bool {
	return math.Abs(float64(got-want)) <= 0.02*float64(want)
}

func TestLatencyQuantile(t *testing.T) {
	m := &member{base: "http://x"}
	if q := m.latencyQuantile(0.99); q != 0 {
		t.Fatalf("empty window p99 = %v, want 0", q)
	}
	for i := 1; i <= 100; i++ {
		m.recordSuccess(time.Duration(i) * time.Millisecond)
	}
	if q := m.latencyQuantile(0.5); !within2(q, 50*time.Millisecond) {
		t.Fatalf("p50 = %v, want within 2%% of 50ms", q)
	}
	if q := m.latencyQuantile(0.99); !within2(q, 99*time.Millisecond) {
		t.Fatalf("p99 = %v, want within 2%% of 99ms", q)
	}
	// The window keeps at least the last hedgeWindow successes: after
	// that many fast ones, the slow early ones still set p99 (rank 606
	// of 612 is the 94th slow one).
	for i := 0; i < hedgeWindow; i++ {
		m.recordSuccess(time.Millisecond)
	}
	if q := m.latencyQuantile(0.99); !within2(q, 94*time.Millisecond) {
		t.Fatalf("p99 after %d fast successes = %v, want within 2%% of 94ms", hedgeWindow, q)
	}
	// ... and at most the last 2·hedgeWindow: after that many, they
	// are gone.
	for i := 0; i < hedgeWindow; i++ {
		m.recordSuccess(time.Millisecond)
	}
	if q := m.latencyQuantile(0.99); !within2(q, time.Millisecond) {
		t.Fatalf("p99 after %d fast successes = %v, want within 2%% of 1ms", 2*hedgeWindow, q)
	}
}

// TestLatencyWindowAccuracy pins the hedge window's quantiles at ≤2%
// of the exact order statistic over the successes it holds, for
// log-uniform and bimodal latencies from 10 µs to 60 s, as the window
// fills and slides.
func TestLatencyWindowAccuracy(t *testing.T) {
	const lo, hi = 10e-6, 60.0
	samplers := map[string]func(*rand.Rand) float64{
		"log-uniform": func(rng *rand.Rand) float64 {
			return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
		},
		"bimodal": func(rng *rand.Rand) float64 {
			mode := 200e-6
			if rng.Intn(4) == 0 {
				mode = 2
			}
			return min(max(mode*math.Exp(rng.NormFloat64()), lo), hi)
		},
	}
	for name, draw := range samplers {
		rng := rand.New(rand.NewSource(1))
		m := &member{base: "http://x"}
		var seen []time.Duration
		for n := 1; n <= 5*hedgeWindow; n++ {
			d := time.Duration(draw(rng) * float64(time.Second))
			seen = append(seen, d)
			m.recordSuccess(d)
			if n%97 != 0 && n != hedgeWindow && n != hedgeWindow+1 {
				continue
			}
			// The window holds the filling half plus, once the first
			// half is full, the hedgeWindow successes before it.
			held := n
			if n > hedgeWindow {
				held = hedgeWindow + (n-1)%hedgeWindow + 1
			}
			exact := append([]time.Duration(nil), seen[n-held:]...)
			sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				want := exact[int(math.Ceil(q*float64(held)))-1]
				if got := m.latencyQuantile(q); !within2(got, want) {
					t.Errorf("%s after %d successes: p%g = %v, exact %v over the last %d", name, n, 100*q, got, want, held)
				}
			}
		}
	}
}

// TestHedgeDelayReadAllocs pins the hedge delay's read cost on a full
// window: no copy, no sort, no allocation.
func TestHedgeDelayReadAllocs(t *testing.T) {
	m := &member{base: "http://x"}
	for i := 0; i < 2*hedgeWindow; i++ {
		m.recordSuccess(time.Duration(100+i*7919%1024) * time.Microsecond)
	}
	if a := testing.AllocsPerRun(100, func() { m.latencyQuantile(hedgeQuantile) }); a != 0 {
		t.Fatalf("reading the hedge delay allocates %v times, want 0", a)
	}
}

func BenchmarkHedgeDelayRead(b *testing.B) {
	m := &member{base: "http://x"}
	for i := 0; i < 2*hedgeWindow; i++ {
		m.recordSuccess(time.Duration(100+i*7919%1024) * time.Microsecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.latencyQuantile(hedgeQuantile)
	}
}
