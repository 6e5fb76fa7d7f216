package cluster

import (
	"math"
	"sync"
	"time"

	"repro/internal/metrics"
)

// hedgeWindow is how many successes fill one half of a backend's
// latency window. The hedge delay tracks p99 over the last 512 to
// 1,024 successes: enough to cover the recent past without letting a
// one-off spike dominate for long.
const hedgeWindow = 512

// hedgeQuantile is the latency quantile the hedge delay tracks.
const hedgeQuantile = 0.99

// member is one backend as the coordinator sees it: its base URL, a
// circuit breaker fed by consecutive failures (hard transport errors
// and 503 sheds both count), and a window of recent success latencies
// whose p99 sets the hedge delay.
type member struct {
	base string

	mu sync.Mutex
	// fails counts consecutive failures; threshold trips the breaker.
	fails     int
	openUntil time.Time
	// probing marks a half-open breaker that has already admitted its
	// single probe request; further requests stay rejected until the
	// probe reports back.
	probing bool
	// window holds recent success latencies in seconds as two
	// histograms: window[cur] fills, and once it holds hedgeWindow
	// observations the older one is emptied and takes over.
	window [2]metrics.Histogram
	cur    int
}

// breaker tuning. Three consecutive failures open the circuit — low
// enough that a dead backend stops eating hedge budget within a few
// requests, high enough that one flaky response doesn't blackhole a
// healthy node.
const (
	breakerThreshold       = 3
	defaultBreakerCooldown = 2 * time.Second
)

// available reports whether the breaker admits a request at now. A
// closed breaker always does; an open one admits a single half-open
// probe once the cooldown elapses.
func (m *member) available(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fails < breakerThreshold {
		return true
	}
	if now.Before(m.openUntil) || m.probing {
		return false
	}
	m.probing = true
	return true
}

// open reports whether the breaker currently rejects requests (the
// health loop uses this as "the backend is down").
func (m *member) open(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fails >= breakerThreshold && (now.Before(m.openUntil) || m.probing)
}

// recordSuccess closes the breaker and feeds the latency window.
func (m *member) recordSuccess(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails = 0
	m.probing = false
	if m.window[m.cur].Count() == hedgeWindow {
		m.cur ^= 1
		m.window[m.cur] = metrics.Histogram{}
	}
	m.window[m.cur].Observe(d.Seconds())
}

// recordFailure counts one failure toward the breaker, (re)opening it
// for cooldown once the streak reaches the threshold.
func (m *member) recordFailure(now time.Time, cooldown time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails++
	m.probing = false
	if m.fails >= breakerThreshold {
		if cooldown <= 0 {
			cooldown = defaultBreakerCooldown
		}
		m.openUntil = now.Add(cooldown)
	}
}

// latencyQuantile returns the q-quantile (0 < q ≤ 1) of the latency
// window, or 0 when no successes have been recorded yet; the caller
// then falls back to its hedge floor. It copies, sorts and allocates
// nothing.
func (m *member) latencyQuantile(q float64) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := metrics.Quantile(q, &m.window[0], &m.window[1])
	if math.IsNaN(s) {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}
