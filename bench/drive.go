package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one pre-encoded operation. check validates a 2xx response
// body, scoring approximate answers into st, and returns the response's
// cost object when the endpoint has one; from is the value of the
// worker's gen hook just before the request was sent.
type request struct {
	method, path string
	body         []byte
	write        bool
	check        checkFunc
}

type checkFunc func(body []byte, from int64, st *stats) (*cost, error)

func post(path string, body []byte, check checkFunc) *request {
	return &request{method: http.MethodPost, path: path, body: body, check: check}
}

// stats is one worker's measurements; workers never share one, and the
// run merges them once the window has closed. Only requests that
// succeeded with a correct answer are timed: a failure counts in failed
// and nowhere else, so a change that fails fast cannot read as faster.
type stats struct {
	// ops are the latencies of the workload's operations — its reads, or
	// churn's write cycles — each from its scheduled send.
	ops []time.Duration
	// reads and writes run from each request's scheduled send to its
	// response; fresh runs from a write's scheduled send to the response
	// of the read that follows its acknowledgement.
	reads, writes, fresh []time.Duration
	// late is how far behind its schedule each send went out.
	late              []time.Duration
	attempted, failed int64
	// wrong counts wrong exact answers (also counted in failed).
	wrong    int64
	firstErr string
	// envIn of envAll approximate answers landed inside their ε envelope.
	envIn, envAll int64
	// misses are the costs of responses computed rather than served from
	// the result cache.
	misses []cost
}

func (s *stats) merge(o *stats) {
	s.ops = append(s.ops, o.ops...)
	s.reads = append(s.reads, o.reads...)
	s.writes = append(s.writes, o.writes...)
	s.fresh = append(s.fresh, o.fresh...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.wrong += o.wrong
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
	s.envIn += o.envIn
	s.envAll += o.envAll
	s.misses = append(s.misses, o.misses...)
}

func (s *stats) fail(err error) {
	s.failed++
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

// approx scores one estimate against its envelope.
func (s *stats) approx(e estimate, v float64) {
	s.envAll++
	if e.within(v) {
		s.envIn++
	}
}

// worker is one load-generating client loop. The workload picks its
// requests; a worker only sends, checks and times them.
type worker struct {
	cl *client
	tr *tracer
	// name prefixes the request ids the worker sends.
	name string
	st   stats
	// gen, when set, is sampled just before every send and handed to the
	// request's check (churn passes its write generation through it).
	gen func() int64
}

func newWorker(cl *client, tr *tracer, name string) *worker {
	return &worker{cl: cl, tr: tr, name: name}
}

// requestSeq numbers every request the process sends, so request ids
// stay unique across windows and the traced run's spans join on them.
var requestSeq atomic.Int64

// exec sends r, timing it from due — its scheduled send time — and
// checks the response. It reports the completion time and whether the
// request succeeded with a correct answer; only then is it timed.
func (w *worker) exec(ctx context.Context, r *request, due time.Time) (time.Time, bool) {
	rid := w.name + "-" + strconv.FormatInt(requestSeq.Add(1), 10)
	var from int64
	if w.gen != nil {
		from = w.gen()
	}
	sent := time.Now()
	status, body, err := w.cl.do(ctx, r.method, r.path, r.body, rid)
	end := time.Now()
	w.st.attempted++
	w.st.late = append(w.st.late, sent.Sub(due))
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	var c *cost
	if err == nil {
		c, err = r.check(body, from, &w.st)
		var wrong *errWrong
		if errors.As(err, &wrong) {
			w.st.wrong++
		}
	}
	switch {
	case err != nil:
		w.st.fail(fmt.Errorf("%s %s: %w", r.method, r.path, err))
	case r.write:
		w.st.writes = append(w.st.writes, end.Sub(due))
	default:
		w.st.reads = append(w.st.reads, end.Sub(due))
	}
	if c != nil && !c.Cached {
		w.st.misses = append(w.st.misses, *c)
	}
	w.tr.client(rid, r, due, end, c)
	return end, err == nil
}

// warm sends every request once, in order, and fails on the first one
// that does not succeed with a correct answer.
func (w *worker) warm(ctx context.Context, rs []*request) error {
	for _, r := range rs {
		if _, ok := w.exec(ctx, r, time.Now()); !ok {
			return fmt.Errorf("warm-up: %s", w.st.firstErr)
		}
	}
	return nil
}

// closedLoop runs w until the window closes, sending the next request as
// soon as the previous one returned; next picks the request. Every
// successful request is one of the workload's operations. One client is
// the whole load: on a host of two processors a second one would spend
// the window waiting for the processor the first one holds, and the
// numbers would follow the scheduler rather than the program.
func closedLoop(ctx context.Context, w *worker, window time.Duration, next func() *request) *stats {
	due := time.Now()
	deadline := due.Add(window)
	for due.Before(deadline) && ctx.Err() == nil {
		due, _ = w.exec(ctx, next(), due)
	}
	w.st.ops = w.st.reads
	return &w.st
}

// openLoop calls send once per period from start until the window
// closes, passing each call its scheduled send time, and stops early if
// send returns false. A call that falls behind schedule runs at once;
// its lateness stays in the latency it reports.
func openLoop(ctx context.Context, start time.Time, window, period time.Duration, send func(due time.Time) bool) {
	end := start.Add(window)
	for k := 0; ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(end) {
			return
		}
		waitUntil(due)
		if !send(due) {
			return
		}
	}
}

// spinFor is how long before a scheduled send waitUntil stops sleeping
// and spins: a sleep on this kind of host wakes up to a millisecond
// late, which would otherwise be charged to every open-loop request.
const spinFor = 500 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then yields
// the processor until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinFor; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// processorTime is the processor time the process has used so far, user
// and system, over all its threads. Unlike the wall clock it does not
// count the time a shared host's hypervisor runs someone else on this
// guest's processors, or the time the process waits for a disk.
func processorTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timerOvershoot is the median lateness of a bare 1 ms sleep on this
// host: what waitUntil's spin makes up for.
func timerOvershoot() float64 {
	xs := make([]time.Duration, 100)
	for i := range xs {
		t := time.Now()
		time.Sleep(time.Millisecond)
		xs[i] = time.Since(t) - time.Millisecond
	}
	return quantile(xs, 0.5)
}

// quantile is the exact nearest-rank q-quantile of xs, in milliseconds
// (0 for an empty sample). xs is sorted in place.
func quantile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return ms(xs[rank(len(xs), q)])
}

// floatQuantile is quantile over plain numbers.
func floatQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)]
}

func rank(n int, q float64) int {
	return max(0, int(math.Ceil(q*float64(n)))-1)
}

// median is the middle of a handful of repeated measurements.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
