package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// mix is one workload's traffic: its seeded inputs, how it registers
// and warms them up, the measured window, and the instance the traced
// run replays against the library.
type mix interface {
	// setup registers every instance through the coordinator (the
	// coordinator seeds each follower before answering) and sends every
	// distinct request once; it fails if any request does.
	setup(ctx context.Context, c *client, bases []string) error
	// drive runs the measured window and returns the merged per-worker
	// stats.
	drive(ctx context.Context, c *client, tr *tracer, window time.Duration) *stats
	// replay names the instance the traced run mutates and replays; it
	// is called after setup.
	replay() replaySpec
	// facts is the number of facts the workload registers.
	facts() int
	// gate runs once the window has closed, on the topology that served
	// it, and reports a workload-level correctness failure the
	// per-request checks cannot see, or "". Requests it sends itself are
	// recorded in st.
	gate(ctx context.Context, c *client, st *stats) string
}

type workloadDef struct {
	name string
	// build generates the inputs and expected answers from the seed.
	build func(seed int64, tiny bool) (mix, error)
}

var workloads = []workloadDef{
	{"hot-reads", buildHotReads},
	{"churn", buildChurn},
	{"scale-ur", buildScaleUR},
	{"beyond-keys", buildBeyondKeys},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// setupRuns is how many times an untraced run sets the whole topology
// up; setup_s and live_heap_mb are the medians. The middle set-up serves
// the window and the rest are torn down at once, so the set-ups sample
// the host before and after the window rather than within one second
// of it. A set-up is timed in processor time, not wall time: its wall
// time waits on fsync and on a shared host's other tenants, and on a
// 2-vCPU guest the same set-up's wall time moved by a third from one
// set of runs to the next.
const setupRuns = 5

// runWorkload generates the named workload's inputs and runs it.
func runWorkload(cfg config) (*result, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			m, err := w.build(cfg.seed, cfg.tiny)
			if err != nil {
				return nil, fmt.Errorf("%s: generating inputs: %w", cfg.workload, err)
			}
			return runMix(cfg, m)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
}

// runMix executes one run: set up (timed), measure the window, and
// compute the metrics of the run's kind.
func runMix(cfg config, m mix) (*result, error) {
	dir := filepath.Join(cfg.dataDir, cfg.workload+"-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	ctx := context.Background()

	var tr *tracer
	runs := setupRuns
	if cfg.trace {
		tr = newTracer()
		runs = 1
	}
	res := &result{Metrics: map[string]metric{}}
	var setups, walls, heaps []float64
	var st *stats
	var why string
	for i := 0; i < runs; i++ {
		start, cpu := time.Now(), processorTime()
		topo, err := startTopology(filepath.Join(dir, "setup"+strconv.Itoa(i)), tr)
		if err != nil {
			return nil, err
		}
		cl := newClient(topo.front.URL)
		err = m.setup(ctx, cl, topo.bases())
		if err == nil {
			setups = append(setups, (processorTime() - cpu).Seconds())
			walls = append(walls, time.Since(start).Seconds())
			heaps = append(heaps, liveHeap())
			if i == runs/2 {
				st, why, err = serve(ctx, cfg, m, topo, cl, tr, dir, res, median(heaps))
			}
		} else {
			err = fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		cl.close()
		topo.close()
		if err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		res.Metrics["client.setup_wall_s"] = metric{median(walls), "s"}
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["live_heap_mb"] = metric{median(heaps) / (1 << 20), "MB"}
	}
	res.Attempted, res.Failed = st.attempted, st.failed
	res.Correct = true
	switch {
	case st.wrong > 0:
		res.Correct, res.why = false, fmt.Sprintf("%d wrong exact answers; first: %s", st.wrong, st.firstErr)
	case st.failed > 0:
		// Every workload is chosen so that no request fails; one that does
		// was not measured, so the run's numbers do not stand.
		res.Correct, res.why = false, fmt.Sprintf("%d of %d requests failed; first: %s", st.failed, st.attempted, st.firstErr)
	case why != "":
		res.Correct, res.why = false, why
	}
	return res, nil
}

// serve measures the window on a set-up topology, storing its metrics in
// res — the timings of an untraced run, or the traced run's per-layer
// metrics — then runs the workload's gate on the same topology. It
// returns the window's counts and the gate's verdict.
func serve(ctx context.Context, cfg config, m mix, topo *topology, cl *client, tr *tracer, dir string, res *result, heap float64) (*stats, string, error) {
	var st *stats
	if cfg.trace {
		var err error
		if res.Metrics, st, err = tracedRun(ctx, cfg, m, topo, cl, tr, dir, heap); err != nil {
			return nil, "", err
		}
	} else {
		runtime.GC()
		cpu := processorTime()
		st = m.drive(ctx, cl, nil, cfg.window)
		res.Metrics["cpu_ms_per_op"] = metric{ratio(ms(processorTime()-cpu), float64(len(st.ops))), "ms"}
		res.Metrics["latency_p50_ms"] = metric{quantile(st.ops, 0.50), "ms"}
	}
	why := m.gate(ctx, cl, st)
	// Only the counts outlive the window, so the set-ups after it measure
	// the live heap without the window's samples in it.
	return &stats{attempted: st.attempted, failed: st.failed, wrong: st.wrong, firstErr: st.firstErr}, why, nil
}

// liveHeap is the bytes the heap holds after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// envelopeGate fails a run whose approximate answers landed inside
// their ε envelope less often than the 1−δ the estimators promise.
func envelopeGate(st *stats, delta float64) string {
	if st.envAll == 0 {
		return ""
	}
	share := float64(st.envIn) / float64(st.envAll)
	if share < 1-delta {
		return fmt.Sprintf("only %d of %d approximate answers (%.3f) inside the ε envelope, below 1−δ = %.2f", st.envIn, st.envAll, share, 1-delta)
	}
	return ""
}
