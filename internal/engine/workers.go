package engine

// Adaptive worker selection. Callers historically hardcoded a worker
// count, which lets a caller talk the engine into a slowdown: on a
// single-core host 8 workers lose to 1 (goroutine churn, chunk
// synchronisation), and even on big hosts a tiny draw budget never
// amortises the spawn cost. Workers = 0 now means "auto": the engine
// sizes the pool from the work it can actually see — the draw budget
// times the per-draw cost proxy (block count) — and never exceeds
// GOMAXPROCS.

import (
	"math"
	"runtime"

	"repro/internal/metrics"
)

// AutoWorkers is the workers value that requests adaptive selection.
const AutoWorkers = 0

// autoWorkUnitsPerWorker calibrates the heuristic: one additional
// worker per this many work units, where a unit is one block visited
// by one draw (≈ a few ns of sampling work). The threshold corresponds
// to several milliseconds of serial work per worker — well above the
// per-run cost of spawning and merging a goroutine, so auto never
// parallelises a run that would finish faster serially.
const autoWorkUnitsPerWorker = 1 << 21

var (
	// AutoWorkerRuns counts the runs that resolved their worker count
	// adaptively; LastAutoWorkers holds the count the most recent such
	// resolution chose (0 before the first one).
	AutoWorkerRuns = metrics.Process.NewCounter("ocqa_engine_auto_worker_runs_total",
		"Estimation runs whose worker count was resolved adaptively.")
	LastAutoWorkers = metrics.Process.NewGauge("ocqa_engine_last_auto_workers",
		"Worker count chosen by the most recent adaptive resolution.")
)

// ChooseWorkers returns the adaptive worker count for a run expected
// to perform `draws` draws over an instance whose per-draw cost is
// proportional to `blocks` (conflict blocks for repair samplers, alive
// pairs for operation walks). The result is in [1, GOMAXPROCS]: 1
// whenever the work cannot amortise a second goroutine, the core count
// when the work dwarfs the spawn cost.
func ChooseWorkers(blocks int, draws int64) int {
	maxW := runtime.GOMAXPROCS(0)
	if maxW < 1 {
		maxW = 1
	}
	if blocks < 1 {
		blocks = 1
	}
	if draws < 0 {
		draws = 0
	}
	// Saturate the work estimate: ~25k blocks times a multi-million draw
	// budget overflows int64, and a negative product would auto-select 1
	// worker on exactly the workloads that need the most. Past MaxInt64
	// units the answer is GOMAXPROCS either way, so clamping loses
	// nothing.
	work := int64(math.MaxInt64)
	if draws == 0 || int64(blocks) <= math.MaxInt64/draws {
		work = draws * int64(blocks)
	}
	w := int(work / autoWorkUnitsPerWorker)
	if w < 1 {
		return 1
	}
	if w > maxW {
		return maxW
	}
	return w
}

// ResolveWorkers maps a caller-requested worker count to the count a
// run will actually use: positive values are trusted verbatim,
// AutoWorkers (or any non-positive value) engages ChooseWorkers. Auto
// resolutions are counted for /varz.
func ResolveWorkers(requested, blocks int, draws int64) int {
	if requested > 0 {
		return requested
	}
	w := ChooseWorkers(blocks, draws)
	AutoWorkerRuns.Inc()
	LastAutoWorkers.Set(float64(w))
	return w
}
