package engine

import (
	"sync/atomic"
	"time"
)

// Accounting is the structured cost record every estimation run
// produces: how many draws it performed (a discarded stopping-rule
// tail included — this is the number a capacity planner pays for, not
// the statistical prefix Estimate.Samples reports), how many rounds it
// ran, how the draws split across workers, and how long it ran. The
// server threads it into every response's `cost` object; the facade's
// Instance accumulates it into per-instance totals.
//
// The round driver fills it once, at run exit — the draws never touch
// shared state — so carrying it costs two time.Now calls and no
// per-draw work.
type Accounting struct {
	// Draws counts every sampler invocation of the run, including the
	// discarded rest of the last round of a parallel stopping rule and
	// the partial work of a cancelled run. A serial run discards
	// nothing, so its Draws equals the consumed Samples. Under a sample
	// cap the last round is cut to fit, so a capped run never draws
	// more than the cap.
	Draws int64
	// Chunks counts the context checks the run passed: one per round
	// of at most Chunk draws per worker, whatever the estimator.
	Chunks int64
	// Workers is the effective worker count the run executed with
	// (after the ≤1 → serial collapse).
	Workers int
	// PerWorker is the per-worker draw split, indexed by worker; nil
	// for serial runs. Callers must treat it as read-only — multi-
	// target runs share one slice across all returned estimates.
	PerWorker []int64
	// WallNanos is the wall-clock duration of the run.
	WallNanos int64
	// Cancelled reports that the run was stopped by its context before
	// completing its budget or meeting its rule.
	Cancelled bool
	// ReusedDraws counts draws whose statistics were carried over from
	// a previous generation's strata instead of being redrawn — the
	// delta-stratified estimation path sets it; the engine's own loops
	// never do. Draws remains the fresh work of THIS run, so
	// Draws + ReusedDraws is the statistical weight behind the
	// estimate.
	ReusedDraws int64
}

// Wall returns the run's wall-clock duration.
func (a Accounting) Wall() time.Duration { return time.Duration(a.WallNanos) }

// RunInfo is what the run hook observes: the phase that ran, the
// number of multi-run targets (0 for single-target phases), and the
// run's accounting.
type RunInfo struct {
	Phase   Phase
	Targets int
	Acct    Accounting
}

// RunHook observes one completed (or cancelled) estimation run. Hooks
// must be cheap and must not block: they run inline on the estimation
// goroutine, once per run — never per draw — so a histogram update
// keeps engine overhead well under the instrumentation budget.
type RunHook func(RunInfo)

var runHook atomic.Pointer[RunHook]

// SetRunHook installs the process-wide run hook (nil to remove). The
// server uses it to feed per-run draw and latency histograms.
func SetRunHook(h RunHook) {
	if h == nil {
		runHook.Store(nil)
		return
	}
	runHook.Store(&h)
}

// record is the single exit point of every estimation run: it updates
// the process-wide counters and fires the run hook. targets counts
// only for multi-target phases.
func record(phase Phase, targets int, acct Accounting) {
	samplesDrawn.Add(acct.Draws)
	if acct.Cancelled {
		cancelledRuns.Add(1)
	}
	if phase == PhaseMultiFixed || phase == PhaseMultiStopping {
		multiRuns.Add(1)
		multiTargets.Add(int64(targets))
	} else {
		targets = 0
	}
	if h := runHook.Load(); h != nil {
		(*h)(RunInfo{Phase: phase, Targets: targets, Acct: acct})
	}
}
