package engine

import (
	"math"
	"runtime"
	"testing"
)

func TestChooseWorkersBounds(t *testing.T) {
	maxW := runtime.GOMAXPROCS(0)
	cases := []struct {
		blocks int
		draws  int64
	}{
		{0, 0}, {1, 1}, {0, -5}, {1, 1000}, {250, 20000},
		{1000, 5_000_000}, {1 << 20, 1 << 40},
	}
	for _, c := range cases {
		w := ChooseWorkers(c.blocks, c.draws)
		if w < 1 || w > maxW {
			t.Fatalf("ChooseWorkers(%d, %d) = %d, outside [1, %d]", c.blocks, c.draws, w, maxW)
		}
	}
}

func TestChooseWorkersSmallWorkStaysSerial(t *testing.T) {
	// Anything below the per-worker threshold must not spawn a pool:
	// the goroutine and merge overhead would exceed the sampling work.
	for _, c := range []struct {
		blocks int
		draws  int64
	}{{1, 1000}, {10, 10_000}, {250, 5000}} {
		if w := ChooseWorkers(c.blocks, c.draws); w != 1 {
			t.Fatalf("ChooseWorkers(%d, %d) = %d, want 1 for sub-threshold work", c.blocks, c.draws, w)
		}
	}
}

func TestChooseWorkersMonotoneInWork(t *testing.T) {
	prev := 0
	for _, draws := range []int64{1, 1 << 10, 1 << 15, 1 << 20, 1 << 25, 1 << 30, 1 << 40} {
		w := ChooseWorkers(64, draws)
		if w < prev {
			t.Fatalf("ChooseWorkers not monotone: draws=%d gives %d after %d", draws, w, prev)
		}
		prev = w
	}
	if huge := ChooseWorkers(1<<20, 1<<40); huge != runtime.GOMAXPROCS(0) {
		t.Fatalf("saturating work chose %d workers, want GOMAXPROCS=%d", huge, runtime.GOMAXPROCS(0))
	}
}

func TestChooseWorkersOverflowSaturates(t *testing.T) {
	// The work estimate draws×blocks used to be an unchecked int64
	// multiply: ~25k blocks × a huge draw budget wrapped negative and
	// auto-selected 1 worker on exactly the workloads that need the
	// most. Pin GOMAXPROCS above 1 so the regression is visible on
	// single-core CI hosts too (there the [1, GOMAXPROCS] clamp would
	// mask the wrap).
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	maxW := runtime.GOMAXPROCS(0)
	cases := []struct {
		blocks int
		draws  int64
	}{
		{25_000, math.MaxInt64 / 2},    // wraps negative unchecked
		{1 << 30, 1 << 40},             // wraps positive-but-garbage
		{math.MaxInt32, math.MaxInt64}, // extreme corner
		{2, math.MaxInt64},             // blocks > MaxInt64/draws boundary
	}
	for _, c := range cases {
		if w := ChooseWorkers(c.blocks, c.draws); w != maxW {
			t.Fatalf("ChooseWorkers(%d, %d) = %d, want GOMAXPROCS=%d (overflow must saturate, not wrap)",
				c.blocks, c.draws, w, maxW)
		}
	}
	// Just below the threshold the exact product is still used: the
	// saturation path must not inflate small work.
	if w := ChooseWorkers(1, 10); w != 1 {
		t.Fatalf("tiny work chose %d workers after saturation change, want 1", w)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3, 1000, 1<<40); got != 3 {
		t.Fatalf("explicit request must pass through, got %d", got)
	}
	before := AutoWorkerRuns.Value()
	w := ResolveWorkers(AutoWorkers, 250, 20000)
	if w < 1 || w > runtime.GOMAXPROCS(0) {
		t.Fatalf("auto resolution out of range: %d", w)
	}
	if AutoWorkerRuns.Value() != before+1 {
		t.Fatalf("auto resolution did not bump AutoWorkerRuns")
	}
	if LastAutoWorkers.Value() != float64(w) {
		t.Fatalf("LastAutoWorkers=%v, want %d", LastAutoWorkers.Value(), w)
	}
	if got := ResolveWorkers(-2, 1, 1); got != 1 {
		t.Fatalf("negative request must resolve adaptively to ≥1, got %d", got)
	}
}
