package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
)

// rule is one estimator's per-draw logic. The round driver owns
// everything else: the samplers and their substreams, the context
// checks, the sample cap, the accounting, the run record and the span.
type rule[S any] interface {
	// draw makes k draws with worker w's sampler into slots 0..k-1 of
	// w's batch (k is 1 when a single worker feeds a consuming rule).
	// Workers draw concurrently, each into its own slots.
	draw(s S, rng *rand.Rand, w, k int)
	// consume folds the outcome in slot i of worker w's batch into the
	// estimate, as the n-th draw of the canonical stream, and reports
	// whether the rule has stopped.
	consume(w, i, n int) bool
	// checkpoint offers the convergence point after a round the rule
	// did not stop; the driver calls it on traced runs only.
	checkpoint(tr *Trace, n int)
	// finish settles the result after n consumed draws (err is the
	// context's error, if any) and offers the terminal checkpoint.
	finish(tr *Trace, n int, err error)
}

// quiet supplies the hooks a rule does not need: fixed-budget rules
// tally inside draw and are never asked to consume, and some rules
// keep no per-round curve.
type quiet struct{}

func (quiet) consume(int, int, int) bool { return false }
func (quiet) checkpoint(*Trace, int)     {}
func (quiet) finish(*Trace, int, error)  {}

// run describes one estimation run to the driver.
type run struct {
	phase Phase
	span  string
	// targets is the target count of a multi-target phase.
	targets int
	seed    int64
	workers int
	// budget > 0 makes a fixed-sample run of exactly budget draws:
	// worker w draws splitQuota(budget, workers, w) of them, the rule
	// tallies inside draw, and nothing is consumed.
	budget int
	// maxSamples caps the consumed draws (0 = no cap).
	maxSamples int
}

// batchLen is the number of outcome slots a rule keeps per worker: a
// single worker draws and consumes one outcome at a time.
func batchLen(workers int) int {
	if workers <= 1 {
		return 1
	}
	return Chunk
}

// drive runs one estimation in rounds. Before each round it sizes
// every worker's batch — at most Chunk draws, within the worker's
// share of a fixed budget and within the cap on consumed draws, which
// is filled in worker order — and checks the context. Workers then
// fill their batches from their own substreams and the rule consumes
// them in canonical order (worker 0's batch, then worker 1's, and so
// on) until it stops; the rest of that round is drawn but discarded.
// With one worker the driver draws and consumes one outcome at a time,
// so nothing is discarded.
func drive[S any](ctx context.Context, rn run, newSampler func() S, r rule[S]) (Accounting, error) {
	tr := TraceFrom(ctx)
	defer tr.StartSpan(rn.span)()
	start := time.Now()
	workers := max(rn.workers, 1)
	samplers, rngs := make([]S, workers), make([]*rand.Rand, workers)
	for w := range samplers {
		samplers[w], rngs[w] = newSampler(), rngFor(rn.seed, rn.phase, w)
	}
	limit, split := math.MaxInt, rn.budget > 0
	if rn.maxSamples > 0 {
		limit = rn.maxSamples
	}
	done, size := make([]int64, workers), make([]int, workers)
	acct := Accounting{Workers: workers}
	var wg sync.WaitGroup
	var err error
	n, stopped := 0, false
	for !stopped {
		planned := n
		for w := range size {
			size[w] = min(Chunk, limit-planned)
			if split {
				size[w] = min(size[w], splitQuota(rn.budget, workers, w)-int(done[w]))
			}
			planned += size[w]
		}
		if planned == n {
			break
		}
		if err = ctx.Err(); err != nil {
			break
		}
		acct.Chunks++
		if workers == 1 && !split {
			for i := 0; i < size[0] && !stopped; i++ {
				r.draw(samplers[0], rngs[0], 0, 1)
				done[0]++
				n++
				stopped = r.consume(0, 0, n)
			}
		} else {
			for w := 1; w < workers; w++ {
				wg.Add(1)
				go func() { defer wg.Done(); r.draw(samplers[w], rngs[w], w, size[w]) }()
			}
			r.draw(samplers[0], rngs[0], 0, size[0])
			wg.Wait()
			for w := range size {
				done[w] += int64(size[w])
				if split {
					n += size[w]
					continue
				}
				for i := 0; i < size[w] && !stopped; i++ {
					n++
					stopped = r.consume(w, i, n)
				}
			}
		}
		if !stopped && tr != nil {
			r.checkpoint(tr, n)
		}
	}
	for _, d := range done {
		acct.Draws += d
	}
	if workers > 1 {
		acct.PerWorker = done
	}
	acct.Cancelled = err != nil
	r.finish(tr, n, err)
	acct.WallNanos = time.Since(start).Nanoseconds()
	record(rn.phase, rn.targets, acct)
	return acct, err
}
