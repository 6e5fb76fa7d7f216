package engine

// Per-run introspection: a Trace carried through the context collects
// named phase spans and periodic convergence checkpoints from the
// estimation loops. Tracing is strictly opt-in — without a Trace in
// the context every hook below degenerates to a nil-receiver check, so
// the draw loops pay nothing when observability is off (the bench
// regression gate enforces this).
//
// Checkpoints are captured at deterministic points only. The round
// driver offers one after every round the rule did not stop — once
// every worker's batch is in and the canonical interleaving has been
// consumed — and a terminal point at exit. A round is at most Chunk
// draws per worker, so a serial run checkpoints every Chunk draws; 𝒜𝒜
// instead checkpoints every Chunk draws of its first and third phases.
// A mid-round view of racing workers would depend on scheduling, and
// the whole value of the curve is that two runs with the same
// (seed, workers) produce bitwise-identical checkpoints.

import (
	"context"
	"math"
	"sync"
	"time"
)

// Span is one named phase of a traced run. Start/End are offsets in
// nanoseconds from the trace's creation, so spans from different
// layers (compile, plan, sampling) share one timeline.
type Span struct {
	Name       string `json:"name"`
	StartNanos int64  `json:"start_nanos"`
	EndNanos   int64  `json:"end_nanos"`
}

// Checkpoint is one convergence observation: the draws consumed so
// far, the running estimate at that point, and the additive 95%
// Hoeffding confidence half-width those draws support. For
// multi-target runs Value is the fraction of targets that have met
// the stopping rule (fixed multi: the mean estimate across targets)
// and Open counts the targets still running.
type Checkpoint struct {
	Draws     int64   `json:"draws"`
	Value     float64 `json:"value"`
	HalfWidth float64 `json:"half_width"`
	Open      int     `json:"open,omitempty"`
}

// maxCheckpoints bounds the convergence curve: when full, every other
// point is dropped and the keep-stride doubles, so a 100M-draw run
// still costs at most 2×maxCheckpoints appends and one bounded slice.
const maxCheckpoints = 256

// Trace accumulates the spans and convergence curve of one query.
// All methods are nil-receiver-safe — estimation loops call them
// unconditionally — and safe for concurrent use (the flight recorder
// snapshots a trace while its handler may still be appending).
type Trace struct {
	start time.Time

	mu      sync.Mutex
	spans   []Span
	curve   []Checkpoint
	stride  int64 // keep every stride-th offered checkpoint
	offered int64 // checkpoints offered since the trace started
}

// NewTrace starts an empty trace clocked from now.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), stride: 1}
}

type traceKey struct{}

// ContextWithTrace returns a context carrying tr; the estimation
// loops pick it up via TraceFrom. A nil tr returns ctx unchanged.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom extracts the trace from ctx, nil when the run is
// untraced. Estimators call this once per run, never per draw.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// StartSpan opens a named span and returns the closure that ends it —
// use `defer tr.StartSpan("sample:fixed")()`. On a nil trace both
// halves are no-ops.
func (tr *Trace) StartSpan(name string) func() {
	if tr == nil {
		return func() {}
	}
	startN := time.Since(tr.start).Nanoseconds()
	return func() {
		end := time.Since(tr.start).Nanoseconds()
		tr.mu.Lock()
		tr.spans = append(tr.spans, Span{Name: name, StartNanos: startN, EndNanos: end})
		tr.mu.Unlock()
	}
}

// Checkpoint offers one periodic convergence observation. Decimation
// keeps the curve bounded: once maxCheckpoints are held, even-indexed
// points survive and the keep-stride doubles, which preserves the
// curve's shape and stays a pure function of the offered sequence —
// deterministic runs keep deterministic curves.
func (tr *Trace) Checkpoint(draws int64, value float64, open int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	keep := tr.offered%tr.stride == 0
	tr.offered++
	if !keep {
		return
	}
	tr.appendLocked(Checkpoint{Draws: draws, Value: value, HalfWidth: halfWidth(draws), Open: open})
}

// FinalCheckpoint records the run's terminal point, bypassing
// decimation so the curve always ends at the run's actual exit. If
// the last periodic point already sits at the same draw count it is
// replaced rather than duplicated; if its append fills the curve, the
// decimation keeps even indices only, so the point goes back on after.
func (tr *Trace) FinalCheckpoint(draws int64, value float64, open int) {
	if tr == nil {
		return
	}
	cp := Checkpoint{Draws: draws, Value: value, HalfWidth: halfWidth(draws), Open: open}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n := len(tr.curve); n > 0 && tr.curve[n-1].Draws == draws {
		tr.curve[n-1] = cp
		return
	}
	tr.appendLocked(cp)
	if tr.curve[len(tr.curve)-1] != cp {
		tr.curve = append(tr.curve, cp)
	}
}

func (tr *Trace) appendLocked(cp Checkpoint) {
	tr.curve = append(tr.curve, cp)
	if len(tr.curve) >= maxCheckpoints {
		kept := tr.curve[:0]
		for i := 0; i < len(tr.curve); i += 2 {
			kept = append(kept, tr.curve[i])
		}
		tr.curve = kept
		tr.stride *= 2
	}
}

// Spans returns a copy of the spans recorded so far.
func (tr *Trace) Spans() []Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Span(nil), tr.spans...)
}

// Curve returns a copy of the convergence checkpoints recorded so far.
func (tr *Trace) Curve() []Checkpoint {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Checkpoint(nil), tr.curve...)
}

// halfWidth is the additive 95% Hoeffding confidence half-width a
// plain mean of n Bernoulli draws supports: √(ln(2/0.05)/(2n)). It
// depends on the draw count alone — no estimate enters — so the curve
// stays bitwise-deterministic and costs one sqrt per checkpoint.
func halfWidth(n int64) float64 {
	if n <= 0 {
		return 1
	}
	return math.Sqrt(math.Log(40) / (2 * float64(n)))
}
