package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// traceSampler is a deterministic Bernoulli(0.3) sampler.
func traceSampler() Sampler {
	return func(rng *rand.Rand) bool { return rng.Float64() < 0.3 }
}

func traceMultiSampler() MultiSampler {
	return func(rng *rand.Rand, out []bool, active []int) {
		x := rng.Float64()
		if active == nil {
			for t := range out {
				out[t] = x < 0.2+0.1*float64(t)
			}
			return
		}
		for _, t := range active {
			out[t] = x < 0.2+0.1*float64(t)
		}
	}
}

// runTraced runs f under a fresh trace and returns its curve.
func runTraced(t *testing.T, f func(ctx context.Context)) []Checkpoint {
	t.Helper()
	tr := NewTrace()
	f(ContextWithTrace(context.Background(), tr))
	return tr.Curve()
}

// TestTraceCheckpointsDeterministic: for a fixed (seed, workers) pair
// the convergence curve is bitwise-identical across two runs — the
// property the explain surface's diffability rests on. Spans carry
// wall-clock times and are deliberately excluded.
func TestTraceCheckpointsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		run  func(ctx context.Context)
	}{
		{"fixed-serial", func(ctx context.Context) {
			_, _ = EstimateFixed(ctx, traceSampler, 5000, 42, 1)
		}},
		{"fixed-parallel", func(ctx context.Context) {
			_, _ = EstimateFixed(ctx, traceSampler, 5000, 42, 4)
		}},
		{"stopping-serial", func(ctx context.Context) {
			_, _ = EstimateStoppingRule(ctx, traceSampler, 0.2, 0.1, 42, 1, 0)
		}},
		{"stopping-parallel", func(ctx context.Context) {
			_, _ = EstimateStoppingRule(ctx, traceSampler, 0.2, 0.1, 42, 4, 0)
		}},
		{"aa", func(ctx context.Context) {
			_, _ = EstimateAA(ctx, traceSampler(), 0.2, 0.1, 42, 0)
		}},
		{"multi-fixed-serial", func(ctx context.Context) {
			_, _ = EstimateFixedMulti(ctx, traceMultiSampler, 3, 5000, 42, 1)
		}},
		{"multi-stopping-parallel", func(ctx context.Context) {
			_, _ = EstimateStoppingRuleMulti(ctx, traceMultiSampler, 3, 0.2, 0.1, 42, 4, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1 := runTraced(t, tc.run)
			c2 := runTraced(t, tc.run)
			if len(c1) == 0 {
				t.Fatalf("no checkpoints recorded")
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Fatalf("curves differ across identical runs:\n%v\nvs\n%v", c1, c2)
			}
			last := c1[len(c1)-1]
			if last.Draws <= 0 || last.HalfWidth <= 0 {
				t.Fatalf("terminal checkpoint malformed: %+v", last)
			}
		})
	}
}

// TestTraceOffByDefault: without ContextWithTrace, TraceFrom yields
// nil and every Trace method is a safe no-op — the gated-off path the
// bench regression gate requires to cost ~nothing.
func TestTraceOffByDefault(t *testing.T) {
	if tr := TraceFrom(context.Background()); tr != nil {
		t.Fatalf("TraceFrom on a bare context = %v, want nil", tr)
	}
	var tr *Trace
	tr.Checkpoint(100, 0.5, 0)
	tr.FinalCheckpoint(100, 0.5, 0)
	tr.StartSpan("noop")()
	if got := tr.Curve(); got != nil {
		t.Fatalf("nil trace Curve() = %v, want nil", got)
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace Spans() = %v, want nil", got)
	}
	if ContextWithTrace(context.Background(), nil) != context.Background() {
		t.Fatalf("ContextWithTrace(nil) must return ctx unchanged")
	}
}

// TestTraceDecimationBounded: offering far more checkpoints than the
// cap keeps the curve bounded, ordered and terminated by the final
// point.
func TestTraceDecimationBounded(t *testing.T) {
	tr := NewTrace()
	for i := 1; i <= 10_000; i++ {
		tr.Checkpoint(int64(i*Chunk), 0.5, 0)
	}
	tr.FinalCheckpoint(10_000*Chunk+7, 0.25, 0)
	curve := tr.Curve()
	if len(curve) > maxCheckpoints {
		t.Fatalf("curve holds %d points, cap is %d", len(curve), maxCheckpoints)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Draws <= curve[i-1].Draws {
			t.Fatalf("curve not strictly increasing at %d: %v then %v", i, curve[i-1], curve[i])
		}
	}
	last := curve[len(curve)-1]
	if last.Draws != 10_000*Chunk+7 || last.Value != 0.25 {
		t.Fatalf("terminal point lost in decimation: %+v", last)
	}
}

// TestTraceFinalCheckpointAfterFullCurve: a terminal point whose append
// fills the curve — 255 periodic points, then the final one — triggers
// the decimation, which keeps even indices only; the curve must still
// end at the terminal point.
func TestTraceFinalCheckpointAfterFullCurve(t *testing.T) {
	tr := NewTrace()
	for i := 1; i < maxCheckpoints; i++ {
		tr.Checkpoint(int64(i*Chunk), 0.5, 0)
	}
	tr.FinalCheckpoint(maxCheckpoints*Chunk+3, 0.25, 0)
	curve := tr.Curve()
	if len(curve) > maxCheckpoints {
		t.Fatalf("curve holds %d points, cap is %d", len(curve), maxCheckpoints)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Draws <= curve[i-1].Draws {
			t.Fatalf("curve not strictly increasing at %d: %v then %v", i, curve[i-1], curve[i])
		}
	}
	if last := curve[len(curve)-1]; last.Draws != maxCheckpoints*Chunk+3 || last.Value != 0.25 {
		t.Fatalf("terminal point lost in decimation: curve ends at %+v", last)
	}
}

// TestTraceSpansRecorded: the estimators label their sampling phases;
// 𝒜𝒜 additionally nests its three phase sub-spans inside sample:aa.
func TestTraceSpansRecorded(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	if _, err := EstimateAA(ctx, traceSampler(), 0.2, 0.1, 42, 0); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"sample:aa": false, "aa:phase1": false, "aa:phase2": false, "aa:phase3": false}
	for _, sp := range tr.Spans() {
		if sp.EndNanos < sp.StartNanos {
			t.Fatalf("span %q ends before it starts: %+v", sp.Name, sp)
		}
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %q missing from %v", name, tr.Spans())
		}
	}
}
