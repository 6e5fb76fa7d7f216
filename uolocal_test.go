package ocqa_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	ocqa "repro"
	"repro/internal/workload"
)

// TestZeroWitnessTargetsDrawNothing: a target with no witness image —
// not an answer of Q(D), or of the wrong arity — has probability
// exactly 0 by CQ monotonicity, so the adaptive estimators answer 0
// with zero draws and a converged estimate instead of running to their
// sample cap, on a bare Instance and a Prepared alike.
func TestZeroWitnessTargetsDrawNothing(t *testing.T) {
	ctx := context.Background()
	// Primary keys, so that M^us and M^uo are FPRAS cells too.
	in, err := ocqa.NewInstanceFromText("R(a1,b1,c1)\nR(a1,b2,c2)\nR(a2,b1,c3)\nR(a3,b3,c1)", "R: A1 -> A2,A3")
	if err != nil {
		t.Fatal(err)
	}
	absent, err := ocqa.ParseQuery("Ans() :- R(x, 'b9', z)")
	if err != nil {
		t.Fatal(err)
	}
	values, err := ocqa.ParseQuery("Ans(y) :- R(x, y, z)")
	if err != nil {
		t.Fatal(err)
	}
	targets := []struct {
		name string
		q    *ocqa.Query
		c    ocqa.Tuple
	}{
		{"absent value", absent, nil},
		{"tuple outside Q(D)", values, ocqa.ParseTuple("b9")},
		{"wrong arity", values, ocqa.ParseTuple("b1,c1")},
	}
	type estimator interface {
		Approximate(context.Context, ocqa.Mode, *ocqa.Query, ocqa.Tuple, ocqa.ApproxOptions) (ocqa.Estimate, error)
	}
	for _, side := range []struct {
		name string
		est  estimator
	}{{"instance", in}, {"prepared", in.Prepare()}} {
		for _, mode := range []ocqa.Mode{
			{Gen: ocqa.UniformRepairs},
			{Gen: ocqa.UniformSequences},
			{Gen: ocqa.UniformOperations},
			{Gen: ocqa.UniformOperations, Singleton: true},
		} {
			for _, tg := range targets {
				for _, aa := range []bool{false, true} {
					opts := ocqa.ApproxOptions{Epsilon: 0.2, Delta: 0.1, Seed: 3, MaxSamples: 2000, UseAA: aa}
					e, err := side.est.Approximate(ctx, mode, tg.q, tg.c, opts)
					if err != nil {
						t.Fatalf("%s %s %s aa=%v: %v", side.name, mode.Symbol(), tg.name, aa, err)
					}
					if e.Value != 0 || e.Samples != 0 || e.Acct.Draws != 0 || !e.Converged || e.Epsilon != 0.2 || e.Delta != 0.1 {
						t.Errorf("%s %s %s aa=%v: got value %v, %d samples, %d draws, converged %v, (ε,δ)=(%v,%v); want 0, 0, 0, true, (0.2,0.1)",
							side.name, mode.Symbol(), tg.name, aa, e.Value, e.Samples, e.Acct.Draws, e.Converged, e.Epsilon, e.Delta)
					}
				}
			}
		}
	}
}

// TestUniformOperationsConcurrentDeterminism: single-target M^uo and
// M^{uo,1} estimates repeat bit for bit per (Seed, Workers) when many
// goroutines query one Prepared at once, and equal the bare Instance's.
// Run it under -race -count=10: the workers of concurrent requests
// share the instance's conflict adjacency.
func TestUniformOperationsConcurrentDeterminism(t *testing.T) {
	ctx := context.Background()
	type job struct {
		p    *ocqa.Prepared
		mode ocqa.Mode
		q    *ocqa.Query
		opts ocqa.ApproxOptions
		want ocqa.Estimate
	}
	var jobs []job
	for _, w := range []struct {
		inst    workload.Instance
		modes   []ocqa.Mode
		queries []string
	}{
		{workload.MultiKeyDatabase(rand.New(rand.NewSource(21)), 200, 80),
			[]ocqa.Mode{{Gen: ocqa.UniformOperations}, {Gen: ocqa.UniformOperations, Singleton: true}},
			[]string{"Ans() :- R(x, y, 'hot')", "Ans() :- R(x, y, 'p7')", "Ans() :- R('a3', y, z)"}},
		{workload.FDChainDatabase(rand.New(rand.NewSource(22)), 200, 80),
			[]ocqa.Mode{{Gen: ocqa.UniformOperations, Singleton: true}},
			[]string{"Ans() :- R(x, 'hot', z)", "Ans() :- R(x, 'b5', z)", "Ans() :- R(x, 'b9', z), R(x2, 'b11', z2)"}},
	} {
		in := ocqa.NewInstance(w.inst.DB, w.inst.Sigma)
		p := in.Prepare()
		for _, mode := range w.modes {
			for _, qs := range w.queries {
				q, err := ocqa.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2} {
					for _, aa := range []bool{false, true} {
						if aa && workers > 1 {
							continue // 𝒜𝒜 is single-worker
						}
						opts := ocqa.ApproxOptions{Epsilon: 0.3, Delta: 0.2, Seed: int64(40 + workers), Workers: workers, UseAA: aa}
						want, err := in.Approximate(ctx, mode, q, nil, opts)
						if err != nil {
							t.Fatalf("%s %s: %v", mode.Symbol(), qs, err)
						}
						if want.Samples == 0 {
							t.Fatalf("%s %s: no draws; the test needs targets that sample", mode.Symbol(), qs)
						}
						jobs = append(jobs, job{p, mode, q, opts, want})
					}
				}
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k+g*len(jobs)/4)%len(jobs)]
				got, err := j.p.Approximate(ctx, j.mode, j.q, nil, j.opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Value != j.want.Value || got.Samples != j.want.Samples || got.Converged != j.want.Converged {
					t.Errorf("%s %v %+v: prepared %v/%d, instance %v/%d", j.mode.Symbol(), j.q, j.opts,
						got.Value, got.Samples, j.want.Value, j.want.Samples)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConflictAdjacencyOnlyForUniformOperations: the per-fact conflict
// adjacency is built on the first M^uo estimate, not by M^ur or M^us
// estimates, marginals or exact answers.
func TestConflictAdjacencyOnlyForUniformOperations(t *testing.T) {
	ctx := context.Background()
	p := figure2Instance(t).Prepare()
	q, err := ocqa.ParseQuery("Ans(y) :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	built := func() bool {
		adj := reflect.ValueOf(p.Core()).Elem().FieldByName("adj")
		if !adj.IsValid() {
			t.Fatal("core.Instance has no adj field")
		}
		return !adj.IsNil()
	}
	for _, gen := range []ocqa.Generator{ocqa.UniformRepairs, ocqa.UniformSequences} {
		mode := ocqa.Mode{Gen: gen}
		opts := ocqa.ApproxOptions{Seed: 5, MaxSamples: 2000}
		if _, err := p.Approximate(ctx, mode, q, ocqa.ParseTuple("b1"), opts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ApproximateAnswers(ctx, mode, q, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ApproximateFactMarginals(ctx, mode, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ConsistentAnswers(mode, q, 0); err != nil {
			t.Fatal(err)
		}
	}
	if built() {
		t.Fatal("M^ur and M^us built the conflict adjacency")
	}
	uo := ocqa.Mode{Gen: ocqa.UniformOperations}
	if _, err := p.Approximate(ctx, uo, q, ocqa.ParseTuple("b1"), ocqa.ApproxOptions{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if !built() {
		t.Fatalf("an %s estimate did not build the conflict adjacency", uo.Symbol())
	}
}
