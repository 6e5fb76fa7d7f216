package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The golden grid pins, bit for bit, what every estimator returns for
// a fixed grid of (estimator, sampler, workers, budget) cells: each
// estimate's Value (as math.Float64bits), Samples, Converged, Epsilon
// and Delta, the run's Draws, Workers, PerWorker and Cancelled flag,
// the marginal counts, the error, the span names in order, and the
// convergence curve (point count plus an FNV-64a digest of every
// checkpoint's bits). The curve of a parallel fixed-sample run is
// left out: its per-round points are not part of the contract.
// Accounting.Chunks is not pinned either.
//
// The estimators are reached through the adapters in
// golden_api_test.go, so this file runs unchanged against any
// revision of the entry-point signatures.

const goldenSeed = 7

func goldenCoin(p float64) func() Sampler {
	return func() Sampler {
		return func(rng *rand.Rand) bool { return rng.Float64() < p }
	}
}

// goldenMulti drives every target from one uniform variate per draw.
func goldenMulti(ps ...float64) func() MultiSampler {
	return func() MultiSampler {
		return func(rng *rand.Rand, out []bool, _ []int) {
			u := rng.Float64()
			for t, p := range ps {
				out[t] = u < p
			}
		}
	}
}

// goldenCounter is a 5-fact counting sampler: fact i survives a draw
// independently with probability ps[i].
func goldenCounter() CountSampler {
	ps := []float64{0.7, 0.4, 0.05, 1, 0}
	return func(rng *rand.Rand, counts []int) {
		for i, p := range ps {
			if rng.Float64() < p {
				counts[i]++
			}
		}
	}
}

type goldenCase struct {
	name string
	// curve is false for parallel fixed-sample runs.
	curve bool
	run   func(ctx context.Context) (ests []Estimate, counts []int, acct Accounting, err error)
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(name string, curve bool, run func(ctx context.Context) ([]Estimate, []int, Accounting, error)) {
		cs = append(cs, goldenCase{name, curve, run})
	}
	single := func(e Estimate, err error) ([]Estimate, []int, Accounting, error) {
		return []Estimate{e}, nil, e.Acct, err
	}
	multi := func(es []Estimate, err error) ([]Estimate, []int, Accounting, error) {
		return es, nil, es[0].Acct, err
	}
	for _, w := range []int{1, 2, 3} {
		for _, p := range []float64{0.05, 0.4} {
			add(fmt.Sprintf("fixed/p=%v/w=%d", p, w), w == 1, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
				return single(EstimateFixed(ctx, goldenCoin(p), 1000, goldenSeed, w))
			})
			for _, maxS := range []int{0, 1536} {
				add(fmt.Sprintf("stopping/p=%v/w=%d/cap=%d", p, w, maxS), true, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
					return single(goldenStopping(ctx, goldenCoin(p), 0.2, 0.1, goldenSeed, w, maxS))
				})
			}
		}
		add(fmt.Sprintf("marginals/w=%d", w), true, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
			counts, acct, err := goldenMarginals(ctx, goldenCounter, 5, 1000, goldenSeed, w)
			return nil, counts, acct, err
		})
		add(fmt.Sprintf("fixed-multi/w=%d", w), w == 1, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
			return multi(EstimateFixedMulti(ctx, goldenMulti(0.4, 0.05, 0), 3, 1000, goldenSeed, w))
		})
		add(fmt.Sprintf("stopping-multi/w=%d/cap=0", w), true, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
			return multi(EstimateStoppingRuleMulti(ctx, goldenMulti(0.4, 0.05), 2, 0.2, 0.1, goldenSeed, w, 0))
		})
		add(fmt.Sprintf("stopping-multi/w=%d/cap=1536", w), true, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
			return multi(EstimateStoppingRuleMulti(ctx, goldenMulti(0.4, 0.05, 0), 3, 0.2, 0.1, goldenSeed, w, 1536))
		})
	}
	for _, p := range []float64{0.05, 0.4} {
		for _, maxS := range []int{0, 1536} {
			add(fmt.Sprintf("aa/p=%v/cap=%d", p, maxS), true, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
				return single(EstimateAA(ctx, goldenCoin(p)(), 0.2, 0.1, goldenSeed, maxS))
			})
		}
	}
	// Every cell again under a context cancelled before the run starts.
	for _, c := range cs {
		run := c.run
		add("cancelled/"+c.name, c.curve, func(ctx context.Context) ([]Estimate, []int, Accounting, error) {
			ctx, cancel := context.WithCancel(ctx)
			cancel()
			return run(ctx)
		})
	}
	return cs
}

// goldenRender is the pinned form of one run.
func goldenRender(c goldenCase, ests []Estimate, counts []int, acct Accounting, err error, tr *Trace) string {
	var b strings.Builder
	for _, e := range ests {
		fmt.Fprintf(&b, "v=%x n=%d c=%t eps=%x delta=%x; ", math.Float64bits(e.Value), e.Samples, e.Converged,
			math.Float64bits(e.Epsilon), math.Float64bits(e.Delta))
	}
	if counts != nil {
		fmt.Fprintf(&b, "counts=%v; ", counts)
	}
	fmt.Fprintf(&b, "draws=%d workers=%d per=%v cancelled=%t err=%v; spans=", acct.Draws, acct.Workers, acct.PerWorker, acct.Cancelled, err)
	for i, sp := range tr.Spans() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sp.Name)
	}
	if c.curve {
		curve := tr.Curve()
		h := fnv.New64a()
		for _, cp := range curve {
			var buf [32]byte
			binary.LittleEndian.PutUint64(buf[0:], uint64(cp.Draws))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(cp.Value))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(cp.HalfWidth))
			binary.LittleEndian.PutUint64(buf[24:], uint64(cp.Open))
			h.Write(buf[:])
		}
		fmt.Fprintf(&b, "; curve=%d/%x", len(curve), h.Sum64())
	}
	return b.String()
}

func TestGoldenGrid(t *testing.T) {
	cases := goldenCases()
	if len(cases) != len(goldenTable) {
		t.Errorf("grid has %d cells, table %d", len(cases), len(goldenTable))
	}
	for _, c := range cases {
		tr := NewTrace()
		ests, counts, acct, err := c.run(ContextWithTrace(context.Background(), tr))
		got := goldenRender(c, ests, counts, acct, err, tr)
		if want, ok := goldenTable[c.name]; !ok || got != want {
			t.Errorf("%s:\n got  %q,\n want %q", c.name, got, want)
		}
	}
}

var goldenTable = map[string]string{
	"fixed/p=0.05/w=1":                       "v=3fb0624dd2f1a9fc n=1000 c=true eps=0 delta=0; draws=1000 workers=1 per=[] cancelled=false err=<nil>; spans=sample:fixed; curve=4/195d238d338c9929",
	"stopping/p=0.05/w=1/cap=0":              "v=3fa9cce86720b558 n=5144 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=5144 workers=1 per=[] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=21/ad61f27e53a97076",
	"stopping/p=0.05/w=1/cap=1536":           "v=3fa5555555555555 n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=1 per=[] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=6/32b1b00e1bedffc7",
	"fixed/p=0.4/w=1":                        "v=3fd8624dd2f1a9fc n=1000 c=true eps=0 delta=0; draws=1000 workers=1 per=[] cancelled=false err=<nil>; spans=sample:fixed; curve=4/f281535991bf7d9b",
	"stopping/p=0.4/w=1/cap=0":               "v=3fd94029fa2a882d n=657 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=657 workers=1 per=[] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=3/5b4324d0822ca249",
	"stopping/p=0.4/w=1/cap=1536":            "v=3fd94029fa2a882d n=657 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=657 workers=1 per=[] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=3/5b4324d0822ca249",
	"marginals/w=1":                          "counts=[714 404 57 1000 0]; draws=1000 workers=1 per=[] cancelled=false err=<nil>; spans=sample:marginals; curve=0/cbf29ce484222325",
	"fixed-multi/w=1":                        "v=3fdc49ba5e353f7d n=1000 c=true eps=0 delta=0; v=3faa1cac083126e9 n=1000 c=true eps=0 delta=0; v=0 n=1000 c=true eps=0 delta=0; draws=1000 workers=1 per=[] cancelled=false err=<nil>; spans=sample:multi-fixed; curve=4/6982a8fd74a0661f",
	"stopping-multi/w=1/cap=0":               "v=3fd971bc5c47e9cf n=652 c=true eps=3fc999999999999a delta=3fb999999999999a; v=3fa9579dbcd88396 n=5237 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=5237 workers=1 per=[] cancelled=false err=<nil>; spans=sample:multi-stopping; curve=21/bce4e59d81364c1",
	"stopping-multi/w=1/cap=1536":            "v=3fd971bc5c47e9cf n=652 c=true eps=3fc999999999999a delta=3fb999999999999a; v=3fa6555555555555 n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=1 per=[] cancelled=false err=<nil>; spans=sample:multi-stopping; curve=6/68a10f4545664c62",
	"fixed/p=0.05/w=2":                       "v=3faf3b645a1cac08 n=1000 c=true eps=0 delta=0; draws=1000 workers=2 per=[500 500] cancelled=false err=<nil>; spans=sample:fixed",
	"stopping/p=0.05/w=2/cap=0":              "v=3fa63dec99f1b935 n=5967 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=6144 workers=2 per=[3072 3072] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=12/e98588b6a610c22b",
	"stopping/p=0.05/w=2/cap=1536":           "v=3fa8aaaaaaaaaaab n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=2 per=[768 768] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=3/3ce47a1a074d5ae4",
	"fixed/p=0.4/w=2":                        "v=3fd851eb851eb852 n=1000 c=true eps=0 delta=0; draws=1000 workers=2 per=[500 500] cancelled=false err=<nil>; spans=sample:fixed",
	"stopping/p=0.4/w=2/cap=0":               "v=3fd936570b4b25ed n=658 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=1024 workers=2 per=[512 512] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=2/17342d16e6235886",
	"stopping/p=0.4/w=2/cap=1536":            "v=3fd936570b4b25ed n=658 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=1024 workers=2 per=[512 512] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=2/17342d16e6235886",
	"marginals/w=2":                          "counts=[708 392 57 1000 0]; draws=1000 workers=2 per=[500 500] cancelled=false err=<nil>; spans=sample:marginals; curve=0/cbf29ce484222325",
	"fixed-multi/w=2":                        "v=3fdc189374bc6a7f n=1000 c=true eps=0 delta=0; v=3fa70a3d70a3d70a n=1000 c=true eps=0 delta=0; v=0 n=1000 c=true eps=0 delta=0; draws=1000 workers=2 per=[500 500] cancelled=false err=<nil>; spans=sample:multi-fixed",
	"stopping-multi/w=2/cap=0":               "v=3fd936570b4b25ed n=658 c=true eps=3fc999999999999a delta=3fb999999999999a; v=3fa8d6e8779a1994 n=5343 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=5632 workers=2 per=[2816 2816] cancelled=false err=<nil>; spans=sample:multi-stopping; curve=11/5002b3275e964751",
	"stopping-multi/w=2/cap=1536":            "v=3fd936570b4b25ed n=658 c=true eps=3fc999999999999a delta=3fb999999999999a; v=3fa6555555555555 n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=2 per=[768 768] cancelled=false err=<nil>; spans=sample:multi-stopping; curve=3/fe46f50f38c520a0",
	"fixed/p=0.05/w=3":                       "v=3faba5e353f7ced9 n=1000 c=true eps=0 delta=0; draws=1000 workers=3 per=[334 333 333] cancelled=false err=<nil>; spans=sample:fixed",
	"stopping/p=0.05/w=3/cap=0":              "v=3fa74ff7fd21d37a n=5693 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=6144 workers=3 per=[2048 2048 2048] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=8/548600c8e50b4ed5",
	"stopping/p=0.05/w=3/cap=1536":           "v=3fa6aaaaaaaaaaab n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=3 per=[512 512 512] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=2/e5373193fae55184",
	"fixed/p=0.4/w=3":                        "v=3fd90624dd2f1aa0 n=1000 c=true eps=0 delta=0; draws=1000 workers=3 per=[334 333 333] cancelled=false err=<nil>; spans=sample:fixed",
	"stopping/p=0.4/w=3/cap=0":               "v=3fd953e6e1868257 n=655 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=768 workers=3 per=[256 256 256] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=1/f0dfab47faa18fb0",
	"stopping/p=0.4/w=3/cap=1536":            "v=3fd953e6e1868257 n=655 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=768 workers=3 per=[256 256 256] cancelled=false err=<nil>; spans=sample:stopping-rule; curve=1/f0dfab47faa18fb0",
	"marginals/w=3":                          "counts=[689 388 57 1000 0]; draws=1000 workers=3 per=[334 333 333] cancelled=false err=<nil>; spans=sample:marginals; curve=0/cbf29ce484222325",
	"fixed-multi/w=3":                        "v=3fdb74bc6a7ef9db n=1000 c=true eps=0 delta=0; v=3fa916872b020c4a n=1000 c=true eps=0 delta=0; v=0 n=1000 c=true eps=0 delta=0; draws=1000 workers=3 per=[334 333 333] cancelled=false err=<nil>; spans=sample:multi-fixed",
	"stopping-multi/w=3/cap=0":               "v=3fd825e2d587b24d n=687 c=true eps=3fc999999999999a delta=3fb999999999999a; v=3fa738feb1aa23be n=5715 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=6144 workers=3 per=[2048 2048 2048] cancelled=false err=<nil>; spans=sample:multi-stopping; curve=8/308ffb586d46bc56",
	"stopping-multi/w=3/cap=1536":            "v=3fd825e2d587b24d n=687 c=true eps=3fc999999999999a delta=3fb999999999999a; v=3fa6555555555555 n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=3 per=[512 512 512] cancelled=false err=<nil>; spans=sample:multi-stopping; curve=2/27a8e7ac4553dcdf",
	"aa/p=0.05/cap=0":                        "v=3fa9ad4dfadfa280 n=49098 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=49098 workers=1 per=[] cancelled=false err=<nil>; spans=aa:phase1,aa:phase2,aa:phase3,sample:aa; curve=140/f9f43952baf9f39",
	"aa/p=0.05/cap=1536":                     "v=3fa7aaaaaaaaaaab n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=1 per=[] cancelled=false err=<nil>; spans=aa:phase1,sample:aa; curve=6/21c0a7313fcd628e",
	"aa/p=0.4/cap=0":                         "v=3fda06c4d6fafdb3 n=3474 c=true eps=3fc999999999999a delta=3fb999999999999a; draws=3474 workers=1 per=[] cancelled=false err=<nil>; spans=aa:phase1,aa:phase2,aa:phase3,sample:aa; curve=8/3d98a36f5d830fd5",
	"aa/p=0.4/cap=1536":                      "v=3fdb282f776b972f n=1536 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=1536 workers=1 per=[] cancelled=false err=<nil>; spans=aa:phase1,aa:phase2,sample:aa; curve=1/61aa3226e23e1faf",
	"cancelled/fixed/p=0.05/w=1":             "v=0 n=0 c=false eps=0 delta=0; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:fixed; curve=1/60e3cbe760d77178",
	"cancelled/stopping/p=0.05/w=1/cap=0":    "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/stopping/p=0.05/w=1/cap=1536": "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/fixed/p=0.4/w=1":              "v=0 n=0 c=false eps=0 delta=0; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:fixed; curve=1/60e3cbe760d77178",
	"cancelled/stopping/p=0.4/w=1/cap=0":     "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/stopping/p=0.4/w=1/cap=1536":  "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/marginals/w=1":                "counts=[0 0 0 0 0]; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:marginals; curve=0/cbf29ce484222325",
	"cancelled/fixed-multi/w=1":              "v=0 n=0 c=false eps=0 delta=0; v=0 n=0 c=false eps=0 delta=0; v=0 n=0 c=false eps=0 delta=0; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:multi-fixed; curve=1/60e3cbe760d77178",
	"cancelled/stopping-multi/w=1/cap=0":     "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:multi-stopping; curve=1/9ed959f976b605ba",
	"cancelled/stopping-multi/w=1/cap=1536":  "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=sample:multi-stopping; curve=1/bdd4210281a54fdb",
	"cancelled/fixed/p=0.05/w=2":             "v=0 n=0 c=false eps=0 delta=0; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:fixed",
	"cancelled/stopping/p=0.05/w=2/cap=0":    "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/stopping/p=0.05/w=2/cap=1536": "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/fixed/p=0.4/w=2":              "v=0 n=0 c=false eps=0 delta=0; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:fixed",
	"cancelled/stopping/p=0.4/w=2/cap=0":     "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/stopping/p=0.4/w=2/cap=1536":  "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/marginals/w=2":                "counts=[0 0 0 0 0]; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:marginals; curve=0/cbf29ce484222325",
	"cancelled/fixed-multi/w=2":              "v=0 n=0 c=false eps=0 delta=0; v=0 n=0 c=false eps=0 delta=0; v=0 n=0 c=false eps=0 delta=0; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:multi-fixed",
	"cancelled/stopping-multi/w=2/cap=0":     "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:multi-stopping; curve=1/9ed959f976b605ba",
	"cancelled/stopping-multi/w=2/cap=1536":  "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=2 per=[0 0] cancelled=true err=context canceled; spans=sample:multi-stopping; curve=1/bdd4210281a54fdb",
	"cancelled/fixed/p=0.05/w=3":             "v=0 n=0 c=false eps=0 delta=0; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:fixed",
	"cancelled/stopping/p=0.05/w=3/cap=0":    "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/stopping/p=0.05/w=3/cap=1536": "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/fixed/p=0.4/w=3":              "v=0 n=0 c=false eps=0 delta=0; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:fixed",
	"cancelled/stopping/p=0.4/w=3/cap=0":     "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/stopping/p=0.4/w=3/cap=1536":  "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:stopping-rule; curve=1/7fde92f06bc6bb99",
	"cancelled/marginals/w=3":                "counts=[0 0 0 0 0]; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:marginals; curve=0/cbf29ce484222325",
	"cancelled/fixed-multi/w=3":              "v=0 n=0 c=false eps=0 delta=0; v=0 n=0 c=false eps=0 delta=0; v=0 n=0 c=false eps=0 delta=0; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:multi-fixed",
	"cancelled/stopping-multi/w=3/cap=0":     "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:multi-stopping; curve=1/9ed959f976b605ba",
	"cancelled/stopping-multi/w=3/cap=1536":  "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=3 per=[0 0 0] cancelled=true err=context canceled; spans=sample:multi-stopping; curve=1/bdd4210281a54fdb",
	"cancelled/aa/p=0.05/cap=0":              "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=aa:phase1,sample:aa; curve=1/7fde92f06bc6bb99",
	"cancelled/aa/p=0.05/cap=1536":           "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=aa:phase1,sample:aa; curve=1/7fde92f06bc6bb99",
	"cancelled/aa/p=0.4/cap=0":               "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=aa:phase1,sample:aa; curve=1/7fde92f06bc6bb99",
	"cancelled/aa/p=0.4/cap=1536":            "v=0 n=0 c=false eps=3fc999999999999a delta=3fb999999999999a; draws=0 workers=1 per=[] cancelled=true err=context canceled; spans=aa:phase1,sample:aa; curve=1/7fde92f06bc6bb99",
}
