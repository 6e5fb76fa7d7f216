package main

// beyond-keys: two instances of 1000 facts outside primary keys — one
// under the general FDs A1 → A2, A3 → A2 (approximate M^{uo,1},
// Theorem 7.5) and one under the two keys A1 → A2A3, A2 → A1A3
// (approximate M^uo and M^{uo,1}, Theorem 7.1(2)) — queried for the
// survival of one value or fact with ε=0.2, δ=0.1, fresh seeds and no
// Force. One closed-loop client. The uniform-operations walker runs on
// non-key conflict graphs; a primary-key-only optimisation must leave
// this workload unchanged. No exact engine reaches these sizes, so the
// check is a replay after the window: four estimates, with the workers
// pinned, must equal a direct Prepared.Approximate with the same seed,
// value and draw count alike. Set-up warms each instance and mode with
// a query every repair satisfies rather than with the checks, whose cost
// follows their targets' survival probabilities and so the seed.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	ocqa "repro"
	"repro/internal/parse"
	"repro/internal/workload"
)

const (
	beyondEps   = 0.2
	beyondDelta = 0.1
	beyondHot   = "Ans() :- R(x, 'hot', z)"
	// beyondAny holds in every operational repair, which keeps at least
	// one fact, so its estimate stops after the fewest draws (ε, δ) allow.
	beyondAny = "Ans() :- R(x, y, z)"
)

type beyondInst struct {
	facts, fds string
	n          int
}

type beyondReq struct {
	inst int
	body []byte
}

// beyondCheck is one replay-checked request: the server's estimate must
// read want, the library's value and draw count for the same request.
type beyondCheck struct {
	beyondReq
	want string
}

type beyondKeys struct {
	insts  []beyondInst
	pool   []*beyondReq
	pos    int
	warm   []beyondReq
	checks []beyondCheck
	ids    []string
}

func buildBeyondKeys(seed int64, tiny bool) (mix, error) {
	n := 1_000
	if tiny {
		n = 300
	}
	rng := rand.New(rand.NewSource(seed))
	b := &beyondKeys{}
	fdw := workload.FDChainDatabase(rng, n, n/2)
	mkw := workload.MultiKeyDatabase(rng, n, n/2)
	// Each instance's modes and targets: the queries asking whether a
	// value of the FD-constrained attribute, or a whole fact, survives.
	modes := [2][]ocqa.Mode{
		{{Gen: ocqa.UniformOperations, Singleton: true}},
		{{Gen: ocqa.UniformOperations}, {Gen: ocqa.UniformOperations, Singleton: true}},
	}
	var ts [2][]target
	carriers := map[string]int{}
	for _, f := range fdw.DB.Facts() {
		carriers[f.Arg(1)]++
	}
	for v, c := range carriers {
		// A value more facts carry is likelier to survive.
		ts[0] = append(ts[0], target{"Ans() :- R(x, '" + v + "', z)", -c})
	}
	byKey := [2]map[string]int{{}, {}}
	for _, f := range mkw.DB.Facts() {
		byKey[0][f.Arg(0)]++
		byKey[1][f.Arg(1)]++
	}
	for _, f := range mkw.DB.Facts() {
		// A fact that conflicts with fewer facts is likelier to survive.
		ts[1] = append(ts[1], target{"Ans() :- R(x, y, '" + f.Arg(2) + "')", byKey[0][f.Arg(0)] + byKey[1][f.Arg(1)]})
	}
	// Only the likelier half is asked for: the other half's rarer
	// survivors take up to twenty times the draws, and a few of them
	// would set what a whole window costs.
	var targets [2][]string
	for i := range ts {
		o := orderTargets(rng, ts[i])
		targets[i] = o[:(len(o)+1)/2]
	}
	offsets := [2]float64{rng.Float64(), rng.Float64()}
	var prepared []*ocqa.Prepared
	for _, w := range []workload.Instance{fdw, mkw} {
		in := beyondInst{facts: parse.FormatDatabase(w.DB), fds: parse.FormatFDs(w.Sigma), n: w.DB.Len()}
		inst, err := ocqa.NewInstanceFromText(in.facts, in.fds)
		if err != nil {
			return nil, err
		}
		b.insts = append(b.insts, in)
		prepared = append(prepared, inst.Prepare())
	}
	for i, ms := range modes {
		for _, m := range ms {
			b.warm = append(b.warm, beyondReq{inst: i, body: mustJSON(queryRequest{Generator: "uo", Singleton: m.Singleton,
				Mode: "approx", Query: beyondAny, Epsilon: beyondEps, Delta: beyondDelta, Seed: 1})})
		}
	}
	// The k-th request alternates between the instances and cycles
	// through each instance's modes; its target is picked from the
	// instance's targets at the k-th point of a low-discrepancy sequence,
	// so every stretch of requests spreads over the targets' survival
	// probabilities — and so over their costs — as evenly as the whole.
	seq := int64(1)
	gen := func(k, workers int) (beyondReq, queryRequest) {
		seq++
		i, j := k%2, k/2
		ti := targets[i]
		t := ti[int(math.Mod(offsets[i]+float64(j)*goldenStep, 1)*float64(len(ti)))]
		m := modes[i][j%len(modes[i])]
		req := queryRequest{Generator: "uo", Singleton: m.Singleton, Mode: "approx", Query: t,
			Epsilon: beyondEps, Delta: beyondDelta, Seed: seq, Workers: workers}
		return beyondReq{inst: i, body: mustJSON(req)}, req
	}
	for k := 0; k < 4; k++ {
		r, req := gen(k, 1)
		q, err := ocqa.ParseQuery(req.Query)
		if err != nil {
			return nil, err
		}
		est, err := prepared[r.inst].Approximate(context.Background(),
			ocqa.Mode{Gen: ocqa.UniformOperations, Singleton: req.Singleton}, q, nil,
			ocqa.ApproxOptions{Epsilon: req.Epsilon, Delta: req.Delta, Seed: req.Seed, Workers: req.Workers})
		if err != nil {
			return nil, err
		}
		b.checks = append(b.checks, beyondCheck{r, fmt.Sprintf("%v/%d", est.Value, est.Samples)})
	}
	for k := 0; k < 4096; k++ {
		r, _ := gen(k, 0)
		b.pool = append(b.pool, &r)
	}
	return b, nil
}

// target is one survival query and a proxy for how likely its value or
// fact is to survive: lower ranks survive less often, and so take more
// draws to estimate.
type target struct {
	query string
	rank  int
}

// goldenStep, the golden ratio's fractional part, steps the
// low-discrepancy sequence the targets are picked along.
const goldenStep = 0.6180339887498949

// orderTargets sorts targets by rank, ties in a seeded random order.
func orderTargets(rng *rand.Rand, ts []target) []string {
	sort.Slice(ts, func(i, j int) bool { return ts[i].query < ts[j].query })
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].rank < ts[j].rank })
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.query
	}
	return out
}

func (b *beyondKeys) facts() int {
	n := 0
	for _, in := range b.insts {
		n += in.n
	}
	return n
}

func (b *beyondKeys) path(inst int) string { return "/v1/instances/" + b.ids[inst] + "/query" }

func (b *beyondKeys) setup(ctx context.Context, c *client, bases []string) error {
	b.ids = make([]string, len(b.insts))
	for i, in := range b.insts {
		b.ids[i] = placedID(bases, "beyond", i, i, (i+1)%3)
		if err := register(ctx, c, b.ids[i], in.facts, in.fds); err != nil {
			return err
		}
	}
	warm := make([]*request, len(b.warm))
	for i, r := range b.warm {
		warm[i] = post(b.path(r.inst), r.body, queryCheck(approxOne))
	}
	return newWorker(c, nil, "warm").warm(ctx, warm)
}

// approxOne checks that an estimate answers exactly one tuple; with no
// exact answer at this size, the replay checks in the gate carry the
// correctness of the estimates.
func approxOne(r *queryResponse, _ *stats) error {
	if len(r.Answers) != 1 {
		return fmt.Errorf("approximate answer has %d tuples, want 1", len(r.Answers))
	}
	return nil
}

func (b *beyondKeys) drive(ctx context.Context, c *client, tr *tracer, window time.Duration) *stats {
	check := queryCheck(approxOne)
	return closedLoop(ctx, newWorker(c, tr, "beyond"), window, func() *request {
		r := b.pool[b.pos%len(b.pool)]
		b.pos++
		return post(b.path(r.inst), r.body, check)
	})
}

// gate sends the replay checks through the coordinator: each estimate's
// value and draw count must equal the library's.
func (b *beyondKeys) gate(ctx context.Context, c *client, st *stats) string {
	w := newWorker(c, nil, "check")
	for _, ck := range b.checks {
		w.exec(ctx, post(b.path(ck.inst), ck.body, queryCheck(func(r *queryResponse, _ *stats) error {
			if len(r.Answers) != 1 {
				return &errWrong{fmt.Sprint(r.Answers), ck.want}
			}
			if got := fmt.Sprintf("%v/%d", r.Answers[0].Value, r.Answers[0].Samples); got != ck.want {
				return &errWrong{got, ck.want}
			}
			return nil
		})), time.Now())
	}
	st.merge(&w.st)
	return ""
}

// replay is the general-FD instance, whose hot value's survival is read
// under M^{uo,1}.
func (b *beyondKeys) replay() replaySpec {
	q := queryRequest{Generator: "uo", Singleton: true, Mode: "approx", Query: beyondHot, Epsilon: beyondEps, Delta: beyondDelta, Seed: 1}
	return replaySpec{
		id: b.ids[0], facts: b.insts[0].facts, fds: b.insts[0].fds,
		insert: func(i int) string { return fmt.Sprintf("R(ra%d,rb%d,rc%d)", i, i, i) },
		read:   q,
		approx: q,
	}
}
