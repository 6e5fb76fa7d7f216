package main

// scale-ur: one primary-key instance of 100k facts — 90% clean, 10% in
// 2-fact conflict blocks, some 15 MB per copy, several times the L2
// cache — queried with approximate M^ur (ε=0.2, δ=0.1) and a fresh seed
// per request, so every request misses the result cache and runs a cold
// estimator. In every ten requests: six single-block Booleans
// R('k…','v0') (p = 1/3), two two-block conjunctions (p = 1/9), one
// answers query Ans(y) :- R('k…',y) (1/3 per tuple) and one exact
// single-block Boolean. The slowest kind, the conjunctions, is a fifth
// of the mix so the 90th percentile falls inside it rather than on the
// edge between two kinds. One closed-loop client. The engine, the block
// sampler and query compilation dominate.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

const (
	scaleEps   = 0.2
	scaleDelta = 0.1
	scaleSigma = "R: A1 -> A2\n"
)

// scaleKinds is the request mix, cycled by every worker.
var scaleKinds = []scaleKind{single, exact, pair, single, answers, single, pair, single, single, single}

type scaleKind int

const (
	single scaleKind = iota
	pair
	answers
	exact
)

type scaleUR struct {
	n      int
	blocks int
	text   string
	// pool is the client's pre-encoded request sequence and pos its next
	// index. warm is one request of each kind, with seeds of its own so
	// the window never meets a warm-up answer in the cache.
	pool []*scaleReq
	pos  int
	warm []*scaleReq
	id   string
}

// scaleReq is one pre-encoded request and its expected answer: an exact
// rendering, or the probability every answer tuple must estimate.
type scaleReq struct {
	body   []byte
	exact  string
	p      float64
	tuples int
}

func buildScaleUR(seed int64, tiny bool) (mix, error) {
	n := 100_000
	if tiny {
		n = 4_000
	}
	s := &scaleUR{n: n, blocks: n / 20}
	var b strings.Builder
	b.Grow(16 * n)
	for i := 0; i < n-2*s.blocks; i++ {
		fmt.Fprintf(&b, "R(c%08d,v)\n", i)
	}
	for k := 0; k < s.blocks; k++ {
		fmt.Fprintf(&b, "R(k%08d,v0)\nR(k%08d,v1)\n", k, k)
	}
	s.text = b.String()
	rng := rand.New(rand.NewSource(seed))
	seq := int64(1)
	block := func() int { return rng.Intn(s.blocks) }
	gen := func(kind scaleKind) *scaleReq {
		seq++
		req := queryRequest{Generator: "ur", Mode: "approx", Epsilon: scaleEps, Delta: scaleDelta, Seed: seq}
		r := &scaleReq{p: 1.0 / 3, tuples: 1}
		switch kind {
		case single:
			req.Query = fmt.Sprintf("Ans() :- R('k%08d', 'v0')", block())
		case pair:
			b1, b2 := block(), block()
			for b2 == b1 {
				b2 = block()
			}
			req.Query = fmt.Sprintf("Ans() :- R('k%08d', 'v0'), R('k%08d', 'v0')", b1, b2)
			r.p = 1.0 / 9
		case answers:
			req.Query = fmt.Sprintf("Ans(y) :- R('k%08d', y)", block())
			r.tuples = 2
		case exact:
			req = queryRequest{Generator: "ur", Mode: "exact", Query: fmt.Sprintf("Ans() :- R('k%08d', 'v0')", block())}
			r.exact = "=1/3"
		}
		r.body = mustJSON(req)
		return r
	}
	for _, kind := range []scaleKind{single, pair, answers, exact} {
		s.warm = append(s.warm, gen(kind))
	}
	for k := 0; k < 4096; k++ {
		s.pool = append(s.pool, gen(scaleKinds[k%len(scaleKinds)]))
	}
	return s, nil
}

func (s *scaleUR) facts() int { return s.n }

func (s *scaleUR) request(r *scaleReq) *request {
	return post("/v1/instances/"+s.id+"/query", r.body, queryCheck(func(q *queryResponse, st *stats) error {
		if r.exact != "" {
			if got := exactAnswers(q.Answers); got != r.exact {
				return &errWrong{got, r.exact}
			}
			return nil
		}
		if len(q.Answers) != r.tuples {
			return fmt.Errorf("approximate answer has %d tuples, want %d", len(q.Answers), r.tuples)
		}
		for _, a := range q.Answers {
			st.approx(estimate{p: r.p, eps: scaleEps}, a.Value)
		}
		return nil
	}))
}

func (s *scaleUR) setup(ctx context.Context, c *client, bases []string) error {
	s.id = placedID(bases, "scale", 0, 0, 1)
	if err := register(ctx, c, s.id, s.text, scaleSigma); err != nil {
		return err
	}
	warm := make([]*request, len(s.warm))
	for i, r := range s.warm {
		warm[i] = s.request(r)
	}
	return newWorker(c, nil, "warm").warm(ctx, warm)
}

func (s *scaleUR) drive(ctx context.Context, c *client, tr *tracer, window time.Duration) *stats {
	return closedLoop(ctx, newWorker(c, tr, "scale"), window, func() *request {
		r := s.pool[s.pos%len(s.pool)]
		s.pos++
		return s.request(r)
	})
}

func (s *scaleUR) gate(_ context.Context, _ *client, st *stats) string {
	return envelopeGate(st, scaleDelta)
}

func (s *scaleUR) replay() replaySpec {
	return replaySpec{
		id: s.id, facts: s.text, fds: scaleSigma,
		insert: func(i int) string { return fmt.Sprintf("R(x%08d,v)", i) },
		read:   queryRequest{Generator: "ur", Mode: "exact", Query: "Ans() :- R('k00000000', 'v0')"},
		approx: queryRequest{Generator: "ur", Mode: "approx", Query: "Ans() :- R('k00000000', 'v0')", Epsilon: scaleEps, Delta: scaleDelta, Seed: 1},
	}
}
