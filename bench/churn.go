package main

// churn: one primary-key instance of 50k facts in 4-fact blocks plus
// two 64-fact hot blocks, beside 8 small primary-key instances. An
// open-loop writer starts a write cycle every 500 ms: it inserts a fresh
// fact, reads the batch of 4 standing queries, deletes the fact by the
// index the insert returned, and reads the batch again. Half the
// inserts land in the cold blocks the exact standing queries read. The
// workload's operation is the cycle, timed from its scheduled start to
// the second batch's answer: inserts and deletes cost different amounts,
// so a single write would make the latency distribution bimodal with
// its median on the edge between the two. Beside the writer, an
// open-loop reader sends 100 reads a second, half standing queries,
// half catalog reads of the small instances; it is what shows readers
// stalling behind the owning backend's registry lock while a write
// copies the instance, and its latencies are per-layer numbers
// (client.read_p99_ms) because which percentile lands in a stall moves
// with the write cost.
// This is the only workload that exercises ApplyInsert/ApplyDelete, the
// synchronous delta refresh, WAL appends with fsync and follower sync.
//
// The instance is 50k facts rather than the 100k of the delta suite
// because a write copies it: at 100k a cycle takes some 300 ms of its
// 500 ms period, and when a shared host slows by half the writer falls
// behind and its queue, not the code, sets the latency.
//
// The hot blocks are read by the approximate standing query, which
// routes delta-stratified, but never written: a write there redraws the
// 4225-outcome stratum synchronously, some 400 ms, which would overload
// the writer's schedule. Ad-hoc approximate reads of the churned
// instance are left out for the same reason — each cached one would be
// refreshed synchronously on every write. The reader sends no
// fresh-seed queries to the small instances either: what one costs
// follows the seed's random scenarios, not the code.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fd"
	"repro/internal/parse"
	"repro/internal/workload"
)

const (
	churnEps        = 0.2
	churnDelta      = 0.1
	churnCycleEvery = 500 * time.Millisecond
	churnReadEvery  = 10 * time.Millisecond
)

// churnState is the churned instance's content after some number of
// acknowledged writes, as far as the standing queries can see it.
type churnState struct {
	sizes map[string]int // block key → facts
	k2    []string       // values of block k2
}

func (s churnState) with(block, val string, insert bool) churnState {
	if _, tracked := s.sizes[block]; !tracked {
		return s
	}
	n := churnState{sizes: map[string]int{}, k2: s.k2}
	for k, v := range s.sizes {
		n.sizes[k] = v
	}
	if insert {
		n.sizes[block]++
		if block == "k2" {
			n.k2 = append(append([]string(nil), s.k2...), val)
		}
		return n
	}
	n.sizes[block]--
	if block == "k2" {
		n.k2 = nil
		for _, v := range s.k2 {
			if v != val {
				n.k2 = append(n.k2, v)
			}
		}
	}
	return n
}

// keep is the M^ur probability that a block of n facts keeps one of
// them: an operational repair keeps one of the n facts or none, n+1
// equiprobable outcomes.
func keep(n int) *big.Rat { return big.NewRat(int64(n), int64(n+1)) }

type churn struct {
	bigFacts string
	bigN     int
	blocks   int
	sigma    string
	small    []scenarioInst
	// smallReads[i] are small instance i's catalog queries.
	smallReads [][]*hotEntry
	standing   []queryRequest
	batchBody  []byte
	// history[g] is the state after g writes; the writer appends the
	// state a write produces before sending it.
	mu      sync.Mutex
	history []churnState
	started atomic.Int64
	acked   atomic.Int64
	// writes numbers the inserted facts; with wrng it carries the
	// writer's position from one window to the next, as rrng carries the
	// reader's.
	writes     int
	wrng, rrng *rand.Rand
	// bigID, smallIDs and standingReqs follow the current topology.
	bigID        string
	smallIDs     []string
	standingReqs []*request
}

func buildChurn(seed int64, tiny bool) (mix, error) {
	n := 50_000
	if tiny {
		n = 2_000
	}
	c := &churn{wrng: rand.New(rand.NewSource(seed ^ 0x5eed)), rrng: rand.New(rand.NewSource(seed*31 + 1)), sigma: "R: A1 -> A2\n"}
	var b strings.Builder
	st := churnState{sizes: map[string]int{}}
	for _, h := range []string{"h0", "h1"} {
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&b, "R(%s,v%d)\n", h, i)
		}
		st.sizes[h] = 64
	}
	c.bigN = 128
	for ; c.bigN < n; c.blocks++ {
		k := "k" + strconv.Itoa(c.blocks)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&b, "R(%s,v%d)\n", k, i)
			if c.blocks == 2 {
				st.k2 = append(st.k2, "v"+strconv.Itoa(i))
			}
		}
		if c.blocks < 3 {
			st.sizes[k] = 4
		}
		c.bigN += 4
	}
	c.bigFacts = b.String()
	c.history = []churnState{st}
	c.standing = []queryRequest{
		{Generator: "ur", Mode: "exact", Query: "Ans() :- R('k0', x)"},
		{Generator: "ur", Mode: "exact", Query: "Ans() :- R('k0', x), R('k1', y)"},
		{Generator: "ur", Mode: "exact", Query: "Ans(y) :- R('k2', y)"},
		{Generator: "ur", Mode: "approx", Query: "Ans() :- R('h0', x), R('h1', y)", Epsilon: churnEps, Delta: churnDelta, Seed: 7},
	}
	c.batchBody = mustJSON(batchRequest{Queries: c.standing})

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		sc := workload.RandomScenario(rng, workload.ScenarioSpec{Class: fd.PrimaryKeys, Shape: workload.ShapeBlocks, AnswerVars: i%2 == 1})
		entries, err := scenarioEntries(i, sc, int64(i), churnEps)
		if err != nil {
			return nil, err
		}
		var reads []*hotEntry
		for _, e := range entries {
			if e.suffix == "/query" {
				reads = append(reads, e)
			}
		}
		c.small = append(c.small, scenarioInst{facts: parse.FormatDatabase(sc.DB), fds: parse.FormatFDs(sc.Sigma), n: sc.DB.Len()})
		c.smallReads = append(c.smallReads, reads)
	}
	return c, nil
}

func (c *churn) facts() int {
	n := c.bigN
	for _, s := range c.small {
		n += s.n
	}
	return n
}

// state returns the state after g writes.
func (c *churn) state(g int64) churnState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.history[g]
}

// standingAnswer is what standing query i answers at state s: exact
// answers canonically rendered, or the approximate target.
func standingAnswer(i int, s churnState) (string, estimate) {
	switch i {
	case 0:
		return "=" + keep(s.sizes["k0"]).RatString(), estimate{}
	case 1:
		return "=" + new(big.Rat).Mul(keep(s.sizes["k0"]), keep(s.sizes["k1"])).RatString(), estimate{}
	case 2:
		out := make([]answer, len(s.k2))
		for j, v := range s.k2 {
			out[j] = answer{Tuple: []string{v}, Prob: big.NewRat(1, int64(len(s.k2)+1)).RatString()}
		}
		return exactAnswers(out), estimate{}
	default:
		p, _ := new(big.Rat).Mul(keep(s.sizes["h0"]), keep(s.sizes["h1"])).Float64()
		return "", estimate{p: p, eps: churnEps}
	}
}

// checkStanding accepts standing query i's answer if it is right at any
// generation legal while the request was in flight: from the writes
// acknowledged before it was sent to the writes started before its
// answer arrived.
func (c *churn) checkStanding(i int, r *queryResponse, from int64, st *stats) error {
	to := c.started.Load()
	if i == 3 {
		if len(r.Answers) != 1 {
			return fmt.Errorf("approximate answer has %d tuples, want 1", len(r.Answers))
		}
		if r.Cost != nil && !r.Cost.Cached {
			_, est := standingAnswer(i, c.state(to))
			st.approx(est, r.Answers[0].Value)
		}
		return nil
	}
	got := exactAnswers(r.Answers)
	var want string
	for g := from; g <= to; g++ {
		if want, _ = standingAnswer(i, c.state(g)); got == want {
			return nil
		}
	}
	return &errWrong{got, want}
}

func (c *churn) checkBatch(b []byte, from int64, st *stats) (*cost, error) {
	var r batchResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if len(r.Results) != len(c.standing) {
		return nil, fmt.Errorf("batch returned %d results, want %d", len(r.Results), len(c.standing))
	}
	for i, el := range r.Results {
		if el.Status != 200 || el.Result == nil {
			return nil, fmt.Errorf("batch element %d: status %d: %s", i, el.Status, el.Error)
		}
		if err := c.checkStanding(i, el.Result, from, st); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (c *churn) setup(ctx context.Context, cl *client, bases []string) error {
	// The churned instance is owned by backend 0 and followed by backend
	// 1; the small instances are spread over all three backends.
	c.bigID = placedID(bases, "big", 0, 0, 1)
	if err := register(ctx, cl, c.bigID, c.bigFacts, c.sigma); err != nil {
		return err
	}
	c.smallIDs = make([]string, len(c.small))
	for i, s := range c.small {
		c.smallIDs[i] = placedID(bases, "s", i, i%3, (i+1)%3)
		if err := register(ctx, cl, c.smallIDs[i], s.facts, s.fds); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.history = c.history[:1]
	c.mu.Unlock()
	c.started.Store(0)
	c.acked.Store(0)

	c.standingReqs = make([]*request, len(c.standing))
	for i := range c.standing {
		c.standingReqs[i] = post("/v1/instances/"+c.bigID+"/query", mustJSON(c.standing[i]), func(b []byte, from int64, st *stats) (*cost, error) {
			var r queryResponse
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, err
			}
			return r.Cost, c.checkStanding(i, &r, from, st)
		})
	}
	warm := append([]*request(nil), c.standingReqs...)
	for i, reads := range c.smallReads {
		for _, e := range reads {
			warm = append(warm, post("/v1/instances/"+c.smallIDs[i]+e.suffix, e.body, e.check))
		}
	}
	w := newWorker(cl, nil, "warm")
	w.gen = c.acked.Load
	return w.warm(ctx, warm)
}

// standingBlocks are the cold blocks the exact standing queries read.
var standingBlocks = []string{"k0", "k1", "k2"}

// cycle runs one write cycle from due: insert a fresh fact — into a
// standing block half of the time, elsewhere otherwise — read the
// standing batch, delete the fact by the index the insert returned, and
// read the batch again. It returns when the second batch has answered,
// or false once a write failed.
func (c *churn) cycle(ctx context.Context, w *worker, batch *request, due time.Time) (time.Time, bool) {
	c.writes++
	block := standingBlocks[c.wrng.Intn(len(standingBlocks))]
	if c.wrng.Intn(2) == 0 {
		block = "k" + strconv.Itoa(3+c.wrng.Intn(c.blocks-3))
	}
	val := "w" + strconv.Itoa(c.writes)
	base := "/v1/instances/" + c.bigID + "/facts"
	var index int
	insert := &request{method: http.MethodPost, path: base, write: true,
		body: mustJSON(insertRequest{Fact: "R(" + block + "," + val + ")"}),
		check: func(b []byte, _ int64, _ *stats) (*cost, error) {
			var m mutationResponse
			err := json.Unmarshal(b, &m)
			index = m.Index
			return nil, err
		}}
	end, ok := c.write(ctx, w, batch, insert, due, block, val, true)
	if !ok {
		return end, false
	}
	del := &request{method: http.MethodDelete, path: base + "/" + strconv.Itoa(index), write: true,
		check: func([]byte, int64, *stats) (*cost, error) { return nil, nil }}
	return c.write(ctx, w, batch, del, end, block, val, false)
}

// write records the state r leads to, sends r at due and, once it is
// acknowledged, the batch of standing queries; it returns when the batch
// has answered. A failed write leaves the instance's content unknown, so
// the cycle stops rather than check answers against a guess.
func (c *churn) write(ctx context.Context, w *worker, batch, r *request, due time.Time, block, val string, insert bool) (time.Time, bool) {
	c.mu.Lock()
	c.history = append(c.history, c.history[len(c.history)-1].with(block, val, insert))
	c.mu.Unlock()
	c.started.Add(1)
	end, ok := w.exec(ctx, r, due)
	if !ok {
		return end, false
	}
	c.acked.Add(1)
	if end, ok = w.exec(ctx, batch, end); ok {
		w.st.fresh = append(w.st.fresh, end.Sub(due))
	}
	return end, true
}

// nextRead is the reader's k-th read: a standing query on even k, else
// a catalog query of a random small instance.
func (c *churn) nextRead(k int) *request {
	if k%2 == 0 {
		return c.standingReqs[(k/2)%len(c.standingReqs)]
	}
	i := c.rrng.Intn(len(c.small))
	e := c.smallReads[i][c.rrng.Intn(len(c.smallReads[i]))]
	return post("/v1/instances/"+c.smallIDs[i]+"/query", e.body, e.check)
}

func (c *churn) drive(ctx context.Context, cl *client, tr *tracer, window time.Duration) *stats {
	batch := post("/v1/instances/"+c.bigID+"/batch", c.batchBody, c.checkBatch)
	writer := newWorker(cl, tr, "writer")
	writer.gen = c.acked.Load
	reader := newWorker(cl, tr, "reader")
	reader.gen = c.acked.Load

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := 0
		openLoop(ctx, start, window, churnReadEvery, func(due time.Time) bool {
			reader.exec(ctx, c.nextRead(k), due)
			k++
			return true
		})
	}()
	openLoop(ctx, start, window, churnCycleEvery, func(due time.Time) bool {
		failed := writer.st.failed
		end, ok := c.cycle(ctx, writer, batch, due)
		if writer.st.failed == failed {
			writer.st.ops = append(writer.st.ops, end.Sub(due))
		}
		return ok
	})
	wg.Wait()
	// The batches are timed as fresh answers, not as reads.
	writer.st.reads = nil
	st := &stats{}
	st.merge(&writer.st)
	st.merge(&reader.st)
	return st
}

func (c *churn) gate(_ context.Context, _ *client, st *stats) string {
	return envelopeGate(st, churnDelta)
}

func (c *churn) replay() replaySpec {
	return replaySpec{
		id: c.bigID, facts: c.bigFacts, fds: c.sigma,
		insert: func(i int) string { return "R(k" + strconv.Itoa(i%3) + ",r" + strconv.Itoa(i) + ")" },
		read:   c.standing[0],
		approx: c.standing[3],
	}
}
