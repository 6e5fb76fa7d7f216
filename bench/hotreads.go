package main

// hot-reads: 48 small random scenarios — 16 each under primary keys,
// keys and general FDs, half of them with answer variables — read
// through a fixed catalog of at most 1024 requests chosen Zipf(1.1), so
// the catalog fits the backends' result caches. The coordinator hop,
// HTTP/JSON and the result cache do almost all the work. Every exact
// answer is compared with the brute-force oracle's rational. One
// closed-loop client: open-loop pacing would measure this host's timer,
// not a 0.2 ms request.
//
// No request misses the cache on purpose. A fresh-seed approximate
// query on these random scenarios costs from 0.1 to 20 ms on average,
// depending on the seed, so a few percent of them would make the seed,
// not the code, set the workload's cost; and each miss adds an entry to
// a backend's LRU result cache, which would evict catalog entries as
// the window goes on. Misses are what scale-ur and beyond-keys measure.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/oracle"
	"repro/internal/parse"
	"repro/internal/workload"
)

const (
	hotEps   = 0.2
	hotDelta = 0.1
	// hotMinProb keeps approximate targets whose stopping rule ends in a
	// few thousand draws; the cap is a backstop, never reached.
	hotMinProb    = 0.05
	hotMaxSamples = 200_000
	hotZipfS      = 1.1
)

// hotEntry is one catalog request — its path suffix under the instance
// and its pre-encoded body — with the answer it must get.
type hotEntry struct {
	inst   int
	suffix string
	body   []byte
	// want is an exact answer's canonical rendering; est is set instead
	// on approximate queries.
	want string
	est  *estimate
	// elems are a batch's element entries.
	elems []*hotEntry
}

// check validates a response to e.
func (e *hotEntry) check(b []byte, _ int64, st *stats) (*cost, error) {
	switch e.suffix {
	case "/batch":
		var r batchResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		if len(r.Results) != len(e.elems) {
			return nil, fmt.Errorf("batch returned %d results, want %d", len(r.Results), len(e.elems))
		}
		for i, el := range r.Results {
			if el.Status != 200 || el.Result == nil {
				return nil, fmt.Errorf("batch element %d: status %d: %s", i, el.Status, el.Error)
			}
			if err := e.elems[i].checkQuery(el.Result, st); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case "/marginals":
		var r marginalsResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		lines := make([]string, len(r.Marginals))
		for i, m := range r.Marginals {
			lines[i] = m.Fact + "=" + m.Prob
		}
		sort.Strings(lines)
		return r.Cost, e.compare(strings.Join(lines, ";"))
	case "/repairs/count":
		var r countResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		return r.Cost, e.compare(r.Count)
	default:
		var r queryResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		return r.Cost, e.checkQuery(&r, st)
	}
}

func (e *hotEntry) checkQuery(r *queryResponse, st *stats) error {
	if e.est == nil {
		return e.compare(exactAnswers(r.Answers))
	}
	if len(r.Answers) != 1 {
		return fmt.Errorf("approximate answer has %d tuples, want 1", len(r.Answers))
	}
	if r.Cost != nil && !r.Cost.Cached {
		st.approx(*e.est, r.Answers[0].Value)
	}
	return nil
}

func (e *hotEntry) compare(got string) error {
	if got != e.want {
		return &errWrong{got, e.want}
	}
	return nil
}

// scenarioInst is one registered scenario.
type scenarioInst struct {
	facts, fds string
	n          int
	pk         bool
	query      string
	// relation and arity of the scenario's first fact, for fresh facts.
	relation string
	arity    int
}

type hotReads struct {
	insts   []scenarioInst
	catalog []*hotEntry
	// ids and reqs follow the current topology.
	ids  []string
	reqs []*request
	// zipf picks the client's requests; it carries on from one window to
	// the next.
	zipf *rand.Zipf
	// envIn of envAll approximate answers computed by the last warm-up
	// landed inside their ε envelope.
	envIn, envAll int64
}

func buildHotReads(seed int64, tiny bool) (mix, error) {
	perClass := 16
	if tiny {
		perClass = 2
	}
	rng := rand.New(rand.NewSource(seed))
	h := &hotReads{}
	for ci, class := range []fd.Class{fd.PrimaryKeys, fd.Keys, fd.GeneralFDs} {
		shapes := workload.Shapes(class)
		for k := 0; k < perClass; k++ {
			sc := workload.RandomScenario(rng, workload.ScenarioSpec{
				Class: class, Shape: shapes[k%len(shapes)], AnswerVars: k%2 == 1,
			})
			first := sc.DB.Facts()[0]
			h.insts = append(h.insts, scenarioInst{
				facts: parse.FormatDatabase(sc.DB), fds: parse.FormatFDs(sc.Sigma), n: sc.DB.Len(),
				pk: class == fd.PrimaryKeys, query: sc.Query.String(), relation: first.Rel, arity: len(first.Args),
			})
			entries, err := scenarioEntries(len(h.insts)-1, sc, int64(ci*1000+k), hotEps)
			if err != nil {
				return nil, err
			}
			h.catalog = append(h.catalog, entries...)
		}
	}
	if len(h.catalog) > 1024 {
		return nil, fmt.Errorf("catalog of %d entries exceeds the 1024-entry result cache", len(h.catalog))
	}
	h.catalog = spreadKinds(rng, h.catalog)
	h.zipf = rand.NewZipf(rand.New(rand.NewSource(seed*31)), hotZipfS, 1, uint64(len(h.catalog)-1))
	return h, nil
}

// spreadKinds orders the catalog for the Zipf draw. Each kind of request
// — exact or approximate query, batch, marginals, count — is shuffled
// within itself and spread evenly over the ranks, so the popular ranks
// hold the same mix of kinds whatever the seed; a plain shuffle would
// let one seed put a batch at the top rank and another a count.
func spreadKinds(rng *rand.Rand, entries []*hotEntry) []*hotEntry {
	groups := map[string][]*hotEntry{}
	var kinds []string
	for _, e := range entries {
		k := e.suffix
		if e.est != nil {
			k += "~approx"
		}
		if groups[k] == nil {
			kinds = append(kinds, k)
		}
		groups[k] = append(groups[k], e)
	}
	sort.Strings(kinds)
	type placed struct {
		at float64
		e  *hotEntry
	}
	var all []placed
	for _, k := range kinds {
		g := groups[k]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for i, e := range g {
			all = append(all, placed{(float64(i) + 0.5) / float64(len(g)), e})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([]*hotEntry, len(all))
	for i, p := range all {
		out[i] = p.e
	}
	return out
}

func genName(g ocqa.Generator) string {
	switch g {
	case ocqa.UniformRepairs:
		return "ur"
	case ocqa.UniformSequences:
		return "us"
	default:
		return "uo"
	}
}

// scenarioEntries derives an instance's catalog from its oracle: exact
// queries in all six modes, approximate queries in every FPRAS cell
// (fixed seeds), one 8-element batch, exact marginals under both
// generators that have them, and both counts.
func scenarioEntries(inst int, sc workload.Scenario, salt int64, eps float64) ([]*hotEntry, error) {
	o, err := oracle.New(sc.DB, sc.Sigma)
	if err != nil {
		return nil, err
	}
	qs := sc.Query.String()
	var out, batch []*hotEntry
	for mi, m := range core.AllModes() {
		want, err := oracleAnswers(o, m, sc)
		if err != nil {
			return nil, err
		}
		req := queryRequest{Generator: genName(m.Gen), Singleton: m.Singleton, Mode: "exact", Query: qs}
		e := &hotEntry{inst: inst, suffix: "/query", body: mustJSON(req), want: want}
		out = append(out, e)
		batch = append(batch, e)

		if st, _ := ocqa.Approximability(m, sc.Sigma.Classify()); st != ocqa.StatusFPRAS {
			continue
		}
		tuple, p, err := approxTarget(o, m, sc)
		if err != nil {
			return nil, err
		}
		if p < hotMinProb {
			continue
		}
		areq := queryRequest{
			Generator: genName(m.Gen), Singleton: m.Singleton, Mode: "approx", Query: qs,
			Tuple: tuple, Epsilon: eps, Delta: hotDelta, Seed: 1 + salt*8 + int64(mi), MaxSamples: hotMaxSamples,
		}
		a := &hotEntry{inst: inst, suffix: "/query", body: mustJSON(areq), est: &estimate{p: p, eps: eps}}
		out = append(out, a)
		batch = append(batch, a)
	}
	for i := 0; len(batch) < 8; i++ {
		batch = append(batch, batch[i])
	}
	batch = batch[:8]
	reqs := make([]json.RawMessage, len(batch))
	for i, e := range batch {
		reqs[i] = e.body
	}
	out = append(out, &hotEntry{inst: inst, suffix: "/batch", body: mustJSON(map[string]any{"queries": reqs}), elems: batch})

	for _, m := range []ocqa.Mode{{Gen: ocqa.UniformRepairs}, {Gen: ocqa.UniformOperations}} {
		margs, err := o.Marginals(m)
		if err != nil {
			return nil, err
		}
		lines := make([]string, len(margs))
		for i, f := range sc.DB.Facts() {
			lines[i] = f.String() + "=" + margs[i].RatString()
		}
		sort.Strings(lines)
		out = append(out, &hotEntry{inst: inst, suffix: "/marginals",
			body: mustJSON(marginalsRequest{Generator: genName(m.Gen), Mode: "exact"}), want: strings.Join(lines, ";")})
	}
	for _, seqs := range []bool{false, true} {
		n, err := o.CountRepairs(false)
		if seqs {
			n, err = o.CountSequences(false)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, &hotEntry{inst: inst, suffix: "/repairs/count", body: mustJSON(countRequest{Sequences: seqs}), want: n.String()})
	}
	return out, nil
}

// oracleAnswers is the exact answer the server must return for the
// scenario's query under mode m, rendered like exactAnswers: a Boolean
// query answers its empty tuple, an answers query every tuple of Q(D).
func oracleAnswers(o *oracle.Oracle, m ocqa.Mode, sc workload.Scenario) (string, error) {
	if sc.Query.IsBoolean() {
		p, err := o.Probability(m, sc.Query, nil)
		if err != nil {
			return "", err
		}
		return "=" + p.RatString(), nil
	}
	as, err := o.Answers(m, sc.Query)
	if err != nil {
		return "", err
	}
	out := make([]answer, len(as))
	for i, a := range as {
		out[i] = answer{Tuple: a.Tuple, Prob: a.Prob.RatString()}
	}
	return exactAnswers(out), nil
}

// approxTarget picks the single tuple an approximate catalog entry asks
// for — the empty tuple of a Boolean query, else the most probable
// answer — and its exact probability.
func approxTarget(o *oracle.Oracle, m ocqa.Mode, sc workload.Scenario) (string, float64, error) {
	if sc.Query.IsBoolean() {
		p, err := o.Probability(m, sc.Query, nil)
		if err != nil {
			return "", 0, err
		}
		f, _ := p.Float64()
		return "", f, nil
	}
	as, err := o.Answers(m, sc.Query)
	if err != nil {
		return "", 0, err
	}
	best, bestP := "", 0.0
	for _, a := range as {
		f, _ := a.Prob.Float64()
		if f > bestP {
			best, bestP = strings.Join(a.Tuple, ","), f
		}
	}
	return best, bestP, nil
}

func (h *hotReads) facts() int {
	n := 0
	for _, in := range h.insts {
		n += in.n
	}
	return n
}

func (h *hotReads) setup(ctx context.Context, c *client, bases []string) error {
	h.ids = make([]string, len(h.insts))
	for i, in := range h.insts {
		h.ids[i] = placedID(bases, "h", i, i%3, (i+1)%3)
		if err := register(ctx, c, h.ids[i], in.facts, in.fds); err != nil {
			return err
		}
	}
	h.reqs = make([]*request, len(h.catalog))
	for i, e := range h.catalog {
		h.reqs[i] = post("/v1/instances/"+h.ids[e.inst]+e.suffix, e.body, e.check)
	}
	// Every catalog entry once, so the window starts with the catalog
	// cached and every request known to succeed. The window only hits the
	// cache, so the approximate answers the envelope gate scores are the
	// ones computed here.
	w := newWorker(c, nil, "warm")
	err := w.warm(ctx, h.reqs)
	h.envIn, h.envAll = w.st.envIn, w.st.envAll
	return err
}

func (h *hotReads) drive(ctx context.Context, c *client, tr *tracer, window time.Duration) *stats {
	return closedLoop(ctx, newWorker(c, tr, "hot"), window, func() *request {
		return h.reqs[h.zipf.Uint64()]
	})
}

func (h *hotReads) gate(_ context.Context, _ *client, st *stats) string {
	st.envIn += h.envIn
	st.envAll += h.envAll
	return envelopeGate(st, hotDelta)
}

// replay is the largest primary-key scenario, read exactly under M^ur.
func (h *hotReads) replay() replaySpec {
	big := -1
	for i, in := range h.insts {
		if in.pk && (big < 0 || in.n > h.insts[big].n) {
			big = i
		}
	}
	in := h.insts[big]
	return replaySpec{
		id: h.ids[big], facts: in.facts, fds: in.fds,
		insert: func(i int) string {
			args := make([]string, in.arity)
			for k := range args {
				args[k] = "r" + strconv.Itoa(i) + "_" + strconv.Itoa(k)
			}
			return in.relation + "(" + strings.Join(args, ",") + ")"
		},
		read:   queryRequest{Generator: "ur", Mode: "exact", Query: in.query},
		approx: queryRequest{Generator: "ur", Mode: "approx", Query: in.query, Epsilon: hotEps, Delta: hotDelta, Seed: 1, MaxSamples: hotMaxSamples},
	}
}
