package main

// The traced run: per-layer numbers measured from outside the program.
// The coordinator's and every backend's handler are wrapped in timing
// handlers joined on X-Request-Id, switched on in every other one-second
// slice of the window; /varz and /metrics are read before and after the
// window; on workloads whose window only reads, a short write probe
// follows it through the coordinator;
// and one of the workload's instances is replayed directly against the
// public library and store functions. Span names:
//
//	client        load generator, scheduled send → response read
//	coordinator   (*cluster.Coordinator).ServeHTTP
//	backend<i>    (*server.Server).ServeHTTP of backend i
//	ocqa.*, store.*   the replay's library and store calls, with the
//	              engine's own phase spans (compile, sample:…) under
//	              ocqa.approx

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	ocqa "repro"
	"repro/internal/store"
)

// replaySpec is the instance the traced run mutates: through the
// coordinator by the write probe, and directly against the library and
// the store by the replay.
type replaySpec struct {
	// id is the instance as registered in the current topology.
	id         string
	facts, fds string
	// insert is the text of the i-th fresh fact.
	insert func(i int) string
	// read is the workload's read of the instance: the replay answers it
	// on every mutated generation, and the probe sends it after every
	// write.
	read queryRequest
	// approx is a cold approximate read whose engine spans the replay
	// records.
	approx queryRequest
}

// replayWrites is the number of insert/delete pairs the probe and the
// replay apply.
const replayWrites = 8

// traceSlice is how long the traced run leaves the timing handlers on,
// or off, at a time. Alternating them across the whole window spreads
// the host's drift evenly over both kinds of slice, so the difference
// between them is what tracing costs.
const traceSlice = time.Second

// tracedRun measures the window in slices that alternate between timing
// handlers off and on, and derives the per-layer metrics from the traced
// slices.
func tracedRun(ctx context.Context, cfg config, m mix, topo *topology, cl *client, tr *tracer, dir string, heap float64) (map[string]metric, *stats, error) {
	out := map[string]metric{
		"client.timer_overshoot_ms": {timerOvershoot(), "ms"},
		"mem.heap_bytes_per_fact":   {heap / float64(m.facts()), "B"},
	}
	before, err := scrape(topo)
	if err != nil {
		return nil, nil, err
	}
	slices := max(2, 2*int(cfg.window/(2*traceSlice)))
	plain, traced := &stats{}, &stats{}
	var plainElapsed time.Duration
	runtime.GC()
	slice := cfg.window / time.Duration(slices)
	for k := 0; k < slices; k++ {
		tr.on.Store(k%2 == 1)
		start := time.Now()
		st := m.drive(ctx, cl, tr, slice)
		if k%2 == 1 {
			traced.merge(st)
		} else {
			plain.merge(st)
			plainElapsed += time.Since(start)
		}
	}
	tr.on.Store(true)
	sp := m.replay()
	probe := &stats{}
	if len(traced.writes) == 0 {
		probe = probeWrites(ctx, cl, tr, sp)
	}
	tr.on.Store(false)
	after, err := scrape(topo)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range spanMetrics(tr.snapshot()) {
		out[k] = v
	}
	for k, v := range varzMetrics(before, after) {
		out[k] = v
	}

	writes := append(append([]time.Duration(nil), traced.writes...), probe.writes...)
	fresh := append(append([]time.Duration(nil), traced.fresh...), probe.fresh...)
	late := append(append([]time.Duration(nil), plain.late...), traced.late...)
	out["client.write_ms_p50"] = metric{quantile(writes, 0.5), "ms"}
	out["client.write_ms_p90"] = metric{quantile(writes, 0.9), "ms"}
	out["client.fresh_answer_ms_p50"] = metric{quantile(fresh, 0.5), "ms"}
	out["client.gen_late_ms_p99"] = metric{quantile(late, 0.99), "ms"}
	out["client.read_p99_ms"] = metric{quantile(plain.reads, 0.99), "ms"}
	out["client.latency_p90_ms"] = metric{quantile(plain.ops, 0.90), "ms"}
	out["client.throughput_ops_s"] = metric{ratio(float64(len(plain.ops)), plainElapsed.Seconds()), "ops/s"}
	out["trace.overhead"] = metric{quantile(traced.ops, 0.5)/quantile(plain.ops, 0.5) - 1, "ratio"}
	var draws, walls []float64
	workers, n := 0, 0
	for _, c := range traced.misses {
		walls = append(walls, c.WallSeconds*1e3)
		if c.Draws > 0 {
			draws = append(draws, float64(c.Draws))
			workers += c.Workers
			n++
		}
	}
	out["server.compute_ms_p50"] = metric{floatQuantile(walls, 0.5), "ms"}
	out["engine.draws_per_query_p50"] = metric{floatQuantile(draws, 0.5), "count"}
	out["engine.workers_mean"] = metric{ratio(float64(workers), float64(n)), "count"}

	rm, err := replayLayers(ctx, sp, filepath.Join(dir, "replay"), tr)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	for k, v := range rm {
		out[k] = v
	}
	if err := writeSpans(cfg.spansPath, joinSpans(tr.snapshot())); err != nil {
		return nil, nil, err
	}
	st := &stats{}
	st.merge(plain)
	st.merge(traced)
	st.merge(probe)
	return out, st, nil
}

// probeWrites mutates the replay instance through the coordinator:
// replayWrites insert/delete pairs, each write followed by the
// workload's read, so that client write, backend write, follower-sync
// and fresh-answer times exist on workloads whose window only reads.
// Each delete removes its insert's fact by the index the insert
// returned, leaving the instance as it was.
func probeWrites(ctx context.Context, cl *client, tr *tracer, sp replaySpec) *stats {
	w := newWorker(cl, tr, "probe")
	base := "/v1/instances/" + sp.id
	read := post(base+"/query", mustJSON(sp.read), queryCheck(func(*queryResponse, *stats) error { return nil }))
	write := func(r *request) bool {
		due := time.Now()
		end, ok := w.exec(ctx, r, due)
		if !ok {
			return false
		}
		if end, ok = w.exec(ctx, read, end); ok {
			w.st.fresh = append(w.st.fresh, end.Sub(due))
		}
		return true
	}
	for i := 0; i < replayWrites; i++ {
		var index int
		insert := &request{method: http.MethodPost, path: base + "/facts", write: true,
			body: mustJSON(insertRequest{Fact: sp.insert(i)}),
			check: func(b []byte, _ int64, _ *stats) (*cost, error) {
				var m mutationResponse
				err := json.Unmarshal(b, &m)
				index = m.Index
				return nil, err
			}}
		if !write(insert) {
			break
		}
		del := &request{method: http.MethodDelete, path: base + "/facts/" + strconv.Itoa(index), write: true,
			check: func([]byte, int64, *stats) (*cost, error) { return nil, nil }}
		if !write(del) {
			break
		}
	}
	w.st.reads = nil
	return &w.st
}

func isWrite(path string) bool { return strings.Contains(path, "/facts") }

// covered is how much of parent's interval the children cover.
func covered(parent span, children []span) time.Duration {
	var iv [][2]int64
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := parent.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return time.Duration(total)
}

// spanMetrics joins the client, coordinator and backend spans of each
// read on its request id: the coordinator's self time (its span minus
// the backend spans it waited on), the backend's HTTP time (its span
// minus the computation the response's cost reports), the share of
// client time no server span covers, and the follower-sync and write
// spans.
func spanMetrics(spans []span) map[string]metric {
	byRID := map[string][]int{}
	for i, s := range spans {
		if s.RID != "" {
			byRID[s.RID] = append(byRID[s.RID], i)
		}
	}
	var self, httpT, syncs, writes []float64
	var clientTotal, clientSelf time.Duration
	for _, s := range spans {
		switch {
		case s.Path == "POST /v1/replication/sync":
			syncs = append(syncs, ms(s.dur()))
		case strings.HasPrefix(s.Name, "backend") && isWrite(s.Path):
			writes = append(writes, ms(s.dur()))
		}
		if s.Name != "client" || isWrite(s.Path) {
			continue
		}
		var coord *span
		var backs []span
		for _, j := range byRID[s.RID] {
			switch o := spans[j]; {
			case o.Name == "coordinator":
				coord = &spans[j]
			case strings.HasPrefix(o.Name, "backend"):
				backs = append(backs, o)
			}
		}
		if coord == nil || len(backs) == 0 {
			continue
		}
		clientTotal += s.dur()
		clientSelf += s.dur() - covered(s, []span{*coord})
		self = append(self, ms(coord.dur()-covered(*coord, backs)))
		if s.Cost != nil && strings.HasSuffix(s.Path, "/query") {
			// With a hedge, the answer came from the backend span that
			// ended first.
			first := backs[0]
			for _, b := range backs[1:] {
				if b.End < first.End {
					first = b
				}
			}
			httpT = append(httpT, ms(first.dur())-s.Cost.WallSeconds*1e3)
		}
	}
	return map[string]metric{
		"cluster.self_ms_p50":      {floatQuantile(self, 0.5), "ms"},
		"server.http_ms_p50":       {floatQuantile(httpT, 0.5), "ms"},
		"cluster.sync_ms_p50":      {floatQuantile(syncs, 0.5), "ms"},
		"server.write_ms_p50":      {floatQuantile(writes, 0.5), "ms"},
		"trace.unattributed_share": {ratio(float64(clientSelf), float64(clientTotal)), "ratio"},
	}
}

// joinSpans fills in every span's parent: a request's coordinator span
// hangs off its client span and its backend spans off the coordinator
// span; replication calls, which carry no request id of ours, hang off
// the smallest write or sync span that encloses them.
func joinSpans(spans []span) []span {
	firstOf := map[string]map[string]int{}
	var holders []span
	for _, s := range spans {
		if isWrite(s.Path) || s.Path == "POST /v1/replication/sync" {
			holders = append(holders, s)
		}
		if s.RID == "" {
			continue
		}
		m := firstOf[s.RID]
		if m == nil {
			m = map[string]int{}
			firstOf[s.RID] = m
		}
		kind := s.Name
		if strings.HasPrefix(kind, "backend") {
			kind = "backend"
		}
		if _, ok := m[kind]; !ok {
			m[kind] = s.ID
		}
	}
	for i := range spans {
		s := &spans[i]
		m := firstOf[s.RID]
		switch {
		case s.Parent != 0:
		case s.Name == "coordinator" && m["client"] != 0:
			s.Parent = m["client"]
		case strings.HasPrefix(s.Name, "backend") && m["coordinator"] != 0:
			s.Parent = m["coordinator"]
		case strings.Contains(s.Path, "/v1/replication/"):
			best := int64(-1)
			for _, h := range holders {
				if h.ID != s.ID && h.Start <= s.Start && s.End <= h.End && (best < 0 || h.End-h.Start < best) {
					best, s.Parent = h.End-h.Start, h.ID
				}
			}
		}
	}
	return spans
}

// backendVarz is the subset of a backend's /varz the traced run reads.
// The engine_*, delta_* and sampler counters are process-wide, so they
// are read from one backend only, never summed across the in-process
// backends.
type backendVarz struct {
	CacheHits              int64 `json:"cache_hits"`
	CacheMisses            int64 `json:"cache_misses"`
	FactMutations          int64 `json:"fact_mutations"`
	CacheDeltaRefreshes    int64 `json:"result_cache_delta_refreshes"`
	ReplFullSyncs          int64 `json:"replication_full_syncs"`
	Compactions            int64 `json:"compactions"`
	EngineSamplesDrawn     int64 `json:"engine_samples_drawn"`
	DeltaFactorCacheHits   int64 `json:"delta_factor_cache_hits"`
	DeltaFactorCacheMisses int64 `json:"delta_factor_cache_misses"`
	DeltaReusedDraws       int64 `json:"delta_reused_draws"`
}

type coordVarz struct {
	Proxied int64 `json:"proxied_requests"`
	Hedges  int64 `json:"hedged_requests"`
}

type scraped struct {
	backends []backendVarz
	coord    coordVarz
	// engineSeconds and engineDraws are the engine run histograms' sums,
	// which /metrics serves only from the most recently built server.
	engineSeconds, engineDraws float64
}

func scrape(t *topology) (*scraped, error) {
	s := &scraped{backends: make([]backendVarz, len(t.backends))}
	for i, b := range t.backends {
		if err := getJSON(b.URL, "/varz", &s.backends[i]); err != nil {
			return nil, err
		}
	}
	if err := getJSON(t.front.URL, "/varz", &s.coord); err != nil {
		return nil, err
	}
	resp, err := http.Get(t.backends[len(t.backends)-1].URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "ocqa_engine_run_duration_seconds_sum":
			s.engineSeconds, _ = strconv.ParseFloat(val, 64)
		case "ocqa_engine_run_draws_sum":
			s.engineDraws, _ = strconv.ParseFloat(val, 64)
		}
	}
	return s, sc.Err()
}

// varzMetrics turns two scrapes around the traced window into rates;
// the full-sync and compaction counts are totals since start-up.
func varzMetrics(a, b *scraped) map[string]metric {
	var hits, misses, muts, refreshes, fullSyncs, compactions float64
	for i := range b.backends {
		hits += float64(b.backends[i].CacheHits - a.backends[i].CacheHits)
		misses += float64(b.backends[i].CacheMisses - a.backends[i].CacheMisses)
		muts += float64(b.backends[i].FactMutations - a.backends[i].FactMutations)
		refreshes += float64(b.backends[i].CacheDeltaRefreshes - a.backends[i].CacheDeltaRefreshes)
		fullSyncs += float64(b.backends[i].ReplFullSyncs)
		compactions += float64(b.backends[i].Compactions)
	}
	g0, g1 := a.backends[0], b.backends[0]
	fh := float64(g1.DeltaFactorCacheHits - g0.DeltaFactorCacheHits)
	fm := float64(g1.DeltaFactorCacheMisses - g0.DeltaFactorCacheMisses)
	reused := float64(g1.DeltaReusedDraws - g0.DeltaReusedDraws)
	drawn := float64(g1.EngineSamplesDrawn - g0.EngineSamplesDrawn)
	return map[string]metric{
		"server.cache_hit_ratio":      {ratio(hits, hits+misses), "ratio"},
		"server.refreshes_per_write":  {ratio(refreshes, muts), "ratio"},
		"cluster.full_syncs":          {fullSyncs, "count"},
		"cluster.hedges_per_kreq":     {1000 * ratio(float64(b.coord.Hedges-a.coord.Hedges), float64(b.coord.Proxied-a.coord.Proxied)), "1/kreq"},
		"store.compactions":           {compactions, "count"},
		"ocqa.delta_factor_hit_ratio": {ratio(fh, fh+fm), "ratio"},
		"ocqa.reused_draw_share":      {ratio(reused, reused+drawn), "ratio"},
		"engine.ns_per_draw":          {1e9 * ratio(b.engineSeconds-a.engineSeconds, b.engineDraws-a.engineDraws), "ns"},
	}
}

// replayLayers replays the instance directly against the library and a
// scratch durable store: parse and prepare it, journal its
// registration, then apply replayWrites insert/delete pairs, journalling
// each, timing the write summary the mutation handler computes, and
// answering the workload's read on every new generation; last, one cold
// approximate read records the engine's phase spans.
func replayLayers(ctx context.Context, sp replaySpec, dir string, tr *tracer) (map[string]metric, error) {
	var inst *ocqa.Instance
	build, err := tr.timed("ocqa.build", func() (err error) {
		inst, err = ocqa.NewInstanceFromText(sp.facts, sp.fds)
		return err
	})
	if err != nil {
		return nil, err
	}
	var p *ocqa.Prepared
	prep, _ := tr.timed("ocqa.prepare", func() error { p = inst.Prepare(); return nil })
	st, err := store.Open(store.Options{Dir: dir, Fsync: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	reg, err := tr.timed("store.register", func() error {
		return st.LogRegister("replay", "", time.Now(), inst.DB(), inst.Sigma())
	})
	if err != nil {
		return nil, err
	}
	wal0, err := walBytes(dir)
	if err != nil {
		return nil, err
	}
	var applies, summaries, appends, reads []float64
	// step applies one mutation, then the handler's summary, the journal
	// append and the read, as the mutation handler and the next reader
	// would.
	step := func(apply func() (*ocqa.Prepared, error), journal func() error) (*ocqa.Prepared, error) {
		var np *ocqa.Prepared
		d, err := tr.timed("ocqa.apply", func() (err error) { np, err = apply(); return err })
		if err != nil {
			return nil, err
		}
		applies = append(applies, ms(d))
		d, _ = tr.timed("ocqa.write_summary", func() error {
			_ = np.IsConsistent()
			_ = len(np.Core().ConflictPairs())
			return nil
		})
		summaries = append(summaries, ms(d))
		if d, err = tr.timed("store.append", journal); err != nil {
			return nil, err
		}
		appends = append(appends, ms(d))
		if d, err = tr.timed("ocqa.read", func() error { return libraryRead(ctx, np, sp.read) }); err != nil {
			return nil, err
		}
		reads = append(reads, ms(d))
		return np, nil
	}
	lineage := p
	for i := 0; i < replayWrites; i++ {
		f, err := ocqa.ParseFact(sp.insert(i))
		if err != nil {
			return nil, err
		}
		var pos int
		np, err := step(func() (q *ocqa.Prepared, err error) {
			q, pos, err = lineage.ApplyInsert(f)
			return q, err
		}, func() error { return st.LogInsertFact("replay", f) })
		if err != nil {
			return nil, err
		}
		if lineage, err = step(func() (*ocqa.Prepared, error) { return np.ApplyDelete(pos) },
			func() error { return st.LogDeleteFact("replay", pos) }); err != nil {
			return nil, err
		}
	}
	wal1, err := walBytes(dir)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	trc := ocqa.NewTrace()
	if err := libraryRead(ocqa.ContextWithTrace(ctx, trc), p, sp.approx); err != nil {
		return nil, err
	}
	parent := tr.add(span{Name: "ocqa.approx", Start: tr.ns(start), End: tr.ns(time.Now())})
	var compiles []float64
	for _, s := range trc.Spans() {
		tr.add(span{Name: s.Name, Parent: parent, Start: tr.ns(start) + s.StartNanos, End: tr.ns(start) + s.EndNanos})
		if s.Name == "compile" {
			compiles = append(compiles, float64(s.EndNanos-s.StartNanos)/1e6)
		}
	}
	return map[string]metric{
		"ocqa.build_s":              {build.Seconds(), "s"},
		"ocqa.prepare_s":            {prep.Seconds(), "s"},
		"store.register_s":          {reg.Seconds(), "s"},
		"ocqa.apply_ms_p50":         {floatQuantile(applies, 0.5), "ms"},
		"ocqa.write_summary_ms_p50": {floatQuantile(summaries, 0.5), "ms"},
		"store.append_ms_p50":       {floatQuantile(appends, 0.5), "ms"},
		"store.wal_bytes_per_write": {ratio(float64(wal1-wal0), float64(2*replayWrites)), "B"},
		"ocqa.fresh_read_ms_p50":    {floatQuantile(reads, 0.5), "ms"},
		"cq.compile_ms_p50":         {floatQuantile(compiles, 0.5), "ms"},
	}, nil
}

// libraryRead answers req on p through the public library, as the
// server's query handler would.
func libraryRead(ctx context.Context, p *ocqa.Prepared, req queryRequest) error {
	q, err := ocqa.ParseQuery(req.Query)
	if err != nil {
		return err
	}
	mode := ocqa.Mode{Gen: map[string]ocqa.Generator{"ur": ocqa.UniformRepairs, "us": ocqa.UniformSequences, "uo": ocqa.UniformOperations}[req.Generator], Singleton: req.Singleton}
	switch {
	case req.Mode == "exact" && q.IsBoolean():
		_, err = p.ExactProbability(mode, q, nil, 0)
	case req.Mode == "exact":
		_, err = p.ConsistentAnswers(mode, q, 0)
	case q.IsBoolean():
		_, err = p.Approximate(ctx, mode, q, nil, ocqa.ApproxOptions{Epsilon: req.Epsilon, Delta: req.Delta, Seed: req.Seed, MaxSamples: req.MaxSamples})
	default:
		_, err = p.ApproximateAnswers(ctx, mode, q, ocqa.ApproxOptions{Epsilon: req.Epsilon, Delta: req.Delta, Seed: req.Seed, MaxSamples: req.MaxSamples})
	}
	return err
}

// walBytes totals the WAL segments in a store directory.
func walBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal.") {
			fi, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += fi.Size()
		}
	}
	return n, nil
}
