package ocqa

// Block-factorized estimation of M^ur under primary keys, incremental
// across mutations.
//
// Under primary keys the M^ur repair distribution is a product measure:
// a candidate repair keeps, independently per conflict block of size m,
// exactly one of the m facts or none (m+1 equiprobable outcomes; the
// singleton variant forbids the empty outcome, m outcomes). A query's
// probability therefore factorizes over the blocks its witness images
// touch: facts in singleton blocks survive every repair ("fixed"), a
// witness with two facts in one block can never hold, and the remaining
// witnesses couple blocks into independent clusters, giving
//
//	P(Q) = 1 − Π_c (1 − p_c)
//
// with p_c the probability that some witness local to cluster c holds —
// exactly enumerable over the cluster's small outcome product. A
// single-fact mutation changes one block, hence one cluster's factor:
// the others are served from a per-query factor cache keyed by the
// cluster's block identities and content, and re-multiplied in
// O(#clusters). The same decomposition drives the delta-stratified
// estimator: clusters too large to enumerate are sampled per stratum
// under a (ε/S, δ/S) stopping rule, and their draw statistics persist
// across generations — after a mutation only the touched stratum is
// redrawn, the rest are reused and reported as Accounting.ReusedDraws.
//
// Under primary keys this estimator answers every stopping-rule M^ur and
// M^{ur,1} query, on any instance, fresh or derived: an approximate
// answer whose clusters are all enumerable is exact, with zero draws.
// The paper's whole-instance estimators answer only where it declines
// (UseAA, UseChernoff, witness images past the cap, more than
// deltaMaxSampledStrata sampled strata).
//
// The state is a fingerprint's deltaQuery in the instance's query cache.
// ApplyInsert/ApplyDelete carry it into the derived instance, remapped
// and refreshed: deleted witness images are dropped, inserted facts
// discover their new images by the anchored homomorphism search
// (core.AnchoredWitnesses) instead of a full re-enumeration, and fact
// indices are shifted in place. The exact results are big.Rat-identical
// to the core enumeration engines (the oracle harness audits this); the
// stratified estimates keep the requested (ε, δ) by a union bound over
// strata, since the exact strata contribute no error and
// |P̂ − P| ≤ Σ_sampled |p̂_c − p_c| ≤ (ε/S)·Σ_c p_c ≤ ε·P.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/rel"
)

const (
	// deltaMaxWitnesses caps the live witness images maintained per
	// query fingerprint; past it the fingerprint degrades to the
	// non-delta paths (mirroring core.DefaultMaxImages, so a query the
	// multi-tuple predicate can compile is one the delta layer can
	// maintain).
	deltaMaxWitnesses = core.DefaultMaxImages
	// deltaExactOutcomes caps the outcome product enumerated per
	// cluster for an exact factor; larger clusters become sampled
	// strata on the approximate path and defeat the exact one.
	deltaExactOutcomes = 4096
	// deltaMaxSampledStrata caps the sampled clusters per target: the
	// per-stratum guarantee tightens as (ε/S, δ/S), so past a small S
	// the stratified budget exceeds the plain stopping rule's and the
	// classic estimator answers instead.
	deltaMaxSampledStrata = 16
)

// Process-wide delta counters, bridged into /varz and /metrics by the
// server (the sampler.Constructions / engine.SamplesDrawn pattern).
var (
	deltaRefreshCount atomic.Int64
	deltaFactorHits   atomic.Int64
	deltaFactorMisses atomic.Int64
	deltaReusedTotal  atomic.Int64
)

// DeltaRefreshes counts warm delta evaluations: targets answered by
// refreshing factors or strata carried across a mutation instead of
// recomputing cold.
func DeltaRefreshes() int64 { return deltaRefreshCount.Load() }

// DeltaFactorCacheHits counts per-cluster DP factors served from the
// factor cache.
func DeltaFactorCacheHits() int64 { return deltaFactorHits.Load() }

// DeltaFactorCacheMisses counts per-cluster DP factors recomputed
// because the cluster's content changed or was never seen.
func DeltaFactorCacheMisses() int64 { return deltaFactorMisses.Load() }

// DeltaReusedDraws counts stratum draws whose statistics were reused
// from a previous generation instead of being redrawn.
func DeltaReusedDraws() int64 { return deltaReusedTotal.Load() }

// deltaQuery is the maintained state of one query fingerprint.
type deltaQuery struct {
	mu sync.Mutex
	q  *Query
	// wits are the live witness images of the current generation,
	// tagged with the answer tuple each witnesses. Maintained
	// incrementally: remapped across every mutation's index shift,
	// pruned on delete, extended by the anchored search on insert.
	wits []core.Witness
	// overflow marks a fingerprint whose image count exceeded the cap
	// (at compile time or through growth); every delta entry point then
	// declines and the non-delta paths answer.
	overflow bool
	// factors caches, per cluster signature, the complement 1 − p_c as
	// an exact rational. Entries are immutable once stored.
	factors map[string]*big.Rat
	// strata persists the sampled clusters' draw statistics across
	// generations, keyed by the same signatures.
	strata map[string]deltaStratum
}

// deltaStratum is one sampled cluster's persisted statistics, with the
// per-stratum guarantee they were drawn under — reuse is sound only
// when the stored guarantee is at least as tight as the one the current
// run needs.
type deltaStratum struct {
	est        float64
	draws      int64
	eps, delta float64
	converged  bool
}

// deltaEligible reports whether the (class, mode) pair factorizes: the
// product-measure argument is specific to M^ur under primary keys, both
// of them FPRAS cells (Theorems 5.1(2), E.1(2)). M^us couples blocks
// through sequence interleavings and M^uo through the global operation
// choice, so both keep the whole-instance engines.
func (in *Instance) deltaEligible(mode Mode) bool {
	return in.class == fd.PrimaryKeys && mode.Gen == UniformRepairs
}

// deltaQueryFor returns the fingerprint's maintained state, building it
// from the cached multi-tuple compile on first use (one homomorphism
// enumeration, shared with the witness-set cache).
func (in *Instance) deltaQueryFor(q *Query) *deltaQuery {
	e := in.query(q)
	e.deltaOnce.Do(func() {
		if e.delta.Load() == nil {
			e.delta.Store(newDeltaQuery(e.q, in.compiled(e)))
		}
	})
	return e.delta.Load()
}

// newDeltaQuery builds a fingerprint's witness state from its
// multi-tuple compile — every tuple of Q(D) with its image sets.
func newDeltaQuery(q *Query, mp *core.MultiPred) *deltaQuery {
	dq := &deltaQuery{
		q:       q,
		factors: make(map[string]*big.Rat),
		strata:  make(map[string]deltaStratum),
	}
	tuples := mp.Tuples()
	total := 0
	for t := range tuples {
		ws, ok := mp.TupleWitnesses(t)
		if !ok {
			dq.overflow = true
			dq.wits = nil
			return dq
		}
		total += len(ws)
		if total > deltaMaxWitnesses {
			dq.overflow = true
			dq.wits = nil
			return dq
		}
		for _, w := range ws {
			dq.wits = append(dq.wits, core.Witness{Tuple: tuples[t], Facts: append([]int(nil), w...)})
		}
	}
	return dq
}

// --- mutations -------------------------------------------------------------

// ApplyInsert returns a new instance for (D ∪ {f}, Σ) and the index
// assigned to f, leaving the receiver untouched — in-flight queries
// against it are unaffected. The conflict pairs are maintained
// incrementally: the old ones are remapped across the index shift and
// the new fact's are found by one scan of the rows that can share its
// left-hand sides. The factorized state is carried over warm — witness
// images are remapped and the inserted fact's new images are discovered
// by the anchored homomorphism search, so the next query refreshes only
// the touched block's factor (or stratum) instead of recomputing from
// scratch. Samplers and witness-set compiles rebuild lazily. Fails with
// ErrDuplicateFact, ErrUnknownRelation or ErrArityMismatch.
func (in *Instance) ApplyInsert(f Fact) (*Instance, int, error) {
	inner, pos, err := in.inner.InsertFact(f)
	if err != nil {
		return nil, 0, fmt.Errorf("ocqa: %w", err)
	}
	return in.derive(inner, pos, -1), pos, nil
}

// ApplyDelete returns a new instance for (D ∖ {f_i}, Σ), with the same
// copy-on-write, incremental-maintenance and warm-carry semantics as
// ApplyInsert. Fails with ErrFactIndex.
func (in *Instance) ApplyDelete(i int) (*Instance, error) {
	inner, err := in.inner.DeleteFact(i)
	if err != nil {
		return nil, fmt.Errorf("ocqa: %w", err)
	}
	return in.derive(inner, -1, i), nil
}

// derive builds the successor instance over the mutated core and carries
// every fingerprint's factorized state across the mutation (exactly one
// of insertPos/deletePos is ≥ 0), in cache order. Factor caches and
// strata transfer as-is — their signatures are content-addressed, so
// entries for untouched clusters keep hitting while the touched
// cluster's old entry simply stops being referenced. Carried entries
// take their place in the successor's FIFO like any other.
func (in *Instance) derive(inner *core.Instance, insertPos, deletePos int) *Instance {
	ni := &Instance{db: inner.D, sigma: in.sigma, inner: inner, class: in.class, warm: true}
	in.queryMu.Lock()
	keys := append([]string(nil), in.order...)
	entries := make([]*queryEntry, len(keys))
	for i, k := range keys {
		entries[i] = in.queries[k]
	}
	in.queryMu.Unlock()
	for i, e := range entries {
		dq := e.delta.Load()
		if dq == nil {
			continue
		}
		ne := &queryEntry{q: dq.q}
		ne.delta.Store(dq.deriveAcross(ni, insertPos, deletePos))
		ni.cache(keys[i], ne)
	}
	return ni
}

// deriveAcross produces the next generation of one fingerprint's state:
// witness indices shifted, dead images dropped, anchored images
// appended, caches carried.
func (dq *deltaQuery) deriveAcross(ni *Instance, insertPos, deletePos int) *deltaQuery {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	ndq := &deltaQuery{
		q:        dq.q,
		overflow: dq.overflow,
		factors:  make(map[string]*big.Rat, len(dq.factors)),
		strata:   make(map[string]deltaStratum, len(dq.strata)),
	}
	for k, v := range dq.factors {
		ndq.factors[k] = v
	}
	for k, v := range dq.strata {
		ndq.strata[k] = v
	}
	if ndq.overflow {
		return ndq
	}
	for _, w := range dq.wits {
		facts := make([]int, 0, len(w.Facts))
		dead := false
		for _, fi := range w.Facts {
			switch {
			case deletePos >= 0 && fi == deletePos:
				dead = true
			case deletePos >= 0 && fi > deletePos:
				facts = append(facts, fi-1)
			case insertPos >= 0 && fi >= insertPos:
				facts = append(facts, fi+1)
			default:
				facts = append(facts, fi)
			}
		}
		if !dead {
			ndq.wits = append(ndq.wits, core.Witness{Tuple: w.Tuple, Facts: facts})
		}
	}
	if insertPos >= 0 {
		fresh, ok := ni.inner.AnchoredWitnesses(dq.q, insertPos, deltaMaxWitnesses)
		if !ok {
			ndq.overflow = true
			ndq.wits = nil
			return ndq
		}
		ndq.wits = append(ndq.wits, fresh...)
	}
	if len(ndq.wits) > deltaMaxWitnesses {
		ndq.overflow = true
		ndq.wits = nil
	}
	return ndq
}

// --- decomposition ---------------------------------------------------------

// witReq is one witness's per-block requirements during decomposition:
// the block roots it spans and the fact it needs kept in each.
type witReq struct {
	blocks []int
	facts  []int
}

// deltaCluster is one independent group of conflict blocks coupled by
// witness images, with the witnesses' requirements rewritten to
// (block position, member position) pairs.
type deltaCluster struct {
	sig string
	// radix[b] is block b's outcome count: m+1 pairwise (one survivor
	// or none), m singleton (exactly one survivor).
	radix []int
	// reqs[w] lists witness w's requirements as {block, member} pairs;
	// the witness holds iff every listed block's outcome keeps exactly
	// the listed member.
	reqs [][][2]int
	// outcomes is Π radix, saturated just past deltaExactOutcomes.
	outcomes int64
}

// deltaDecomp is the evaluated decomposition of one (query, tuple)
// target.
type deltaDecomp struct {
	certain  bool // some witness uses only fixed facts: P = 1
	clusters []deltaCluster
}

// decompose classifies the target's witnesses against the CURRENT block
// structure — read live off the current database by BlockOf — and
// groups coupled blocks into clusters. Block membership of a fact
// is stable under primary keys (blocks never merge or split), which is
// what makes content-addressed factor caching sound; block sizes and
// fixedness are still recomputed here every time, because a mutation
// can turn a fixed fact into a block fact and vice versa.
func (in *Instance) decompose(wits []core.Witness, singleton bool) deltaDecomp {
	var out deltaDecomp
	var wreqs []witReq
	rootOf := make(map[int]int)    // fact → block root (min member)
	members := make(map[int][]int) // root → sorted block members
	for _, w := range wits {
		var wr witReq
		impossible := false
		for _, fi := range w.Facts {
			root, ok := rootOf[fi]
			if !ok {
				blk := in.inner.BlockOf(fi)
				root = blk[0]
				for _, m := range blk {
					rootOf[m] = root
				}
				members[root] = blk
			}
			if len(members[root]) == 1 {
				continue // fixed: survives every repair
			}
			found := false
			for bi, r := range wr.blocks {
				if r == root {
					if wr.facts[bi] != fi {
						impossible = true // two facts of one block
					}
					found = true
					break
				}
			}
			if impossible {
				break
			}
			if !found {
				wr.blocks = append(wr.blocks, root)
				wr.facts = append(wr.facts, fi)
			}
		}
		if impossible {
			continue
		}
		if len(wr.blocks) == 0 {
			out.certain = true
			return out
		}
		wreqs = append(wreqs, wr)
	}
	if len(wreqs) == 0 {
		return out
	}
	// Union-find over block roots: witnesses couple the blocks they
	// span.
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, wr := range wreqs {
		for _, r := range wr.blocks {
			if _, ok := parent[r]; !ok {
				parent[r] = r
			}
		}
		for _, r := range wr.blocks[1:] {
			parent[find(r)] = find(wr.blocks[0])
		}
	}
	grouped := make(map[int][]witReq)
	for _, wr := range wreqs {
		g := find(wr.blocks[0])
		grouped[g] = append(grouped[g], wr)
	}
	groups := make([]int, 0, len(grouped))
	for g := range grouped {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		out.clusters = append(out.clusters, buildCluster(in.db, members, grouped[g], singleton))
	}
	return out
}

// buildCluster canonicalises one cluster: blocks sorted by root,
// requirements rewritten to (block, member) positions, and the content
// signature composed from the block identities — each member's interned
// relation and argument ids, stable across a lineage's append-only
// symbol tables — plus the requirement structure and the operation
// variant. The signature is the "(block id, block content)" key of the
// factor cache; it is an exact rendering rather than a hash, so a
// collision can never serve a stale factor.
func buildCluster(db *rel.Database, members map[int][]int, wreqs []witReq, singleton bool) deltaCluster {
	rootSet := make(map[int]bool)
	for _, wr := range wreqs {
		for _, r := range wr.blocks {
			rootSet[r] = true
		}
	}
	roots := make([]int, 0, len(rootSet))
	for r := range rootSet {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	blockPos := make(map[int]int, len(roots))
	memberPos := make(map[int]int)
	var c deltaCluster
	var sig strings.Builder
	if singleton {
		sig.WriteString("s|")
	}
	outcomes := int64(1)
	for bp, r := range roots {
		blockPos[r] = bp
		ms := members[r]
		radix := len(ms) + 1
		if singleton {
			radix = len(ms)
		}
		c.radix = append(c.radix, radix)
		if outcomes <= deltaExactOutcomes {
			outcomes *= int64(radix)
		}
		sig.WriteString("b")
		for mi, fi := range ms {
			memberPos[fi] = mi
			sig.WriteString(" ")
			sig.WriteString(strconv.Itoa(int(db.RelID(fi))))
			for _, a := range db.ArgIDs(fi) {
				sig.WriteString(",")
				sig.WriteString(strconv.Itoa(int(a)))
			}
		}
		sig.WriteString("|")
	}
	c.outcomes = outcomes
	reqStrs := make([]string, 0, len(wreqs))
	for _, wr := range wreqs {
		pairs := make([][2]int, 0, len(wr.blocks))
		for i, r := range wr.blocks {
			pairs = append(pairs, [2]int{blockPos[r], memberPos[wr.facts[i]]})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		var rs strings.Builder
		for _, pr := range pairs {
			rs.WriteString(strconv.Itoa(pr[0]))
			rs.WriteString(":")
			rs.WriteString(strconv.Itoa(pr[1]))
			rs.WriteString(" ")
		}
		c.reqs = append(c.reqs, pairs)
		reqStrs = append(reqStrs, rs.String())
	}
	sort.Strings(reqStrs)
	sig.WriteString("w")
	for _, rs := range reqStrs {
		sig.WriteString(";")
		sig.WriteString(rs)
	}
	c.sig = sig.String()
	return c
}

// holdsAt reports whether some witness of the cluster holds at the
// outcome vector (outcome[b] == k keeps member k of block b; the
// pairwise "delete all" outcome is k == m and satisfies nothing).
func (c *deltaCluster) holdsAt(outcome []int) bool {
	for _, reqs := range c.reqs {
		ok := true
		for _, pr := range reqs {
			if outcome[pr[0]] != pr[1] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// exactFactor enumerates the cluster's outcome product and returns the
// complement 1 − p_c as an exact rational; ok=false past the
// enumeration cap. Single-block clusters short-circuit: p = r/radix
// with r the distinct required members.
func (c *deltaCluster) exactFactor() (*big.Rat, bool) {
	if len(c.radix) == 1 {
		distinct := make(map[int]bool)
		for _, reqs := range c.reqs {
			distinct[reqs[0][1]] = true
		}
		return new(big.Rat).SetFrac64(int64(c.radix[0]-len(distinct)), int64(c.radix[0])), true
	}
	if c.outcomes > deltaExactOutcomes {
		return nil, false
	}
	outcome := make([]int, len(c.radix))
	hits := int64(0)
	for {
		if c.holdsAt(outcome) {
			hits++
		}
		k := 0
		for k < len(outcome) {
			outcome[k]++
			if outcome[k] < c.radix[k] {
				break
			}
			outcome[k] = 0
			k++
		}
		if k == len(outcome) {
			break
		}
	}
	return new(big.Rat).SetFrac64(c.outcomes-hits, c.outcomes), true
}

// newDraw builds the cluster's Bernoulli sampler factory: one draw
// picks an outcome per block (uniform over its radix) and tests the
// cluster-local witnesses.
func (c *deltaCluster) newDraw() func() engine.Sampler {
	return func() engine.Sampler {
		outcome := make([]int, len(c.radix))
		return func(rng *rand.Rand) bool {
			for b, r := range c.radix {
				outcome[b] = rng.Intn(r)
			}
			return c.holdsAt(outcome)
		}
	}
}

// --- exact delta path ------------------------------------------------------

// deltaFactors decomposes the target and serves every enumerable
// cluster's complement 1 − p_c — from the cache when its content is
// unchanged, else by enumeration, then cached — alongside the clusters
// too large to enumerate. certain reports a witness of fixed facts alone
// (P = 1). Caller holds dq.mu.
func (in *Instance) deltaFactors(dq *deltaQuery, wits []core.Witness, singleton bool) (certain bool, factors []*big.Rat, sampled []*deltaCluster) {
	dec := in.decompose(wits, singleton)
	for i := range dec.clusters {
		c := &dec.clusters[i]
		f, ok := dq.factors[c.sig]
		if ok {
			deltaFactorHits.Add(1)
		} else if f, ok = c.exactFactor(); ok {
			deltaFactorMisses.Add(1)
			dq.factors[c.sig] = f
		}
		if ok {
			factors = append(factors, f)
		} else {
			sampled = append(sampled, c)
		}
	}
	return dec.certain, factors, sampled
}

// deltaExactTarget computes the target's exact probability from the
// factors. ok=false when some cluster exceeds the enumeration cap (the
// caller falls back to the classic engines). Caller holds dq.mu.
func (in *Instance) deltaExactTarget(dq *deltaQuery, wits []core.Witness, singleton bool) (*big.Rat, bool) {
	certain, factors, sampled := in.deltaFactors(dq, wits, singleton)
	if len(sampled) > 0 {
		return nil, false
	}
	in.deltaBumpRefresh()
	if certain {
		return big.NewRat(1, 1), true
	}
	comp := big.NewRat(1, 1)
	for _, f := range factors {
		comp.Mul(comp, f)
	}
	return comp.Sub(big.NewRat(1, 1), comp), true
}

// deltaExactProbability is the factorized route of ExactProbability:
// ok=false when the fingerprint overflowed or some cluster of the
// target exceeds the enumeration cap.
func (in *Instance) deltaExactProbability(q *Query, c Tuple, singleton bool) (*big.Rat, bool) {
	dq := in.deltaQueryFor(q)
	if dq.overflow {
		return nil, false
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	return in.deltaExactTarget(dq, dq.witsOf(c.Key()), singleton)
}

// deltaConsistentAnswers computes the exact operational consistent
// answers on the delta engine: the candidate tuple set is itself
// maintained incrementally with the witness images (a tuple is a
// candidate iff it has at least one image, zero-probability candidates
// included), each tuple evaluated by the factor decomposition. ok=false
// when any tuple's structure defeats the factorization — all-or-
// nothing, so the result always matches the shared exact pass tuple for
// tuple.
func (in *Instance) deltaConsistentAnswers(mode Mode, q *Query) ([]ConsistentAnswer, bool) {
	dq := in.deltaQueryFor(q)
	if dq.overflow {
		return nil, false
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	keys, tuples, byKey := dq.liveTuples()
	out := make([]ConsistentAnswer, 0, len(keys))
	for i, k := range keys {
		r, ok := in.deltaExactTarget(dq, byKey[k], mode.Singleton)
		if !ok {
			return nil, false
		}
		out = append(out, ConsistentAnswer{Tuple: tuples[i], Prob: r})
	}
	return out, true
}

// witsOf returns the live witness images of one tuple. Caller holds
// dq.mu.
func (dq *deltaQuery) witsOf(tupleKey string) []core.Witness {
	var out []core.Witness
	for _, w := range dq.wits {
		if w.Tuple.Key() == tupleKey {
			out = append(out, w)
		}
	}
	return out
}

// liveTuples groups the current generation's witness images by answer
// tuple and returns the candidate tuples sorted by key — the order
// every exact consumer uses. Caller holds dq.mu.
func (dq *deltaQuery) liveTuples() ([]string, []Tuple, map[string][]core.Witness) {
	byKey := make(map[string][]core.Witness)
	tupOf := make(map[string]Tuple)
	for _, w := range dq.wits {
		k := w.Tuple.Key()
		byKey[k] = append(byKey[k], w)
		tupOf[k] = w.Tuple
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tuples := make([]Tuple, len(keys))
	for i, k := range keys {
		tuples[i] = tupOf[k]
	}
	return keys, tuples, byKey
}

// --- stratified delta path -------------------------------------------------

// deltaApproxTarget estimates one target from the decomposition:
// enumerable clusters contribute their exact factors (zero draws),
// sampled clusters run a per-stratum stopping rule at (ε/S, δ/S) whose
// statistics persist in dq.strata — a warm generation redraws only the
// strata whose content signature changed and reuses the rest, reporting
// the split as Acct.Draws (fresh) vs Acct.ReusedDraws. opts must be
// filled; opts.MaxSamples caps the fresh draws exactly. ok=false routes
// the caller to the classic estimator. Caller holds dq.mu.
func (in *Instance) deltaApproxTarget(ctx context.Context, dq *deltaQuery, wits []core.Witness, mode Mode, opts ApproxOptions) (Estimate, bool, error) {
	end := engine.TraceFrom(ctx).StartSpan("delta-refresh")
	defer end()
	certain, factors, sampled := in.deltaFactors(dq, wits, mode.Singleton)
	if len(sampled) > deltaMaxSampledStrata {
		return Estimate{}, false, nil
	}
	est := Estimate{Epsilon: opts.Epsilon, Delta: opts.Delta, Converged: true}
	comp := 1.0
	if certain {
		comp = 0
	}
	for _, f := range factors {
		v, _ := f.Float64()
		comp *= v
	}
	epsC := opts.Epsilon / float64(len(sampled))
	deltaC := opts.Delta / float64(len(sampled))
	var fresh, reused int64
	var redraw []*deltaCluster
	for _, c := range sampled {
		if st, ok := dq.strata[c.sig]; ok && st.converged && st.eps <= epsC*(1+1e-12) && st.delta <= deltaC*(1+1e-12) {
			comp *= 1 - st.est
			reused += st.draws
			continue
		}
		redraw = append(redraw, c)
	}
	for i, c := range redraw {
		// MaxSamples caps the fresh draws of the whole target: each
		// stratum gets an even share of what the earlier ones left, and a
		// stratum whose share is empty stays undrawn and unconverged.
		budget := (int64(opts.MaxSamples) - fresh) / int64(len(redraw)-i)
		if budget < 1 {
			est.Converged = false
			continue
		}
		e, err := engine.EstimateStoppingRule(ctx, c.newDraw(), epsC, deltaC, deltaSeed(opts.Seed, c.sig), 1, int(budget))
		fresh += e.Acct.Draws
		if err != nil {
			est.Acct.Draws = fresh
			est.Acct.ReusedDraws = reused
			est.Acct.Workers = 1
			est.Acct.Cancelled = e.Acct.Cancelled
			deltaReusedTotal.Add(reused)
			return est, true, fmt.Errorf("ocqa: estimation stopped: %w", err)
		}
		dq.strata[c.sig] = deltaStratum{est: e.Value, draws: e.Acct.Draws, eps: epsC, delta: deltaC, converged: e.Converged}
		comp *= 1 - e.Value
		est.Converged = est.Converged && e.Converged
	}
	est.Value = 1 - comp
	est.Samples = int(fresh)
	est.Acct.Draws = fresh
	est.Acct.ReusedDraws = reused
	if fresh > 0 {
		est.Acct.Workers = 1
	}
	deltaReusedTotal.Add(reused)
	in.deltaBumpRefresh()
	return est, true, nil
}

// deltaBumpRefresh counts one warm delta evaluation; cold (first-
// generation) evaluations build state but are not refreshes.
func (in *Instance) deltaBumpRefresh() {
	if in.warm {
		deltaRefreshCount.Add(1)
	}
}

// deltaSeed derives a deterministic per-stratum seed from the run seed
// and the cluster signature, so stratified estimates are reproducible
// given the same seed and mutation history.
func deltaSeed(seed int64, sig string) int64 {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return int64((uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()) &^ (1 << 63))
}

// deltaRoute is the one routing predicate of the approximate paths —
// the planner and both execution entries call it. It returns the
// fingerprint's maintained state when the factorized estimator answers:
// an eligible pair under the default stopping rule, with the witness
// images within the cap. nil leaves the query to the classic estimators
// (the Chernoff and 𝒜𝒜 constructions keep their own semantics). The
// fingerprint compile is the run's "compile" span.
func (in *Instance) deltaRoute(ctx context.Context, mode Mode, q *Query, opts ApproxOptions) *deltaQuery {
	if !in.deltaEligible(mode) || opts.UseAA || opts.UseChernoff {
		return nil
	}
	endCompile := engine.TraceFrom(ctx).StartSpan("compile")
	dq := in.deltaQueryFor(q)
	endCompile()
	if dq.overflow {
		return nil
	}
	return dq
}

// deltaPlanRoute reports, for the planner, whether the delta engine
// would answer the query under these options and with how many sampled
// strata (the max over targets; 0 means every cluster is exactly
// enumerable — the zero-draw delta-exact route). Like the rest of the
// planner it warms the compile the run then reuses; it never mutates the
// factor or stratum caches.
func (in *Instance) deltaPlanRoute(mode Mode, q *Query, opts ApproxOptions) (int, bool) {
	dq := in.deltaRoute(context.Background(), mode, q, opts)
	if dq == nil {
		return 0, false
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	_, _, byKey := dq.liveTuples()
	maxStrata := 0
	for _, wits := range byKey {
		dec := in.decompose(wits, mode.Singleton)
		if dec.certain {
			continue
		}
		sampled := 0
		for i := range dec.clusters {
			c := &dec.clusters[i]
			if _, ok := dq.factors[c.sig]; ok {
				continue
			}
			// Mirrors exactFactor: single-block clusters are closed-form
			// at any radix; only multi-block clusters past the
			// enumeration cap become strata.
			if len(c.radix) > 1 && c.outcomes > deltaExactOutcomes {
				sampled++
			}
		}
		if sampled > deltaMaxSampledStrata {
			return 0, false
		}
		if sampled > maxStrata {
			maxStrata = sampled
		}
	}
	return maxStrata, true
}

// deltaApproximate is the factorized routing of Approximate:
// ok=false leaves the query to the classic estimators.
func (in *Instance) deltaApproximate(ctx context.Context, mode Mode, q *Query, c Tuple, opts ApproxOptions) (Estimate, bool, error) {
	dq := in.deltaRoute(ctx, mode, q, opts)
	if dq == nil {
		return Estimate{}, false, nil
	}
	opts.fill()
	if len(c) != len(q.AnswerVars) {
		// Arity mismatch: no witness can exist; the classic path's
		// constant-false predicate estimates exactly 0.
		return Estimate{Epsilon: opts.Epsilon, Delta: opts.Delta, Converged: true}, true, nil
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	return in.deltaApproxTarget(ctx, dq, dq.witsOf(c.Key()), mode, opts)
}

// deltaApproximateAnswers is the factorized routing of the answers
// pass: per-tuple estimates over the maintained candidate set.
func (in *Instance) deltaApproximateAnswers(ctx context.Context, mode Mode, q *Query, opts ApproxOptions) ([]ApproxAnswer, Accounting, bool, error) {
	dq := in.deltaRoute(ctx, mode, q, opts)
	if dq == nil {
		return nil, Accounting{}, false, nil
	}
	opts.fill()
	dq.mu.Lock()
	defer dq.mu.Unlock()
	keys, tuples, byKey := dq.liveTuples()
	out := make([]ApproxAnswer, 0, len(keys))
	var total Accounting
	for i, k := range keys {
		// MaxSamples caps the pass as a whole, as it does the shared pass.
		o := opts
		o.MaxSamples -= int(total.Draws)
		e, ok, err := in.deltaApproxTarget(ctx, dq, byKey[k], mode, o)
		if !ok {
			return nil, Accounting{}, false, nil
		}
		total.Draws += e.Acct.Draws
		total.ReusedDraws += e.Acct.ReusedDraws
		total.Workers = max(total.Workers, e.Acct.Workers)
		total.Cancelled = total.Cancelled || e.Acct.Cancelled
		if err != nil {
			return out, total, true, err
		}
		out = append(out, ApproxAnswer{Tuple: tuples[i], Estimate: e})
	}
	return out, total, true, nil
}
