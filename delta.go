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
// single-fact mutation changes one block, hence only the clusters whose
// witnesses read that block. Each target's decomposition — its clusters
// in ascending order of their smallest member index, each with a
// content signature — is built once per generation, shared by the run,
// the planner and the server's refresh, and carried whole across a
// mutation that leaves the target's images and blocks alone (see
// touchedBy); a touched target is re-decomposed on first use. Either
// way the clusters the write left alone keep their signatures, so their
// factors are served from a per-query factor cache keyed by the
// signature and re-multiplied in O(#clusters), in the same order, so
// estimates stay bit-identical. The same decomposition drives the delta-stratified
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
// The state is a fingerprint's deltaQuery in the instance's query cache:
// its witness images grouped by answer tuple and, per tuple and
// operation variant, the decomposition. ApplyInsert/ApplyDelete carry it
// into the derived instance in one flat pass over the images: deleted
// images are dropped, inserted facts discover their new images by the
// anchored homomorphism search (core.AnchoredWitnesses) instead of a
// full re-enumeration, fact indices are shifted, and every decomposition
// the write left alone is carried. The exact results are big.Rat-identical
// to the core enumeration engines (the oracle harness audits this); the
// stratified estimates keep the requested (ε, δ) by a union bound over
// strata, since the exact strata contribute no error and
// |P̂ − P| ≤ Σ_sampled |p̂_c − p_c| ≤ (ε/S)·Σ_c p_c ≤ ε·P.

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"
	"slices"
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
	// facts and offs hold the live witness images of the current
	// generation: image w is the sorted fact indices
	// facts[offs[w]:offs[w+1]]. They are maintained incrementally, in
	// one flat pass per mutation: shifted across the index shift, pruned
	// on delete, extended by the anchored search on insert.
	facts []int32
	offs  []int32
	// targets groups the images by answer tuple, sorted by tuple key;
	// each target's images are contiguous.
	targets []deltaTarget
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

// deltaTarget is one candidate answer tuple: its images, [lo, hi) in
// the fingerprint's image list, and its decomposition under each
// operation variant (dec[1] singleton), built on first use in a
// generation or carried across the mutation that made it. Guarded by
// the fingerprint's mu.
type deltaTarget struct {
	key    string
	tuple  Tuple
	lo, hi int32
	dec    [2]*deltaDecomp
}

// image returns the fact indices of image w.
func (dq *deltaQuery) image(w int32) []int32 { return dq.facts[dq.offs[w]:dq.offs[w+1]] }

// target returns the tuple's target, nil when it has no image.
func (dq *deltaQuery) target(key string) *deltaTarget {
	i := sort.Search(len(dq.targets), func(i int) bool { return dq.targets[i].key >= key })
	if i < len(dq.targets) && dq.targets[i].key == key {
		return &dq.targets[i]
	}
	return nil
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
	tuples := mp.Tuples() // sorted by tuple key
	images, facts := 0, 0
	for t := range tuples {
		ws, ok := mp.TupleWitnesses(t)
		if images += len(ws); !ok || images > deltaMaxWitnesses {
			dq.overflow = true
			return dq
		}
		for _, w := range ws {
			facts += len(w)
		}
	}
	dq.facts = make([]int32, 0, facts)
	dq.offs = make([]int32, 1, images+1)
	dq.targets = make([]deltaTarget, 0, len(tuples))
	for t := range tuples {
		ws, _ := mp.TupleWitnesses(t)
		if len(ws) == 0 {
			continue
		}
		lo := int32(len(dq.offs) - 1)
		for _, w := range ws {
			for _, f := range w {
				dq.facts = append(dq.facts, int32(f))
			}
			dq.offs = append(dq.offs, int32(len(dq.facts)))
		}
		dq.targets = append(dq.targets, deltaTarget{key: tuples[t].Key(), tuple: tuples[t], lo: lo, hi: int32(len(dq.offs) - 1)})
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
// images are remapped, the inserted fact's new images are discovered by
// the anchored homomorphism search, and every target decomposition the
// insert leaves alone is kept, so the next query re-decomposes only the
// targets whose images or blocks it touched. Samplers and witness-set
// compiles rebuild lazily. Fails with ErrDuplicateFact,
// ErrUnknownRelation or ErrArityMismatch.
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
	var dc *decomposer
	var written uint64
	for i, e := range entries {
		dq := e.delta.Load()
		if dq == nil {
			continue
		}
		if dc == nil {
			// The written block, named off the database that holds its fact.
			dc = ni.newDecomposer()
			if insertPos >= 0 {
				written = dc.blockHash(ni.db, insertPos)
			} else {
				written = dc.blockHash(in.db, deletePos)
			}
		}
		ne := &queryEntry{q: dq.q}
		ne.delta.Store(dq.deriveAcross(dc, insertPos, deletePos, written))
		ni.cache(keys[i], ne)
	}
	return ni
}

// deriveAcross produces the next generation of one fingerprint's state
// in one flat pass over its images: indices shifted, dead images
// dropped, anchored images appended to their tuples' targets, and the
// decompositions built in this generation carried where the write left
// them alone. dc reads the successor's blocks; written names the
// written block.
func (dq *deltaQuery) deriveAcross(dc *decomposer, insertPos, deletePos int, written uint64) *deltaQuery {
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
	var fresh []core.Witness
	var freshKeys []string
	if insertPos >= 0 {
		var ok bool
		if fresh, ok = dc.in.inner.AnchoredWitnesses(dq.q, insertPos, deltaMaxWitnesses); !ok {
			ndq.overflow = true
			return ndq
		}
		freshKeys = make([]string, len(fresh))
		for i := range fresh {
			freshKeys[i] = fresh[i].Tuple.Key()
		}
		sort.Stable(byTupleKey{fresh, freshKeys})
	}
	shift := func(f int32) int32 {
		if deletePos >= 0 && int(f) > deletePos {
			return f - 1
		}
		if insertPos >= 0 && int(f) >= insertPos {
			return f + 1
		}
		return f
	}
	ndq.facts = make([]int32, 0, len(dq.facts)+2*len(fresh))
	ndq.offs = make([]int32, 1, len(dq.offs)+len(fresh))
	ndq.targets = make([]deltaTarget, 0, len(dq.targets)+len(fresh))
	for i, j := 0, 0; i < len(dq.targets) || j < len(fresh); {
		var old *deltaTarget
		nt := deltaTarget{lo: int32(len(ndq.offs) - 1)}
		if i < len(dq.targets) && (j == len(fresh) || dq.targets[i].key <= freshKeys[j]) {
			old = &dq.targets[i]
			nt.key, nt.tuple = old.key, old.tuple
			i++
		} else {
			nt.key, nt.tuple = freshKeys[j], fresh[j].Tuple
		}
		if old != nil {
		images:
			for w := old.lo; w < old.hi; w++ {
				start := len(ndq.facts)
				for _, f := range dq.image(w) {
					if int(f) == deletePos {
						ndq.facts = ndq.facts[:start]
						continue images
					}
					ndq.facts = append(ndq.facts, shift(f))
				}
				ndq.offs = append(ndq.offs, int32(len(ndq.facts)))
			}
		}
		kept := int32(len(ndq.offs)-1) - nt.lo
		for ; j < len(fresh) && freshKeys[j] == nt.key; j++ {
			for _, f := range fresh[j].Facts {
				ndq.facts = append(ndq.facts, int32(f))
			}
			ndq.offs = append(ndq.offs, int32(len(ndq.facts)))
		}
		if nt.hi = int32(len(ndq.offs) - 1); nt.hi == nt.lo {
			continue
		}
		// Only a target whose images all survived and none arrived keeps
		// its decompositions: its image numbering is unchanged, and its
		// clusters hold no fact index.
		if old != nil && kept == old.hi-old.lo && nt.hi == nt.lo+kept {
			for v, dec := range old.dec {
				if dec != nil && !dc.touchedBy(ndq, &nt, dec, written) {
					nt.dec[v] = dec
				}
			}
		}
		ndq.targets = append(ndq.targets, nt)
	}
	if len(ndq.offs)-1 > deltaMaxWitnesses {
		ndq.overflow = true
		ndq.facts, ndq.offs, ndq.targets = nil, nil, nil
	}
	return ndq
}

// byTupleKey orders anchored images by tuple key; sorted stably it
// keeps each tuple's images in the anchored search's order.
type byTupleKey struct {
	ws   []core.Witness
	keys []string
}

func (b byTupleKey) Len() int           { return len(b.ws) }
func (b byTupleKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byTupleKey) Swap(i, j int) {
	b.ws[i], b.ws[j] = b.ws[j], b.ws[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// --- decomposition ---------------------------------------------------------

// deltaBlock is one conflict block as a decomposition reads it.
type deltaBlock struct {
	members []int // sorted fact indices; members[0] is the block's root
	hash    uint64
	// Decomposition scratch: the union-find parent (nil at a root), a
	// root's group and the block's position in its cluster (-1 until
	// assigned).
	up         *deltaBlock
	group, pos int
}

// deltaCluster is one independent group of conflict blocks coupled by
// witness images, with the images' requirements rewritten to (block
// position, member position) pairs. Its content depends on the blocks'
// facts only, never on indices. Immutable once built.
type deltaCluster struct {
	sig string
	// radix[b] is block b's outcome count: m+1 pairwise (one survivor
	// or none), m singleton (exactly one survivor).
	radix []int
	// reqs[w] lists image w's requirements as {block, member} pairs;
	// the image holds iff every listed block's outcome keeps exactly the
	// listed member.
	reqs [][][2]int
	// outcomes is Π radix, saturated just past deltaExactOutcomes.
	outcomes int64
	// blocks are the sorted hashes of every block the cluster's images
	// read: its coupled blocks and the singleton blocks of their fixed
	// facts, which an insert can grow. A write into any of them changes
	// the cluster.
	blocks []uint64
}

// reads reports whether a write into the block hashing to h can change
// the cluster.
func (c *deltaCluster) reads(h uint64) bool {
	_, found := slices.BinarySearch(c.blocks, h)
	return found
}

// deltaDecomp is the decomposition of one target under one operation
// variant. It holds no fact index, so it stays valid across a write
// that leaves the target's images and blocks alone (see touchedBy).
type deltaDecomp struct {
	// certain: image cert uses only fixed facts, so P = 1 and no cluster
	// is built.
	certain bool
	cert    int32
	// clusters in ascending order of their smallest member index.
	clusters []deltaCluster
}

// decomposer reads one generation's block structure: it names blocks
// (blockHash) and serves one decompose call, scanning each block at
// most once.
type decomposer struct {
	in     *Instance
	blocks map[int]*deltaBlock // fact → its block
	keys   []relKey
}

// relKey is a keyed relation's primary key in Σ: the positions its
// blocks agree on.
type relKey struct {
	rid int32
	lhs []int
}

// newDecomposer resolves the keys of Σ's relations once, by id.
func (in *Instance) newDecomposer() *decomposer {
	dc := &decomposer{in: in, blocks: make(map[int]*deltaBlock)}
	for _, phi := range in.sigma.FDs() {
		if rid, ok := in.db.Symbols().Lookup(phi.Rel); ok {
			dc.keys = append(dc.keys, relKey{rid, phi.LHS})
		}
	}
	return dc
}

// blockHash names fact fi's conflict block by content: the row hash of
// its relation and its values on the relation's primary key — every
// attribute for a keyless relation, whose facts are singleton blocks.
// db is the decomposer's database or its parent, which share a symbol
// table. The name survives index shifts and needs no block scan. Equal
// blocks hash equal; a collision can only make two blocks look alike,
// and every use answers "alike" by rebuilding, never by reusing.
func (dc *decomposer) blockHash(db *rel.Database, fi int) uint64 {
	rid, row := db.RelID(fi), db.ArgIDs(fi)
	for _, k := range dc.keys {
		if k.rid == rid {
			var buf [8]int32
			key := buf[:0]
			for _, a := range k.lhs {
				key = append(key, row[a])
			}
			return rel.HashRow(rid, key)
		}
	}
	return rel.HashRow(rid, row)
}

// block returns fact fi's block, read live off the current database by
// BlockOf.
func (dc *decomposer) block(fi int) *deltaBlock {
	b := dc.blocks[fi]
	if b == nil {
		b = &deltaBlock{members: dc.in.inner.BlockOf(fi), hash: dc.blockHash(dc.in.db, fi), group: -1, pos: -1}
		for _, m := range b.members {
			dc.blocks[m] = b
		}
	}
	return b
}

// find returns the union-find root of b, halving the path.
func find(b *deltaBlock) *deltaBlock {
	for b.up != nil {
		if b.up.up != nil {
			b.up = b.up.up
		}
		b = b.up
	}
	return b
}

// decomposition returns the target's decomposition for this generation,
// building it on first use. A nil target (a tuple without images) has
// the empty one. Caller holds dq.mu.
func (in *Instance) decomposition(dq *deltaQuery, t *deltaTarget, singleton bool) *deltaDecomp {
	if t == nil {
		return &deltaDecomp{}
	}
	v := 0
	if singleton {
		v = 1
	}
	if t.dec[v] == nil {
		t.dec[v] = in.newDecomposer().decompose(dq, t, singleton)
	}
	return t.dec[v]
}

// touchedBy reports whether a write into the block hashing to written
// can change dec, the decomposition of target t, whose images the write
// left as they were: some cluster reads the block or, for a certain
// target, a fact of the certain image lies in it — an insert there
// leaves the fact unfixed.
func (dc *decomposer) touchedBy(dq *deltaQuery, t *deltaTarget, dec *deltaDecomp, written uint64) bool {
	if dec.certain {
		for _, f := range dq.image(t.lo + dec.cert) {
			if dc.blockHash(dc.in.db, int(f)) == written {
				return true
			}
		}
		return false
	}
	for i := range dec.clusters {
		if dec.clusters[i].reads(written) {
			return true
		}
	}
	return false
}

// blockReq is one requirement of an image: keep fact f of block b.
type blockReq struct {
	b *deltaBlock
	f int
}

// heldImage is an image that can hold, as decompose classified it: its
// requirements reqs[req[0]:req[1]], the singleton blocks
// fixed[fix[0]:fix[1]] it reads, and its group.
type heldImage struct {
	group    int
	req, fix [2]int
}

// decompose classifies the target's images against the current block
// structure and groups the blocks they couple into clusters, ascending
// by root. Facts in singleton blocks survive every repair ("fixed"); an
// image needing two facts of one block can never hold; an image of
// fixed facts alone makes the target certain.
func (dc *decomposer) decompose(dq *deltaQuery, t *deltaTarget, singleton bool) *deltaDecomp {
	// Most decompositions are of a handful of images; these start on the
	// stack.
	var heldBuf [4]heldImage
	var reqBuf [8]blockReq
	var fixedBuf [8]*deltaBlock
	var rootBuf [4]int
	held, reqs, fixed, roots := heldBuf[:0], reqBuf[:0], fixedBuf[:0], rootBuf[:0]
	for w := int32(0); w < t.hi-t.lo; w++ {
		start, fixStart := len(reqs), len(fixed)
		impossible := false
		for _, f := range dq.image(t.lo + w) {
			b := dc.block(int(f))
			if len(b.members) == 1 {
				fixed = append(fixed, b)
				continue
			}
			found := false
			for _, r := range reqs[start:] {
				if r.b == b {
					impossible = r.f != int(f)
					found = true
					break
				}
			}
			if impossible {
				break
			}
			if !found {
				reqs = append(reqs, blockReq{b, int(f)})
			}
		}
		switch {
		case impossible:
			reqs, fixed = reqs[:start], fixed[:fixStart]
		case len(reqs) == start:
			return &deltaDecomp{certain: true, cert: w}
		default:
			held = append(held, heldImage{req: [2]int{start, len(reqs)}, fix: [2]int{fixStart, len(fixed)}})
		}
	}
	// Union-find over the coupled blocks: images couple the blocks they
	// require. Then group the images by their blocks' root, each group
	// rooted at the smallest member index of its blocks.
	for _, h := range held {
		rs := reqs[h.req[0]:h.req[1]]
		first := find(rs[0].b)
		for _, r := range rs[1:] {
			if x := find(r.b); x != first {
				x.up = first
			}
		}
	}
	for k := range held {
		h := &held[k]
		rs := reqs[h.req[0]:h.req[1]]
		r := find(rs[0].b)
		if r.group < 0 {
			r.group = len(roots)
			roots = append(roots, rs[0].b.members[0])
		}
		for _, q := range rs {
			roots[r.group] = min(roots[r.group], q.b.members[0])
		}
		h.group = r.group
	}
	// Distinct groups have distinct roots, so ordering the images by
	// their group's root lays the groups out in cluster order.
	slices.SortStableFunc(held, func(a, b heldImage) int { return cmp.Compare(roots[a.group], roots[b.group]) })
	dec := &deltaDecomp{clusters: make([]deltaCluster, 0, len(roots))}
	for lo := 0; lo < len(held); {
		hi := lo + 1
		for hi < len(held) && held[hi].group == held[lo].group {
			hi++
		}
		dec.clusters = append(dec.clusters, dc.buildCluster(held[lo:hi], reqs, fixed, singleton))
		lo = hi
	}
	return dec
}

// buildCluster canonicalises the cluster of the given images: blocks
// sorted by root, requirements rewritten to (block, member) positions,
// and the content signature composed from the block identities — each
// member's interned relation and argument ids, stable across a
// lineage's shared symbol table — plus the requirement structure and
// the operation variant. The signature is the "(block id, block
// content)" key of the factor cache; it is an exact rendering rather
// than a hash, so a collision can never serve a stale factor.
func (dc *decomposer) buildCluster(imgs []heldImage, reqs []blockReq, fixed []*deltaBlock, singleton bool) deltaCluster {
	db := dc.in.db
	var blocks []*deltaBlock
	nfixed := 0
	for _, h := range imgs {
		for _, r := range reqs[h.req[0]:h.req[1]] {
			if r.b.pos < 0 {
				r.b.pos = 0
				blocks = append(blocks, r.b)
			}
		}
		nfixed += h.fix[1] - h.fix[0]
	}
	slices.SortFunc(blocks, func(a, b *deltaBlock) int { return cmp.Compare(a.members[0], b.members[0]) })
	c := deltaCluster{radix: make([]int, len(blocks)), blocks: make([]uint64, 0, len(blocks)+nfixed)}
	var sig strings.Builder
	if singleton {
		sig.WriteString("s|")
	}
	outcomes := int64(1)
	for bp, b := range blocks {
		b.pos = bp
		c.blocks = append(c.blocks, b.hash)
		radix := len(b.members) + 1
		if singleton {
			radix = len(b.members)
		}
		c.radix[bp] = radix
		if outcomes <= deltaExactOutcomes {
			outcomes *= int64(radix)
		}
		sig.WriteString("b")
		for _, fi := range b.members {
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
	// The singleton blocks the images read besides the coupled ones.
	for _, h := range imgs {
		for _, b := range fixed[h.fix[0]:h.fix[1]] {
			c.blocks = append(c.blocks, b.hash)
		}
	}
	slices.Sort(c.blocks)
	c.blocks = slices.Compact(c.blocks)
	c.reqs = make([][][2]int, len(imgs))
	reqStrs := make([]string, len(imgs))
	for w, h := range imgs {
		rs := reqs[h.req[0]:h.req[1]]
		pairs := make([][2]int, len(rs))
		for k, r := range rs {
			pairs[k] = [2]int{r.b.pos, sort.SearchInts(r.b.members, r.f)}
		}
		slices.SortFunc(pairs, func(p, q [2]int) int {
			if p[0] != q[0] {
				return cmp.Compare(p[0], q[0])
			}
			return cmp.Compare(p[1], q[1])
		})
		var rstr strings.Builder
		for _, pr := range pairs {
			rstr.WriteString(strconv.Itoa(pr[0]))
			rstr.WriteString(":")
			rstr.WriteString(strconv.Itoa(pr[1]))
			rstr.WriteString(" ")
		}
		c.reqs[w] = pairs
		reqStrs[w] = rstr.String()
	}
	slices.Sort(reqStrs)
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

// deltaFactors serves every enumerable cluster of the target's
// decomposition its complement 1 − p_c — from the cache when its
// content is unchanged, else by enumeration, then cached — alongside the
// clusters too large to enumerate. certain reports an image of fixed
// facts alone (P = 1). Caller holds dq.mu.
func (in *Instance) deltaFactors(dq *deltaQuery, t *deltaTarget, singleton bool) (certain bool, factors []*big.Rat, sampled []*deltaCluster) {
	dec := in.decomposition(dq, t, singleton)
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
func (in *Instance) deltaExactTarget(dq *deltaQuery, t *deltaTarget, singleton bool) (*big.Rat, bool) {
	certain, factors, sampled := in.deltaFactors(dq, t, singleton)
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
	return in.deltaExactTarget(dq, dq.target(c.Key()), singleton)
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
	out := make([]ConsistentAnswer, 0, len(dq.targets))
	for i := range dq.targets {
		t := &dq.targets[i]
		r, ok := in.deltaExactTarget(dq, t, mode.Singleton)
		if !ok {
			return nil, false
		}
		out = append(out, ConsistentAnswer{Tuple: t.tuple, Prob: r})
	}
	return out, true
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
func (in *Instance) deltaApproxTarget(ctx context.Context, dq *deltaQuery, t *deltaTarget, mode Mode, opts ApproxOptions) (Estimate, bool, error) {
	end := engine.TraceFrom(ctx).StartSpan("delta-refresh")
	defer end()
	certain, factors, sampled := in.deltaFactors(dq, t, mode.Singleton)
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
// planner it warms the compile and the decompositions the run then
// reuses; it never mutates the factor or stratum caches.
func (in *Instance) deltaPlanRoute(mode Mode, q *Query, opts ApproxOptions) (int, bool) {
	dq := in.deltaRoute(context.Background(), mode, q, opts)
	if dq == nil {
		return 0, false
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	maxStrata := 0
	for i := range dq.targets {
		dec := in.decomposition(dq, &dq.targets[i], mode.Singleton)
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
	return in.deltaApproxTarget(ctx, dq, dq.target(c.Key()), mode, opts)
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
	out := make([]ApproxAnswer, 0, len(dq.targets))
	var total Accounting
	for i := range dq.targets {
		t := &dq.targets[i]
		// MaxSamples caps the pass as a whole, as it does the shared pass.
		o := opts
		o.MaxSamples -= int(total.Draws)
		e, ok, err := in.deltaApproxTarget(ctx, dq, t, mode, o)
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
		out = append(out, ApproxAnswer{Tuple: t.tuple, Estimate: e})
	}
	return out, total, true, nil
}
