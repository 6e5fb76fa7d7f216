// Package ocqa is the public API of this reproduction of "Uniform
// Operational Consistent Query Answering" (Calautti, Livshits, Pieris,
// Schleich; PODS 2022). It answers conjunctive queries over databases
// that are inconsistent with respect to a set of functional
// dependencies, under the operational semantics of the paper: a repair
// is the endpoint of a random walk that keeps applying justified fact
// deletions until the database is consistent, and an answer's
// probability is the chance the walk ends in a database entailing it.
//
// Three uniform repairing Markov chain generators are supported —
// uniform repairs (M^ur), uniform sequences (M^us) and uniform
// operations (M^uo) — each optionally restricted to single-fact
// deletions (M^{·,1}). Exact probabilities (♯P-hard; rationals) are
// available at small scale, and polynomial-time randomized
// approximation is available exactly where the paper proves an FPRAS
// exists; the approximability matrix is enforced at this API and the
// returned errors cite the corresponding theorem.
//
// One type, Instance, carries every route. It builds its samplers on
// first use and shares them across goroutines, caches each query's
// compiled witness sets, and derives successor instances with
// ApplyInsert and ApplyDelete. Under primary keys it answers M^ur and
// M^{ur,1} by block factorization (delta.go), exactly where the witness
// structure allows, and incrementally across mutations.
//
//	inst, _ := ocqa.NewInstanceFromText("Emp(1,Alice)\nEmp(1,Tom)", "Emp: A1 -> A2")
//	q, _ := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
//	answers, _ := inst.ConsistentAnswers(ocqa.Mode{Gen: ocqa.UniformRepairs}, q, 0)
package ocqa

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/fpras"
	"repro/internal/parse"
	"repro/internal/rel"
	"repro/internal/sampler"
	"repro/internal/store"
)

// Re-exported substrate types. The facade owns the public surface; the
// internal packages own the algorithms.
type (
	// Database is a finite set of facts.
	Database = rel.Database
	// Fact is an expression R(c1,...,cn).
	Fact = rel.Fact
	// Schema is a finite set of relation names with arities.
	Schema = rel.Schema
	// Relation is a relation name with attribute names.
	Relation = rel.Relation
	// FD is a functional dependency R: X → Y.
	FD = fd.FD
	// FDSet is a finite set Σ of FDs over a schema.
	FDSet = fd.Set
	// Query is a conjunctive query.
	Query = cq.Query
	// Tuple is a candidate answer tuple.
	Tuple = cq.Tuple
	// Generator selects a uniform Markov chain generator.
	Generator = core.Generator
	// Mode is a generator plus the singleton-operation restriction.
	Mode = core.Mode
	// RepairProb pairs an operational repair with its probability.
	RepairProb = core.RepairProb
	// ConsistentAnswer pairs an answer tuple with its probability.
	ConsistentAnswer = core.ConsistentAnswer
	// Chain is a fully materialised repairing Markov chain
	// (Definition 3.5) — exponential; for inspection at small scale.
	Chain = core.Tree
	// Subset identifies a sub-database D' ⊆ D by fact indices.
	Subset = rel.Subset
	// Op is a D-operation −F (a single- or pair-fact deletion).
	Op = core.Op
	// Estimate is a randomized estimate with its (ε,δ) metadata.
	Estimate = engine.Estimate
	// Accounting is the structured cost record of one estimation run:
	// draws performed, cancellation chunks crossed, effective workers,
	// per-worker draw split, wall time, cancelled flag.
	Accounting = engine.Accounting
	// ConstraintClass is the paper's constraint taxonomy: primary keys
	// ⊂ keys ⊂ FDs.
	ConstraintClass = fd.Class
)

// Generator values.
const (
	// UniformRepairs is M^ur: uniform over candidate repairs.
	UniformRepairs = core.UniformRepairs
	// UniformSequences is M^us: uniform over complete repairing
	// sequences.
	UniformSequences = core.UniformSequences
	// UniformOperations is M^uo: uniform over the operations available
	// at each step.
	UniformOperations = core.UniformOperations
)

// Constraint classes.
const (
	// PrimaryKeys: at most one key per relation.
	PrimaryKeys = fd.PrimaryKeys
	// Keys: every FD is a key.
	Keys = fd.Keys
	// GeneralFDs: arbitrary functional dependencies.
	GeneralFDs = fd.GeneralFDs
)

// Convenience re-exports of the text-format parsers and formatters.
var (
	// ParseDatabase parses a newline-separated fact list, inferring the
	// schema.
	ParseDatabase = parse.ParseDatabase
	// ParseFact parses a single "R(c1,...,cn)".
	ParseFact = parse.ParseFact
	// ParseQuery parses "Ans(x) :- R(x,'c'), ...".
	ParseQuery = parse.ParseQuery
	// ParseTuple parses "a,b,c".
	ParseTuple = parse.ParseTuple
	// FormatDatabase renders a database as ParseDatabase input (the
	// lossless inverse: quoting and escaping applied as needed).
	FormatDatabase = parse.FormatDatabase
	// FormatFact renders one fact as ParseFact input.
	FormatFact = parse.FormatFact
)

// Mutation errors of ApplyInsert/ApplyDelete, matched with errors.Is.
var (
	// ErrDuplicateFact: the inserted fact is already in D.
	ErrDuplicateFact = core.ErrDuplicateFact
	// ErrUnknownRelation: the fact's relation is not in the schema.
	ErrUnknownRelation = core.ErrUnknownRelation
	// ErrArityMismatch: the fact's arity differs from the schema's.
	ErrArityMismatch = core.ErrArityMismatch
	// ErrFactIndex: ApplyDelete index outside [0, |D|).
	ErrFactIndex = core.ErrFactIndex
)

// Instance is a database together with its FD set, ready for exact or
// approximate operational CQA. Everything it derives for queries is
// built on first use, at most once, and shared by every later call: the
// block decomposition behind SampleRepair (Lemma 5.2), the sequence-
// sampler DP tables of each operation space (Lemma C.1), and, per query
// fingerprint, the compiled witness sets and the block-factorized
// estimation state (delta.go). All methods are safe for concurrent use.
// ApplyInsert and ApplyDelete derive the next generation copy-on-write,
// carrying the factorized state forward.
type Instance struct {
	db    *rel.Database
	sigma *fd.Set
	inner *core.Instance
	class fd.Class

	// Each sampler builds behind its own sync.Once, so a generator that
	// needs only the block decomposition (M^ur) never waits on — or pays
	// for — the quadratic sequence-sampler DP, and vice versa. built
	// flips once the block decomposition exists; BlockCount reads it so
	// a metrics scrape never forces a build.
	blockOnce, seqOnce, seq1Once sync.Once
	block                        *sampler.BlockSampler
	seq, seq1                    *sampler.SequenceSampler
	built                        atomic.Bool

	// queryMu guards queries, the per-fingerprint cache (a fingerprint
	// is the query's canonical text), and order, its FIFO eviction queue.
	queryMu sync.Mutex
	queries map[string]*queryEntry
	order   []string

	// warm marks an instance derived by ApplyInsert/ApplyDelete. It only
	// labels the DeltaRefreshes counter; routing never reads it.
	warm bool

	// usage accumulates the instance's estimation totals across every
	// sampling call — the per-instance accounting the serving layer
	// reports.
	usage struct {
		runs, draws, cancelled, wallNanos atomic.Int64
	}
}

// Prepared is Instance under the name it had when sampler reuse and the
// factorized M^ur routes lived on a separate wrapper type.
type Prepared = Instance

// NewInstance builds an instance from a database and a validated FD set.
func NewInstance(db *Database, sigma *FDSet) *Instance {
	return &Instance{
		db:    db,
		sigma: sigma,
		inner: core.NewInstance(db, sigma),
		class: sigma.Classify(),
	}
}

// NewInstanceFromText parses the fact list and FD list (see package
// parse for the formats) and builds the instance.
func NewInstanceFromText(factsText, fdsText string) (*Instance, error) {
	db, sch, err := parse.ParseDatabase(factsText)
	if err != nil {
		return nil, fmt.Errorf("ocqa: parsing facts: %w", err)
	}
	sigma, err := parse.ParseFDs(fdsText, sch)
	if err != nil {
		return nil, fmt.Errorf("ocqa: parsing FDs: %w", err)
	}
	return NewInstance(db, sigma), nil
}

// DB returns the database.
func (in *Instance) DB() *Database { return in.db }

// Sigma returns the FD set.
func (in *Instance) Sigma() *FDSet { return in.sigma }

// Class returns the constraint class of Σ.
func (in *Instance) Class() ConstraintClass { return in.class }

// IsConsistent reports whether D |= Σ. For FDs that holds iff V(D,Σ) is
// empty, i.e. iff the conflict graph has no edge, so the answer reads
// the conflict pair count the instance carries and costs O(1).
func (in *Instance) IsConsistent() bool { return in.inner.ConflictPairCount() == 0 }

// Core exposes the underlying exact engine for advanced use (chain
// construction, predicates over raw repair subsets, and the enumeration
// engines that the factorized M^ur routes bypass under primary keys).
func (in *Instance) Core() *core.Instance { return in.inner }

// Prepare builds the block decomposition of a primary-key instance now
// instead of on first use — linear work, which a registering service
// would rather pay before its first query — and returns the instance.
// The sequence-sampler DP tables, quadratic in the facts that sit in
// conflict blocks, still wait for the first M^us or M^{us,1} query.
func (in *Instance) Prepare() *Instance {
	in.blockSampler()
	return in
}

// blockSampler returns the shared block sampler, building it at most
// once; nil outside primary keys, where the approximability matrix never
// asks for one.
func (in *Instance) blockSampler() *sampler.BlockSampler {
	if in.class != fd.PrimaryKeys {
		return nil
	}
	in.blockOnce.Do(func() {
		in.block, _ = sampler.NewBlockSampler(in.inner)
		in.built.Store(true)
	})
	return in.block
}

// seqSampler returns the shared sequence sampler for the operation
// space, building it at most once; nil outside primary keys.
func (in *Instance) seqSampler(singleton bool) *sampler.SequenceSampler {
	if in.class != fd.PrimaryKeys {
		return nil
	}
	if singleton {
		in.seq1Once.Do(func() { in.seq1, _ = sampler.NewSequenceSampler(in.inner, true) })
		return in.seq1
	}
	in.seqOnce.Do(func() { in.seq, _ = sampler.NewSequenceSampler(in.inner, false) })
	return in.seq
}

// BlockCount reports the number of non-singleton conflict blocks, and
// whether that number is available without building anything: it reads
// the block sampler only once its build has completed, so a metrics
// scrape never pays for it.
func (in *Instance) BlockCount() (int, bool) {
	if !in.built.Load() {
		return 0, false
	}
	return len(in.block.Blocks()), true
}

// UsageTotals is a snapshot of an instance's accumulated estimation
// cost: sampling runs served, Monte-Carlo draws performed (discarded
// stopping-rule tails included), runs cancelled mid-flight, and total
// estimation wall time. Mutations derive a fresh instance, so totals
// cover the current generation only.
type UsageTotals struct {
	Runs, Draws, Cancelled int64
	WallNanos              int64
}

// Usage returns the accumulated totals. Safe for concurrent use; the
// fields are read individually, so a snapshot taken during a run may
// straddle one update — fine for monitoring.
func (in *Instance) Usage() UsageTotals {
	return UsageTotals{
		Runs:      in.usage.runs.Load(),
		Draws:     in.usage.draws.Load(),
		Cancelled: in.usage.cancelled.Load(),
		WallNanos: in.usage.wallNanos.Load(),
	}
}

func (in *Instance) recordUsage(a Accounting) {
	// A zero-worker record means no draw loop ran at all (refused or
	// failed before sampling) — nothing to account.
	if a.Workers == 0 && a.Draws == 0 {
		return
	}
	in.usage.runs.Add(1)
	in.usage.draws.Add(a.Draws)
	in.usage.wallNanos.Add(a.WallNanos)
	if a.Cancelled {
		in.usage.cancelled.Add(1)
	}
}

// --- The per-fingerprint query cache --------------------------------------

// maxCachedQueries bounds the query cache: past it the oldest
// fingerprint is evicted (FIFO — deliberately simpler than LRU, since a
// served result lands in the caller's own result cache and the compile
// being saved is a single enumeration). Without a bound, a client
// sweeping distinct queries against one long-lived instance would grow
// memory without limit.
const maxCachedQueries = 64

// queryEntry is one fingerprint's cached state: this generation's
// compiled multi-tuple witness sets, built at most once behind once, and
// the factorized-estimation state (delta.go), built from them on first
// use or carried across a mutation. compiling is set while the compile
// runs; eviction skips such an entry, so a concurrent caller of the same
// query never reruns its enumeration.
type queryEntry struct {
	q         *Query
	once      sync.Once
	mp        *core.MultiPred
	compiling atomic.Bool

	deltaOnce sync.Once
	delta     atomic.Pointer[deltaQuery]
}

// query returns the cache entry of q's fingerprint, creating it on first
// use.
func (in *Instance) query(q *Query) *queryEntry {
	key := q.String()
	in.queryMu.Lock()
	defer in.queryMu.Unlock()
	if e, ok := in.queries[key]; ok {
		return e
	}
	e := &queryEntry{q: q}
	in.cache(key, e)
	return e
}

// cache inserts an entry, first evicting the oldest one not mid-compile
// when the cache is full. With every entry mid-compile the cache briefly
// overshoots its bound by the number of concurrent compilers — bounded
// and transient. Caller holds queryMu.
func (in *Instance) cache(key string, e *queryEntry) {
	if in.queries == nil {
		in.queries = make(map[string]*queryEntry)
	}
	if len(in.order) >= maxCachedQueries {
		for i, old := range in.order {
			if !in.queries[old].compiling.Load() {
				delete(in.queries, old)
				in.order = append(in.order[:i], in.order[i+1:]...)
				break
			}
		}
	}
	in.queries[key] = e
	in.order = append(in.order, key)
}

// multiPred returns this generation's compiled witness sets for q,
// compiling at most once per fingerprint.
func (in *Instance) multiPred(q *Query) *core.MultiPred { return in.compiled(in.query(q)) }

func (in *Instance) compiled(e *queryEntry) *core.MultiPred {
	e.once.Do(func() {
		e.compiling.Store(true)
		e.mp = in.inner.CompileMultiPred(e.q, 0)
		e.compiling.Store(false)
	})
	return e.mp
}

// --- Snapshots (durable single-instance persistence) ----------------------

// Snapshot writes a versioned binary snapshot of the instance — schema,
// FD set and database — readable by LoadSnapshot. Snapshots are written
// in the columnar v2 format, whose integer sections mirror the
// in-memory dictionary-encoded columns (large instances boot without
// per-fact string parsing); v1 snapshots from earlier releases remain
// readable.
func (in *Instance) Snapshot(w io.Writer) error {
	if err := store.EncodeInstance(w, in.db, in.sigma); err != nil {
		return fmt.Errorf("ocqa: writing snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot written by Instance.Snapshot and
// rebuilds the instance (conflict structure included).
func LoadSnapshot(r io.Reader) (*Instance, error) {
	db, sigma, err := store.DecodeInstance(r)
	if err != nil {
		return nil, fmt.Errorf("ocqa: reading snapshot: %w", err)
	}
	return NewInstance(db, sigma), nil
}

// --- Exact computation (♯P-hard; small scale) ----------------------------

// ExactProbability computes P_{M,Q}(D, c̄) exactly as a rational.
// limit bounds the exponential engines' state budget (0 = unlimited);
// a core.StateLimitError signals the instance is too large for exact
// computation. M^ur under primary keys runs on the block-factorized
// engine (delta.go) wherever the target's witness structure factorizes:
// polynomial, with per-block factors cached here and refreshed per block
// across ApplyInsert/ApplyDelete, so exact M^ur answers stay available
// at sizes where the enumeration engines exhaust any state budget. Its
// results are big.Rat-identical to the enumeration engines, which answer
// every other case and remain reachable through Core.
func (in *Instance) ExactProbability(mode Mode, q *Query, c Tuple, limit int) (*big.Rat, error) {
	if r := in.routeFor(context.TODO(), mode, q, c, true, nil); r.dq != nil {
		r.dq.mu.Lock()
		defer r.dq.mu.Unlock()
		return in.deltaExactTarget(r.dq, r.dq.target(c), mode.Singleton), nil
	}
	return in.inner.ExactProbability(mode, q, c, limit)
}

// Semantics computes the operational semantics [[D]]_M: the exact
// distribution over operational repairs.
func (in *Instance) Semantics(mode Mode, limit int) ([]RepairProb, error) {
	return in.inner.Semantics(mode, limit)
}

// ConsistentAnswers computes the operational consistent answers to Q
// over D with exact probabilities. M^ur under primary keys runs on the
// block-factorized engine where every candidate tuple factorizes, as in
// ExactProbability; otherwise the shared exact pass evaluates the
// query's cached witness sets.
func (in *Instance) ConsistentAnswers(mode Mode, q *Query, limit int) ([]ConsistentAnswer, error) {
	if r := in.routeFor(context.TODO(), mode, q, nil, false, nil); r.dq != nil {
		return in.deltaConsistentAnswers(r.dq, mode.Singleton), nil
	}
	return in.inner.ConsistentAnswersWith(in.multiPred(q), mode, limit)
}

// RepairOf renders a repair subset as a database.
func (in *Instance) RepairOf(rp RepairProb) *Database { return in.db.Restrict(rp.Repair) }

// CountRepairs computes |CORep(D,Σ)| (or |CORep^1| with singleton):
// closed-form Π(|B|+1) over the block decomposition for primary keys;
// otherwise polynomial-time up to independent-set counting per conflict
// component.
func (in *Instance) CountRepairs(singleton bool) *big.Int {
	if bs := in.blockSampler(); bs != nil {
		return bs.CountRepairs(singleton)
	}
	return in.inner.CountCandidateRepairs(singleton)
}

// CountSequences computes |CRS(D,Σ)| (or |CRS^1|). For primary keys it
// runs the polynomial-time DP of Lemma C.1 over the block-size profile;
// otherwise it falls back to the exponential DAG engine under the given
// state limit.
func (in *Instance) CountSequences(singleton bool, limit int) (*big.Int, error) {
	if bs := in.blockSampler(); bs != nil {
		return bs.CountSequences(singleton), nil
	}
	return in.inner.CountCRS(singleton, limit)
}

// BuildChain materialises the repairing Markov chain (Definition 3.5)
// with at most maxNodes nodes — exponential, for inspection and for the
// M^ur leaf distribution at small scale.
func (in *Instance) BuildChain(singleton bool, maxNodes int) (*Chain, error) {
	return in.inner.BuildTree(singleton, maxNodes)
}

// --- Approximation (the paper's positive results) -------------------------

// ApproxStatus describes what the paper proves about approximating
// OCQA for a (mode, constraint class) pair. The matrix itself lives in
// internal/core (one table shared by the facade, the server's refusals
// and the workload generator's scenario tags); the facade re-exports
// it unchanged.
type ApproxStatus = core.ApproxStatus

const (
	// StatusFPRAS: an FPRAS exists and this library implements it.
	StatusFPRAS = core.StatusFPRAS
	// StatusHeuristic: an efficient sampler exists but no polynomial
	// lower bound on positive probabilities, so Monte Carlo estimates
	// carry no multiplicative guarantee (e.g. M^uo with FDs,
	// Proposition D.6). Allowed only with Force.
	StatusHeuristic = core.StatusHeuristic
	// StatusOpen: approximability is open and no efficient sampler is
	// known (e.g. M^us beyond primary keys); refused.
	StatusOpen = core.StatusOpen
	// StatusNoFPRAS: the paper refutes an FPRAS under RP ≠ NP (e.g.
	// M^ur with FDs, Theorem 5.1(3)); refused.
	StatusNoFPRAS = core.StatusNoFPRAS
)

// Approximability returns the paper's verdict for the pair, with the
// citation it rests on.
func Approximability(mode Mode, class ConstraintClass) (ApproxStatus, string) {
	return core.Approximability(mode, class)
}

// Default estimator options. They live here — and only here — so the
// facade, the server, the CLIs and the oracle harness resolve an unset
// option to the same documented value.
const (
	// DefaultEpsilon is ApproxOptions.Epsilon when unset (0).
	DefaultEpsilon = 0.1
	// DefaultDelta is ApproxOptions.Delta when unset (0).
	DefaultDelta = 0.05
	// DefaultSeed is ApproxOptions.Seed when unset (0).
	DefaultSeed = 1
	// DefaultMaxSamples caps the adaptive estimators when
	// ApproxOptions.MaxSamples is unset (≤ 0).
	DefaultMaxSamples = 5_000_000
	// DefaultMarginalSamples is the exact draw count of
	// ApproximateFactMarginals when ApproxOptions.MaxSamples is unset.
	DefaultMarginalSamples = 100_000
)

// ApproxOptions configures Approximate.
type ApproxOptions struct {
	// Epsilon is the multiplicative error (0 < ε < 1). Default
	// DefaultEpsilon.
	Epsilon float64
	// Delta is the failure probability (0 < δ < 1). Default
	// DefaultDelta.
	Delta float64
	// Seed makes runs reproducible. Default DefaultSeed.
	Seed int64
	// UseChernoff selects the fixed-sample-count construction with the
	// paper's worst-case lower bounds as pmin — faithful to the FPRAS
	// proofs but often astronomically conservative. The default is the
	// Dagum–Karp stopping rule, whose cost adapts to the true
	// probability.
	UseChernoff bool
	// UseAA selects the full three-phase Dagum–Karp–Luby–Ross optimal
	// estimator (reference [8] of the paper), which additionally
	// exploits low variance — cheaper than the stopping rule when the
	// target probability is large.
	UseAA bool
	// MaxSamples caps the draws the adaptive estimators consume (≤ 0
	// means DefaultMaxSamples), exactly at any worker count: a capped
	// run never consumes or draws more; ignored with UseChernoff. For
	// ApproximateFactMarginals it is the exact number of draws (≤ 0
	// means DefaultMarginalSamples there).
	MaxSamples int
	// Workers parallelises estimation: the fixed-sample construction,
	// the stopping rule and the marginal counter draw in rounds of up
	// to engine.Chunk draws per worker, each worker on a deterministic
	// substream derived centrally from (Seed, phase, worker). The
	// stopping rule consumes each round in canonical order (worker 0's
	// batch, then worker 1's, ...), so it reproduces the sequential
	// rule's law exactly; with one worker it draws one outcome at a time
	// and never draws past its stopping point. The 𝒜𝒜 estimator (UseAA)
	// always runs on one worker. Every estimate is deterministic in
	// (Seed, Workers): same seed and worker count ⇒ identical result.
	// 0 (the default) means adaptive: the engine picks the count from
	// the instance's conflict structure and the draw budget, never
	// exceeding GOMAXPROCS — so small runs stay serial and large ones
	// use the machine. A positive value is honoured verbatim.
	Workers int
	// Force runs the sampler even when the pair's status is
	// StatusHeuristic (sampler exists, guarantee does not).
	Force bool
}

// fill resolves the estimator defaults; fillMarginals is the same
// resolution with the marginals draw-count default. All default logic
// lives in these two methods — callers must not pre-resolve.
func (o *ApproxOptions) fill()          { o.fillDefaults(DefaultMaxSamples) }
func (o *ApproxOptions) fillMarginals() { o.fillDefaults(DefaultMarginalSamples) }

func (o *ApproxOptions) fillDefaults(defaultSamples int) {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Delta == 0 {
		o.Delta = DefaultDelta
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = defaultSamples
	}
	if o.Workers < 0 {
		// Any non-positive request means "adaptive"; normalise so the
		// resolution sites and Accounting see the canonical sentinel.
		o.Workers = engine.AutoWorkers
	}
}

// parallelHint is the per-draw cost proxy handed to the engine's
// adaptive worker selection: the conflict pair count the instance
// carries, floored at 1 for consistent instances; reading the count
// leaves a written instance's pair list unbuilt. It tracks what a
// whole-repair draw walks: the block structure of the repair and
// sequence samplers, the pairs a UOWalker walk kills. A single-target
// M^uo or M^{uo,1} draw touches only the few facts its witness images
// reach (UOLocal), so for it the hint overstates the work; it is kept
// as is, so that the worker count, and with it every estimate's (Seed,
// Workers) draw streams, does not depend on which sampler answers.
func (in *Instance) parallelHint() int {
	if n := in.inner.ConflictPairCount(); n > 0 {
		return n
	}
	return 1
}

// ErrNotApproximable is wrapped by Approximate's refusals.
var ErrNotApproximable = errors.New("ocqa: no FPRAS for this generator/constraint pair")

// checkApproximable enforces the approximability matrix: it returns a
// theorem-citing refusal unless the pair's status is StatusFPRAS (or
// StatusHeuristic with force set).
func (in *Instance) checkApproximable(mode Mode, force bool) error {
	status, cite := Approximability(mode, in.class)
	switch status {
	case StatusFPRAS:
		return nil
	case StatusHeuristic:
		if force {
			return nil
		}
		return fmt.Errorf("%w: %s under %v is %v [%s]; set Force to sample without a guarantee",
			ErrNotApproximable, mode.Symbol(), in.class, status, cite)
	default:
		return fmt.Errorf("%w: %s under %v is %v [%s]",
			ErrNotApproximable, mode.Symbol(), in.class, status, cite)
	}
}

// Approximate estimates P_{M,Q}(D, c̄) by Monte Carlo over the paper's
// polynomial-time samplers. It refuses (mode, class) pairs whose status
// is StatusOpen or StatusNoFPRAS, and StatusHeuristic pairs unless
// opts.Force is set; the error cites the relevant theorem.
//
// Under primary keys every stopping-rule M^ur and M^{ur,1} query runs on
// the block-factorized estimator (delta.go): the probability factorizes
// over the few key blocks the query's witnesses touch, enumerable
// clusters contribute exact factors — an answer can be exact with zero
// draws — and only larger clusters are sampled, per stratum, with
// statistics reused across ApplyInsert/ApplyDelete. The paper's
// whole-instance estimators answer where it declines: UseAA,
// UseChernoff, and witness structures past its caps. The engine is
// chosen once, before any draw; PlanApproximate reports that choice. Under M^uo and
// M^{uo,1} a draw decides only the facts c̄'s witness images touch
// (sampler.UOLocal) instead of walking the whole chain. A c̄ with no
// witness image has probability 0, which the stopping rule and 𝒜𝒜
// return without drawing.
//
// The estimation loop checks ctx between sample chunks: a cancelled or
// expired context stops the draws within one chunk per worker and
// returns the context's error (wrapped; match with errors.Is against
// context.Canceled / context.DeadlineExceeded).
func (in *Instance) Approximate(ctx context.Context, mode Mode, q *Query, c Tuple, opts ApproxOptions) (Estimate, error) {
	opts.fill()
	if err := in.checkApproximable(mode, opts.Force); err != nil {
		return Estimate{}, err
	}
	var est Estimate
	var err error
	if r := in.routeFor(ctx, mode, q, c, true, &opts); r.dq != nil {
		end := engine.TraceFrom(ctx).StartSpan("delta-refresh")
		r.dq.mu.Lock()
		est, err = in.deltaApproxTarget(ctx, r.dq, r.dq.target(c), mode, opts)
		r.dq.mu.Unlock()
		end()
	} else {
		est, err = in.approximate(ctx, mode, q, in.targetDrawer(ctx, mode, q, c), opts)
	}
	in.recordUsage(est.Acct)
	return est, err
}

// subsetDrawer returns a per-worker factory of repair drawers for the
// mode: one call of the inner function draws one repair subset under
// the mode's sampler. It is the sampling substrate shared by the
// single-tuple and the multi-tuple estimation paths; the approximability
// check that precedes it admits M^ur and M^us only under primary keys,
// where their samplers exist.
func (in *Instance) subsetDrawer(mode Mode) func() func(*rand.Rand) rel.Subset {
	switch mode.Gen {
	case UniformRepairs:
		// One shared sampler: the block decomposition is immutable
		// after construction and SampleRepair is concurrency-safe, so
		// every worker draws from the same tables; only the rng is
		// per-worker.
		bs := in.blockSampler()
		return func() func(*rand.Rand) rel.Subset {
			return func(rng *rand.Rand) rel.Subset { return bs.SampleRepair(rng, mode.Singleton) }
		}
	case UniformSequences:
		// The profile-traceback sampler draws the same uniform CRS
		// distribution as Algorithm 1 with O(‖D‖) work per sample. Its
		// DP tables are immutable after construction and safe to
		// share; only the rng is per-worker.
		ss := in.seqSampler(mode.Singleton)
		return func() func(*rand.Rand) rel.Subset {
			return func(rng *rand.Rand) rel.Subset {
				_, res := ss.Sample(rng)
				return res
			}
		}
	default:
		// The walker carries per-walk mutable state, so each worker
		// receives its own instance via the factory; construction
		// allocates that state, O(‖D‖ + |conflict pairs|), over the
		// conflict adjacency the instance builds once and shares.
		return func() func(*rand.Rand) rel.Subset {
			walker := sampler.NewUOWalker(in.inner)
			return func(rng *rand.Rand) rel.Subset {
				return walker.WalkResult(rng, mode.Singleton)
			}
		}
	}
}

// targetDrawer compiles the target's witness images — the run's
// "compile" span — with c̄ bound before the search, and returns the
// per-worker factory of its Bernoulli draws (rowDrawer), or nil when the
// target has no image.
func (in *Instance) targetDrawer(ctx context.Context, mode Mode, q *Query, c Tuple) func() engine.Sampler {
	endCompile := engine.TraceFrom(ctx).StartSpan("compile")
	defer endCompile()
	mp := in.inner.CompileTarget(q, c, 0)
	if len(mp.Tuples()) == 0 {
		return nil
	}
	return in.rowDrawer(mode, mp, 0)
}

// rowDrawer returns the per-worker factory of the Bernoulli draws "row
// t's tuple is an answer of a drawn repair". Under M^uo and M^{uo,1} a
// draw decides only the facts the row's images ask about, through
// UOLocal over the instance's shared conflict adjacency; the other
// generators draw a whole repair subset, and so does a row past the
// image cap, which the compile's plan searches.
func (in *Instance) rowDrawer(mode Mode, mp *core.MultiPred, t int) func() engine.Sampler {
	if ws, ok := mp.TupleWitnesses(t); ok && mode.Gen == UniformOperations {
		adj := in.inner.Adjacency()
		return func() engine.Sampler {
			leaf := sampler.NewUOLocal(adj, mode.Singleton)
			return func(rng *rand.Rand) bool {
				leaf.Draw(rng)
				return core.Holds(ws, leaf)
			}
		}
	}
	pred := mp.Pred(t)
	newSubset := in.subsetDrawer(mode)
	return func() engine.Sampler {
		draw := newSubset()
		return func(rng *rand.Rand) bool { return pred(draw(rng)) }
	}
}

// approximate runs the whole-instance estimators of Approximate over
// one target's draws, nil when the target has no image. opts must be
// filled and the pair approximable.
func (in *Instance) approximate(ctx context.Context, mode Mode, q *Query, newDraw func() engine.Sampler, opts ApproxOptions) (Estimate, error) {
	if newDraw == nil {
		// No witness image: c̄ ∉ Q(D), or its arity is wrong, so by CQ
		// monotonicity its probability is exactly 0 and every draw is
		// false. The adaptive estimators would never stop and burn the
		// whole cap, so they answer 0 without drawing; the fixed-sample
		// construction still performs exactly the count its plan
		// promises, none of which needs a repair.
		if !opts.UseChernoff {
			return Estimate{Epsilon: opts.Epsilon, Delta: opts.Delta, Converged: true}, nil
		}
		newDraw = func() engine.Sampler { return func(*rand.Rand) bool { return false } }
	}
	// Workers = 0 resolves adaptively from the conflict structure and
	// the committed draw budget; an explicit request passes through.
	opts.Workers = engine.ResolveWorkers(opts.Workers, in.parallelHint(), int64(opts.MaxSamples))

	var est Estimate
	var err error
	switch {
	case opts.UseChernoff:
		pmin := in.worstCaseLowerBound(mode, q)
		if pmin <= 0 {
			return Estimate{}, fmt.Errorf("ocqa: worst-case lower bound underflows for ‖D‖=%d, ‖Q‖=%d; use the stopping rule", in.db.Len(), q.Size())
		}
		n := fpras.ChernoffSamples(opts.Epsilon, opts.Delta, pmin)
		est, err = engine.EstimateFixed(ctx, newDraw, n, opts.Seed, opts.Workers)
		est.Epsilon, est.Delta = opts.Epsilon, opts.Delta
	case opts.UseAA:
		est, err = engine.EstimateAA(ctx, newDraw(), opts.Epsilon, opts.Delta, opts.Seed, opts.MaxSamples)
	default:
		est, err = engine.EstimateStoppingRule(ctx, newDraw, opts.Epsilon, opts.Delta, opts.Seed, opts.Workers, opts.MaxSamples)
	}
	if err != nil {
		return est, fmt.Errorf("ocqa: estimation stopped: %w", err)
	}
	return est, nil
}

// worstCaseLowerBound selects the paper's lower bound on positive
// target probabilities for the pair (Lemmas 5.3, 6.3, E.3, E.10, D.8).
// For M^uo under keys the bound of Proposition 7.3 is a polynomial
// whose degree depends on Σ and Q; the implementation uses the explicit
// singleton/primary bounds where the paper states them and the D.8 form
// otherwise (any positive pmin keeps the estimator sound, just
// conservative).
func (in *Instance) worstCaseLowerBound(mode Mode, q *Query) float64 {
	n, k := in.db.Len(), q.Size()
	switch {
	case mode.Singleton && in.class == fd.PrimaryKeys:
		return fpras.LowerBoundSingletonPrimary(n, k)
	case mode.Singleton:
		return fpras.LowerBoundSingletonFD(n, k)
	default:
		return fpras.LowerBoundRRFreqPrimary(n, k)
	}
}

// ApproximateAnswers estimates the probability of every tuple of Q(D)
// (the superset of all tuples with positive probability, by CQ
// monotonicity) from ONE shared stream of repair draws: the tuples'
// probabilities are defined over the same repair distribution, so each
// drawn repair is evaluated against every candidate tuple's compiled
// witness sets at once — K candidates cost one Monte-Carlo pass
// (max over tuples of the per-tuple stopping point) instead of K
// independent estimations, and one homomorphism enumeration, cached
// per query fingerprint, instead of K+1. Estimates are deterministic in
// (Seed, Workers). opts.MaxSamples caps the draws of the shared pass as
// a whole. With opts.UseAA the per-tuple loop is retained (the
// three-phase 𝒜𝒜 estimator adapts its later phases to each target's own
// crude estimate and variance, which is inherently single-target), over
// the same one cached enumeration.
// Stopping-rule M^ur and M^{ur,1} queries under primary keys are
// answered per tuple by the block-factorized estimator, as in
// Approximate, unless some candidate holds more sampled strata than it
// takes; the engine is chosen for the whole pass before any draw.
// Cancelling ctx stops the shared pass within one sample chunk per
// worker; like Approximate, the partial per-tuple estimates accompany
// the wrapped context error.
func (in *Instance) ApproximateAnswers(ctx context.Context, mode Mode, q *Query, opts ApproxOptions) ([]ApproxAnswer, error) {
	out, _, err := in.ApproximateAnswersAcct(ctx, mode, q, opts)
	return out, err
}

// ApproximateAnswersAcct is ApproximateAnswers with the run-level cost
// accounting of the shared pass (or the per-tuple sum under UseAA).
func (in *Instance) ApproximateAnswersAcct(ctx context.Context, mode Mode, q *Query, opts ApproxOptions) ([]ApproxAnswer, Accounting, error) {
	opts.fill()
	if err := in.checkApproximable(mode, opts.Force); err != nil {
		return nil, Accounting{}, err
	}
	var out []ApproxAnswer
	var acct Accounting
	var err error
	if r := in.routeFor(ctx, mode, q, nil, false, &opts); r.dq != nil {
		end := engine.TraceFrom(ctx).StartSpan("delta-refresh")
		out, acct, err = in.deltaApproximateAnswers(ctx, r.dq, mode, opts)
		end()
	} else {
		out, acct, err = in.approximateAnswers(ctx, mode, q, opts)
	}
	in.recordUsage(acct)
	return out, acct, err
}

// approximateAnswers runs the whole-instance answers estimation over
// the query's cached witness sets: the shared pass, or under 𝒜𝒜 the
// per-tuple loop over the same compile's rows. The returned Accounting
// is the run-level record of the shared pass, or the per-tuple sum on
// the 𝒜𝒜 path. opts must be filled and the pair approximable.
func (in *Instance) approximateAnswers(ctx context.Context, mode Mode, q *Query, opts ApproxOptions) ([]ApproxAnswer, Accounting, error) {
	endCompile := engine.TraceFrom(ctx).StartSpan("compile")
	mp := in.multiPred(q)
	tuples := mp.Tuples()
	if len(tuples) == 0 {
		endCompile()
		return nil, Accounting{}, nil
	}
	if opts.UseAA {
		endCompile()
		var out []ApproxAnswer
		var total Accounting
		for t, c := range tuples {
			e, err := in.approximate(ctx, mode, q, in.rowDrawer(mode, mp, t), opts)
			total.Draws += e.Acct.Draws
			total.Chunks += e.Acct.Chunks
			total.WallNanos += e.Acct.WallNanos
			total.Workers = max(total.Workers, e.Acct.Workers)
			total.Cancelled = total.Cancelled || e.Acct.Cancelled
			if err != nil {
				return nil, total, err
			}
			out = append(out, ApproxAnswer{Tuple: c, Estimate: e})
		}
		return out, total, nil
	}
	newSubset := in.subsetDrawer(mode)
	endCompile()
	newMulti := func() engine.MultiSampler {
		draw := newSubset()
		return func(rng *rand.Rand, out []bool, active []int) {
			mp.EvalTargets(draw(rng), out, active)
		}
	}
	// Same adaptive resolution as the single-tuple path; the shared
	// pass has one pool for all targets.
	opts.Workers = engine.ResolveWorkers(opts.Workers, in.parallelHint(), int64(opts.MaxSamples))
	var ests []Estimate
	var err error
	if opts.UseChernoff {
		pmin := in.worstCaseLowerBound(mode, q)
		if pmin <= 0 {
			return nil, Accounting{}, fmt.Errorf("ocqa: worst-case lower bound underflows for ‖D‖=%d, ‖Q‖=%d; use the stopping rule", in.db.Len(), q.Size())
		}
		n := fpras.ChernoffSamples(opts.Epsilon, opts.Delta, pmin)
		ests, err = engine.EstimateFixedMulti(ctx, newMulti, len(tuples), n, opts.Seed, opts.Workers)
		for i := range ests {
			ests[i].Epsilon, ests[i].Delta = opts.Epsilon, opts.Delta
		}
	} else {
		ests, err = engine.EstimateStoppingRuleMulti(ctx, newMulti, len(tuples), opts.Epsilon, opts.Delta, opts.Seed, opts.Workers, opts.MaxSamples)
	}
	if err != nil {
		// Mirror the single-tuple path: the engine's partial per-tuple
		// estimates accompany the cancellation error rather than being
		// discarded.
		err = fmt.Errorf("ocqa: estimation stopped: %w", err)
	}
	var acct Accounting
	if len(ests) > 0 {
		// Every estimate of a shared pass carries the same run-level
		// record.
		acct = ests[0].Acct
	}
	if len(ests) != len(tuples) {
		return nil, acct, err
	}
	out := make([]ApproxAnswer, len(tuples))
	for t, c := range tuples {
		out[t] = ApproxAnswer{Tuple: c, Estimate: ests[t]}
	}
	return out, acct, err
}

// ApproxAnswer pairs an answer tuple with its estimate.
type ApproxAnswer struct {
	Tuple    Tuple
	Estimate Estimate
}

// --- Weighted chains (the general Definition 3.5 mechanism) ---------------

// WeightFn assigns a positive weight to each available operation at a
// state; the chain applies operations with probability proportional to
// weight. See core.WeightFn for the locality requirement.
type WeightFn = core.WeightFn

// UniformWeights reproduces M^uo.
var UniformWeights WeightFn = core.UniformWeights

// TrustWeights builds distrust-proportional weights from per-fact
// reliabilities — the introduction's data-integration story.
var TrustWeights = core.TrustWeights

// ExactProbabilityWeighted computes P_{M,Q}(D, c̄) exactly under an
// arbitrary weighted chain (♯P-hard; Theorem 4.1 applies). No FPRAS
// exists for adversarial weights (Theorem 4.2), so there is no
// Approximate counterpart with a guarantee; use SampleWeighted on the
// core instance for heuristic estimation.
func (in *Instance) ExactProbabilityWeighted(weights WeightFn, singleton bool, q *Query, c Tuple, limit int) (*big.Rat, error) {
	return in.inner.ProbWeighted(weights, singleton, limit, in.inner.TargetPred(q, c))
}

// SemanticsWeighted computes the exact repair distribution of a
// weighted chain.
func (in *Instance) SemanticsWeighted(weights WeightFn, singleton bool, limit int) ([]RepairProb, error) {
	return in.inner.SemanticsWeighted(weights, singleton, limit)
}

// ExplainRepair builds a complete repairing sequence producing the
// given repair (the constructive content of Lemma 5.4/E.4), rendered
// against the database's facts; ok is false if the subset is not a
// candidate repair under the operation space.
func (in *Instance) ExplainRepair(rp RepairProb, singleton bool) (string, bool) {
	seq, ok := in.inner.WitnessSequence(rp.Repair, singleton)
	if !ok {
		return "", false
	}
	return in.inner.SequenceString(seq), true
}

// --- Fact marginals (per-fact survival probabilities) ---------------------

// FactMarginal pairs a fact with the probability that it survives the
// repairing process — its confidence score under the operational
// semantics.
type FactMarginal struct {
	Fact Fact
	Prob *big.Rat
}

// FactMarginals computes P[f ∈ repair] exactly for every fact of D
// under the given mode: the repair-distribution is computed once and
// marginalised, so the cost matches a single Semantics call. Facts in
// no conflict have probability 1.
func (in *Instance) FactMarginals(mode Mode, limit int) ([]FactMarginal, error) {
	sem, err := in.Semantics(mode, limit)
	if err != nil {
		return nil, err
	}
	out := make([]FactMarginal, in.db.Len())
	for i := range out {
		out[i] = FactMarginal{Fact: in.db.Fact(i), Prob: new(big.Rat)}
	}
	for _, rp := range sem {
		for _, i := range rp.Repair.Indices() {
			out[i].Prob.Add(out[i].Prob, rp.Prob)
		}
	}
	return out, nil
}

// ApproximateFactMarginals estimates every fact's survival probability
// from a single stream of sampled repairs (one Monte-Carlo pass, all
// facts at once) under the mode's sampler. The per-fact estimates are
// plain means over exactly opts.MaxSamples draws — marginals need no
// stopping rule since every fact shares the stream. An unset
// MaxSamples (≤ 0) resolves to DefaultMarginalSamples; an explicit
// value is always respected. The approximability matrix is enforced as
// in Approximate.
//
// With opts.Workers > 1 the draws run in parallel: each worker
// accumulates its own count vector on its own deterministic substream
// and the vectors are merged, so one drawn repair still updates every
// fact's counter in a single pass and the result is deterministic in
// (Seed, Workers). Cancelling ctx stops the draws within one chunk per
// worker and returns the context's error.
func (in *Instance) ApproximateFactMarginals(ctx context.Context, mode Mode, opts ApproxOptions) ([]float64, error) {
	out, _, err := in.ApproximateFactMarginalsAcct(ctx, mode, opts)
	return out, err
}

// ApproximateFactMarginalsAcct is ApproximateFactMarginals with the
// run's cost accounting.
func (in *Instance) ApproximateFactMarginalsAcct(ctx context.Context, mode Mode, opts ApproxOptions) ([]float64, Accounting, error) {
	out, acct, err := in.approximateFactMarginals(ctx, mode, opts)
	in.recordUsage(acct)
	return out, acct, err
}

func (in *Instance) approximateFactMarginals(ctx context.Context, mode Mode, opts ApproxOptions) ([]float64, Accounting, error) {
	opts.fillMarginals()
	if err := in.checkApproximable(mode, opts.Force); err != nil {
		return nil, Accounting{}, err
	}
	endCompile := engine.TraceFrom(ctx).StartSpan("compile")
	newCounter, always := in.countingDrawer(mode)
	endCompile()
	opts.Workers = engine.ResolveWorkers(opts.Workers, in.parallelHint(), int64(opts.MaxSamples))
	counts, acct, err := engine.Marginals(ctx, newCounter, in.db.Len(), opts.MaxSamples, opts.Seed, opts.Workers)
	if err != nil {
		return nil, acct, fmt.Errorf("ocqa: marginal estimation stopped: %w", err)
	}
	out := make([]float64, in.db.Len())
	for i, c := range counts {
		out[i] = float64(c) / float64(acct.Draws)
	}
	// Facts outside every conflict survive each repair by construction;
	// their drawer skips them, so their marginal is exactly 1.
	for _, i := range always {
		out[i] = 1
	}
	return out, acct, nil
}

// countingDrawer returns a per-worker factory of amortised counting
// samplers for the mode — one call draws one repair and increments the
// survival counter of each of its facts — plus the indices of facts
// that survive every repair (only the block-based M^ur drawer skips
// those per draw; the other modes count them like any other fact).
func (in *Instance) countingDrawer(mode Mode) (func() engine.CountSampler, []int) {
	switch mode.Gen {
	case UniformRepairs:
		// The block decomposition is shared across workers (immutable,
		// concurrency-safe); fixed facts are hoisted out of the hot
		// loop entirely, so a draw costs O(#blocks), not O(‖D‖).
		bs := in.blockSampler()
		return func() engine.CountSampler {
			return func(rng *rand.Rand, counts []int) {
				bs.AddRepairCounts(rng, mode.Singleton, counts)
			}
		}, bs.FixedIndices()
	case UniformSequences:
		ss := in.seqSampler(mode.Singleton)
		return func() engine.CountSampler {
			return func(rng *rand.Rand, counts []int) {
				_, res := ss.Sample(rng)
				res.AddTo(counts)
			}
		}, nil
	default:
		// The walker carries per-walk mutable state: one instance per
		// worker via the factory.
		return func() engine.CountSampler {
			walker := sampler.NewUOWalker(in.inner)
			return func(rng *rand.Rand, counts []int) {
				walker.WalkAddCounts(rng, mode.Singleton, counts)
			}
		}, nil
	}
}
