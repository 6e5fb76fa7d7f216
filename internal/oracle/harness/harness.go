// Package harness is the randomized differential verification harness:
// it machine-checks every operational semantics of the production
// engines against the brute-force oracle on streams of random
// scenarios. One run performs four audits:
//
//  1. Exact differential — core.ExactProbability, Semantics,
//     ConsistentAnswers (the shared multi-tuple pass) and the facade's
//     exact FactMarginals path must be big.Rat-equal, bitwise, to the
//     oracle across all six modes on every generated scenario.
//  2. Estimator envelopes — the FPRAS constructions (Chernoff fixed
//     sample count), the Dagum–Karp stopping rule, the 𝒜𝒜 optimal
//     estimator and the shared-draw multi-target pass — plus, for M^ur
//     and M^{ur,1} under primary keys, a cold Prepared's block-factorized
//     single-target and answers estimates — must land inside
//     their stated (ε, δ) envelopes at the promised empirical rate,
//     measured against oracle ground truth (cf. the conformal-
//     calibration idea of auditing stated validity guarantees
//     empirically instead of trusting them).
//  3. Durability replay — random insert/delete-fact traces are played
//     through the copy-on-write mutation path AND journalled to a
//     snapshot+WAL store; after close + reopen the reloaded instance
//     must agree with the live one and with a fresh oracle built on
//     the reloaded state.
//  4. Delta traces — random insert/delete traces are played through the
//     Prepared.ApplyInsert/ApplyDelete lineage (the incremental
//     estimation layer: per-block factor caching, maintained witness
//     sets, stratified draw reuse); after every mutation the lineage's
//     exact answers must be big.Rat-equal to a cold from-scratch
//     instance (and to the oracle, when in budget) under all six modes,
//     and its warm stratified estimates must land inside the stated
//     (ε, δ) envelope around the cold exact probability.
//
// The harness is deterministic in Config.Seed. It is invoked by
// `ocqa-bench -oracle` (the CI differential gate) and, at reduced
// scenario counts, by the tier-1 test suite.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/fd"
	"repro/internal/oracle"
	"repro/internal/parse"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config parameterises one harness run. The zero value resolves to the
// full differential gate (500 scenarios per mode).
type Config struct {
	// Seed drives every random choice of the run.
	Seed int64
	// Scenarios is the number of random instances for the exact
	// differential; every one is checked under all six modes.
	// Default 500.
	Scenarios int
	// EstScenarios is the number of instances for the estimator-
	// envelope audit (default 6); EstTrials is the number of
	// independent seeds per estimator per target (default 20).
	EstScenarios, EstTrials int
	// Epsilon/Delta are the guarantee audited in part 2 (defaults
	// 0.25 / 0.2 — loose enough that runs stay cheap, tight enough
	// that a broken estimator misses visibly).
	Epsilon, Delta float64
	// Traces is the number of random mutation traces replayed through
	// the durable store (default 6); TraceOps the mutations per trace
	// (default 24).
	Traces, TraceOps int
	// DeltaTraces is the number of mutation traces played through the
	// Prepared.ApplyInsert/ApplyDelete incremental-estimation lineage
	// (default 4); DeltaOps the mutations per trace (default 12). After
	// every mutation the warm lineage is checked against a cold
	// instance and the oracle under all six modes.
	DeltaTraces, DeltaOps int
	// Budget caps the oracle's sequence-tree walk per instance.
	Budget int
	// TraceDir hosts the store directories ("" = os.TempDir()).
	TraceDir string
	// Log, when set, receives progress lines.
	Log io.Writer
}

func (c *Config) fill() {
	if c.Scenarios <= 0 {
		c.Scenarios = 500
	}
	if c.EstScenarios <= 0 {
		c.EstScenarios = 6
	}
	if c.EstTrials <= 0 {
		c.EstTrials = 20
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.25
	}
	if c.Delta <= 0 {
		c.Delta = 0.2
	}
	if c.Traces <= 0 {
		c.Traces = 6
	}
	if c.TraceOps <= 0 {
		c.TraceOps = 24
	}
	if c.DeltaTraces <= 0 {
		c.DeltaTraces = 4
	}
	if c.DeltaOps <= 0 {
		c.DeltaOps = 12
	}
	if c.Budget <= 0 {
		c.Budget = oracle.DefaultBudget
	}
}

// Report summarises one run.
type Report struct {
	// Scenarios is the number of instances the exact differential
	// checked; ModeChecks counts (instance, mode) comparisons.
	Scenarios, ModeChecks int
	// Skipped counts scenarios abandoned because the oracle's node
	// budget was exceeded (they are replaced, not silently dropped:
	// the loop runs until Scenarios instances were actually checked).
	Skipped int
	// Cells buckets the checked scenarios by approximability-matrix
	// cell.
	Cells map[string]int
	// EstRuns / EstMisses are the pooled envelope trials and the ones
	// that landed outside ε·p; EstAllowed is the miss budget
	// (δ·runs + 3σ slack) the run is held to. EstZeroChecks counts
	// zero-probability targets verified to estimate exactly 0.
	EstRuns, EstMisses int
	EstAllowed         float64
	EstZeroChecks      int
	// Traces is the number of store replay traces completed.
	Traces int
	// DeltaTraces is the number of incremental-lineage traces completed;
	// DeltaChecks counts (step, mode) comparisons against the cold
	// instance and the oracle. DeltaEstRuns / DeltaEstMisses /
	// DeltaEstAllowed are the warm stratified-estimate envelope trials,
	// misses and miss budget, held separately from part 2 so a delta
	// regression cannot hide inside the classic estimators' slack.
	DeltaTraces, DeltaChecks     int
	DeltaEstRuns, DeltaEstMisses int
	DeltaEstAllowed              float64
	// Failures lists every divergence with a reproducible description.
	Failures []string
}

// OK reports whether the run found no divergence.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Format renders the report for humans.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle differential: %d scenarios × 6 modes (%d comparisons, %d over-budget replaced)\n",
		r.Scenarios, r.ModeChecks, r.Skipped)
	cells := make([]string, 0, len(r.Cells))
	for c := range r.Cells {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		fmt.Fprintf(&b, "  %4d × %s\n", r.Cells[c], c)
	}
	fmt.Fprintf(&b, "estimator envelopes: %d/%d misses (budget %.1f), %d zero-probability targets exact\n",
		r.EstMisses, r.EstRuns, r.EstAllowed, r.EstZeroChecks)
	fmt.Fprintf(&b, "store replay traces: %d\n", r.Traces)
	fmt.Fprintf(&b, "delta traces: %d traces, %d mode checks, %d/%d estimate misses (budget %.1f)\n",
		r.DeltaTraces, r.DeltaChecks, r.DeltaEstMisses, r.DeltaEstRuns, r.DeltaEstAllowed)
	if r.OK() {
		b.WriteString("PASS: every semantics agrees with the brute-force oracle\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d divergence(s)\n", len(r.Failures))
		for i, f := range r.Failures {
			fmt.Fprintf(&b, "[%d] %s\n", i+1, f)
		}
	}
	return b.String()
}

// maxFailures bounds the failure log: past it the run aborts early —
// one genuine bug tends to fail thousands of comparisons.
const maxFailures = 12

// Run executes the four audits.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	rep := &Report{Cells: map[string]int{}}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	exactDifferential(cfg, rep, logf)
	if len(rep.Failures) < maxFailures {
		estimatorEnvelopes(cfg, rep, logf)
	}
	if len(rep.Failures) < maxFailures {
		if err := storeTraces(cfg, rep, logf); err != nil {
			return rep, err
		}
	}
	if len(rep.Failures) < maxFailures {
		deltaTraces(cfg, rep, logf)
	}
	return rep, nil
}

// specs is the rotation of scenario specs the differential cycles
// through: every constraint class × every shape compatible with it ×
// Boolean and answer-variable queries.
func specs() []workload.ScenarioSpec {
	var out []workload.ScenarioSpec
	for _, class := range []fd.Class{fd.PrimaryKeys, fd.Keys, fd.GeneralFDs} {
		for _, shape := range workload.Shapes(class) {
			for _, av := range []bool{false, true} {
				out = append(out, workload.ScenarioSpec{Class: class, Shape: shape, AnswerVars: av})
			}
		}
	}
	return out
}

// describe renders a reproducible scenario description for failure
// messages.
func describe(sc workload.Scenario, mode core.Mode) string {
	return fmt.Sprintf("mode=%s class=%v shape=%v q=%q Σ=%s D:\n%s",
		mode.Symbol(), sc.Spec.Class, sc.Spec.Shape, sc.Query.String(), sc.Sigma, parse.FormatDatabase(sc.DB))
}

// --- part 1: exact differential -------------------------------------------

func exactDifferential(cfg Config, rep *Report, logf func(string, ...any)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rotation := specs()
	// A configured budget too small for the generator's instances
	// would otherwise replace scenarios forever; past this many
	// overflows the budget is infeasible, not unlucky.
	maxSkipped := 2*cfg.Scenarios + 100
	for i := 0; rep.Scenarios < cfg.Scenarios && len(rep.Failures) < maxFailures; i++ {
		sc := workload.RandomScenario(rng, rotation[i%len(rotation)])
		ok, err := checkScenario(cfg, rep, sc)
		if err != nil {
			// Over budget: replace the scenario, keep the count honest.
			rep.Skipped++
			if rep.Skipped > maxSkipped {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"oracle budget %d is infeasible: %d of the first %d scenarios exceeded it (last: %v)",
					cfg.Budget, rep.Skipped, rep.Skipped+rep.Scenarios, err))
				return
			}
			continue
		}
		rep.Scenarios++
		rep.Cells[sc.Cell.String()]++
		if !ok && cfg.Log != nil {
			logf("scenario %d diverged", i)
		}
		if rep.Scenarios%100 == 0 {
			logf("exact differential: %d/%d scenarios", rep.Scenarios, cfg.Scenarios)
		}
	}
}

// checkScenario compares engines and oracle under all six modes.
// The returned error is only ever an oracle budget overflow.
func checkScenario(cfg Config, rep *Report, sc workload.Scenario) (bool, error) {
	orc, err := oracle.NewWithBudget(sc.DB, sc.Sigma, cfg.Budget)
	if err != nil {
		return false, err
	}
	inst := ocqa.NewInstance(sc.DB, sc.Sigma)
	fail := func(mode core.Mode, format string, args ...any) {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("%s\n  %s", fmt.Sprintf(format, args...), describe(sc, mode)))
	}
	clean := true
	for _, mode := range core.AllModes() {
		// Walk the whole space first: a budget overflow aborts the
		// scenario, not the run.
		want, err := orc.Repairs(mode)
		if err != nil {
			return false, err
		}
		rep.ModeChecks++

		// (1) The repair distribution [[D]]_M.
		sem, err := inst.Semantics(mode, 0)
		if err != nil {
			fail(mode, "Semantics error: %v", err)
			clean = false
			continue
		}
		if msg := compareDistributions(sc.DB, want, sem); msg != "" {
			fail(mode, "Semantics ≠ oracle: %s", msg)
			clean = false
		}

		// (2) Consistent answers: the shared multi-tuple exact pass.
		wantAns, err := orc.Answers(mode, sc.Query)
		if err != nil {
			return false, err
		}
		gotAns, err := inst.ConsistentAnswers(mode, sc.Query, 0)
		if err != nil {
			fail(mode, "ConsistentAnswers error: %v", err)
			clean = false
		} else if msg := compareAnswers(wantAns, gotAns); msg != "" {
			fail(mode, "ConsistentAnswers ≠ oracle: %s", msg)
			clean = false
		}

		// (3) Single-tuple exact probability, for a present tuple (the
		// first consistent answer when one exists, else the Boolean
		// empty tuple) and for a tuple certain to be absent.
		tup := cq.Tuple{}
		if len(sc.Query.AnswerVars) > 0 {
			if len(wantAns) == 0 {
				tup = nil // Q(D) = ∅: no present tuple to probe
			} else {
				tup = wantAns[0].Tuple
			}
		}
		if tup != nil {
			if msg := compareProbability(orc, inst, mode, sc.Query, tup); msg != "" {
				fail(mode, "ExactProbability ≠ oracle: %s", msg)
				clean = false
			}
		}
		if n := len(sc.Query.AnswerVars); n > 0 {
			absent := make(cq.Tuple, n)
			for i := range absent {
				absent[i] = "@absent"
			}
			if msg := compareProbability(orc, inst, mode, sc.Query, absent); msg != "" {
				fail(mode, "ExactProbability(absent) ≠ oracle: %s", msg)
				clean = false
			}
		}

		// (4) Exact per-fact marginals (the exact path behind the
		// approximate marginals endpoint).
		wantMarg, err := orc.Marginals(mode)
		if err != nil {
			return false, err
		}
		gotMarg, err := inst.FactMarginals(mode, 0)
		if err != nil {
			fail(mode, "FactMarginals error: %v", err)
			clean = false
		} else if msg := compareMarginals(wantMarg, gotMarg); msg != "" {
			fail(mode, "FactMarginals ≠ oracle: %s", msg)
			clean = false
		}
	}
	return clean, nil
}

func compareProbability(orc *oracle.Oracle, inst *ocqa.Instance, mode core.Mode, q *cq.Query, tup cq.Tuple) string {
	want, err := orc.Probability(mode, q, tup)
	if err != nil {
		return fmt.Sprintf("oracle error: %v", err)
	}
	got, err := inst.ExactProbability(mode, q, tup, 0)
	if err != nil {
		return fmt.Sprintf("engine error: %v", err)
	}
	if got.Cmp(want) != 0 {
		return fmt.Sprintf("tuple %v: engine %s, oracle %s", tup, got.RatString(), want.RatString())
	}
	return ""
}

func compareDistributions(db *ocqa.Database, want []oracle.Repair, got []core.RepairProb) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d repairs vs oracle's %d", len(got), len(want))
	}
	wantBy := make(map[string]*big.Rat, len(want))
	for _, rp := range want {
		wantBy[rp.Set.Key()] = rp.Prob
	}
	for _, rp := range got {
		w, ok := wantBy[rp.Repair.Key()]
		if !ok {
			return fmt.Sprintf("engine repair %v unreachable for the oracle", db.Restrict(rp.Repair))
		}
		if rp.Prob.Cmp(w) != 0 {
			return fmt.Sprintf("repair %v: engine %s, oracle %s",
				db.Restrict(rp.Repair), rp.Prob.RatString(), w.RatString())
		}
	}
	return ""
}

func compareAnswers(want []oracle.Answer, got []core.ConsistentAnswer) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d tuples vs oracle's %d", len(got), len(want))
	}
	// Both sides sort by tuple key.
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) {
			return fmt.Sprintf("tuple[%d] %v vs oracle's %v", i, got[i].Tuple, want[i].Tuple)
		}
		if got[i].Prob.Cmp(want[i].Prob) != 0 {
			return fmt.Sprintf("tuple %v: engine %s, oracle %s",
				got[i].Tuple, got[i].Prob.RatString(), want[i].Prob.RatString())
		}
	}
	return ""
}

func compareMarginals(want []*big.Rat, got []ocqa.FactMarginal) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d facts vs oracle's %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Prob.Cmp(want[i]) != 0 {
			return fmt.Sprintf("fact %v: engine %s, oracle %s",
				got[i].Fact, got[i].Prob.RatString(), want[i].RatString())
		}
	}
	return ""
}

// --- part 2: estimator (ε, δ) envelopes -----------------------------------

// estCase is one audited (instance, mode) pair with its oracle truth.
type estCase struct {
	sc   workload.Scenario
	mode core.Mode
}

func estimatorEnvelopes(cfg Config, rep *Report, logf func(string, ...any)) {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var cases []estCase
	for i := 0; i < cfg.EstScenarios; i++ {
		// Primary keys: every mode is FPRAS (Theorems 5.1(2), 6.1(2),
		// 7.1(2), E.1(2), E.8(2)).
		sc := workload.RandomScenario(rng, workload.ScenarioSpec{
			Class: fd.PrimaryKeys, Shape: workload.ShapeBlocks, AnswerVars: i%2 == 1,
		})
		for _, mode := range core.AllModes() {
			cases = append(cases, estCase{sc: sc, mode: mode})
		}
		// Keys: M^uo is FPRAS (Theorem 7.1(2)).
		sck := workload.RandomScenario(rng, workload.ScenarioSpec{Class: fd.Keys})
		cases = append(cases,
			estCase{sc: sck, mode: core.Mode{Gen: core.UniformOperations}},
			estCase{sc: sck, mode: core.Mode{Gen: core.UniformOperations, Singleton: true}})
		// General FDs: M^{uo,1} is the headline FPRAS beyond keys
		// (Theorem 7.5).
		scf := workload.RandomScenario(rng, workload.ScenarioSpec{Class: fd.GeneralFDs})
		cases = append(cases, estCase{sc: scf, mode: core.Mode{Gen: core.UniformOperations, Singleton: true}})
	}

	eps, delta := cfg.Epsilon, cfg.Delta
	for ci, ec := range cases {
		if len(rep.Failures) >= maxFailures {
			return
		}
		orc, err := oracle.NewWithBudget(ec.sc.DB, ec.sc.Sigma, cfg.Budget)
		if err != nil {
			continue
		}
		inst := ocqa.NewInstance(ec.sc.DB, ec.sc.Sigma)
		fail := func(format string, args ...any) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s\n  %s", fmt.Sprintf(format, args...), describe(ec.sc, ec.mode)))
		}

		// Single-target estimators against the Boolean (or first
		// present) tuple.
		tup := cq.Tuple{}
		ans, err := orc.Answers(ec.mode, ec.sc.Query)
		if err != nil {
			continue
		}
		if len(ec.sc.Query.AnswerVars) > 0 {
			if len(ans) == 0 {
				continue
			}
			tup = ans[0].Tuple
		}
		truth, err := orc.Probability(ec.mode, ec.sc.Query, tup)
		if err != nil {
			continue
		}
		p, _ := truth.Float64()
		// check counts one estimate against its truth: a positive
		// probability against the ε-envelope budget; a zero one can never
		// be hit by a draw from the exact repair distribution, so any
		// nonzero estimate is a soundness bug, not noise.
		check := func(what string, est, pt float64) {
			if pt == 0 {
				rep.EstZeroChecks++
				if est != 0 {
					fail("%s has probability 0 but estimate %v", what, est)
				}
				return
			}
			rep.EstRuns++
			if !within(est, pt, eps) {
				rep.EstMisses++
			}
		}
		// Under primary keys a Prepared answers stopping-rule M^ur and
		// M^{ur,1} by block factorization instead of the whole-instance
		// FPRAS the bare Instance runs; a cold Prepared's answers are
		// audited beside the Instance's, under the same budget.
		factorized := inst.Class() == fd.PrimaryKeys && ec.mode.Gen == core.UniformRepairs

		// The multiplicative guarantee (and the stopping rule's
		// termination) is stated for positive probabilities; the
		// factorized route answers a zero one exactly.
		for trial := 0; trial < cfg.EstTrials; trial++ {
			seed := cfg.Seed + int64(1000*ci+trial) + 17
			if p > 0 {
				for _, opts := range []ocqa.ApproxOptions{
					{Epsilon: eps, Delta: delta, Seed: seed},                    // DKLR stopping rule
					{Epsilon: eps, Delta: delta, Seed: seed, UseAA: true},       // 𝒜𝒜 optimal estimator
					{Epsilon: eps, Delta: delta, Seed: seed, UseChernoff: true}, // FPRAS fixed-sample construction
				} {
					est, err := inst.Approximate(noCtx, ec.mode, ec.sc.Query, tup, opts)
					if err != nil {
						fail("estimator error (opts %+v): %v", opts, err)
						continue
					}
					check(fmt.Sprintf("tuple %v", tup), est.Value, p)
				}
			}
			if factorized {
				opts := ocqa.ApproxOptions{Epsilon: eps, Delta: delta, Seed: seed}
				est, err := inst.PrepareLazy().Approximate(noCtx, ec.mode, ec.sc.Query, tup, opts)
				if err != nil {
					fail("cold Prepared estimator error (opts %+v): %v", opts, err)
					continue
				}
				check(fmt.Sprintf("cold Prepared, tuple %v", tup), est.Value, p)
			}
		}

		// The shared-draw multi-target pass, checked per tuple.
		if len(ans) > 0 && len(ec.sc.Query.AnswerVars) > 0 {
			truthBy := make(map[string]float64, len(ans))
			for _, a := range ans {
				truthBy[a.Tuple.Key()], _ = a.Prob.Float64()
			}
			checkPass := func(name string, ests []ocqa.ApproxAnswer, err error) {
				if err != nil {
					fail("%s error: %v", name, err)
					return
				}
				for _, a := range ests {
					pt, ok := truthBy[a.Tuple.Key()]
					if !ok {
						fail("%s produced tuple %v outside Q(D)", name, a.Tuple)
						continue
					}
					check(fmt.Sprintf("%s, tuple %v", name, a.Tuple), a.Estimate.Value, pt)
				}
			}
			for trial := 0; trial < cfg.EstTrials; trial++ {
				opts := ocqa.ApproxOptions{
					Epsilon: eps, Delta: delta,
					Seed:       cfg.Seed + int64(1000*ci+trial) + 41,
					MaxSamples: 200_000,
				}
				ests, err := inst.ApproximateAnswers(noCtx, ec.mode, ec.sc.Query, opts)
				checkPass("multi estimator", ests, err)
				if factorized {
					ests, err = inst.PrepareLazy().ApproximateAnswers(noCtx, ec.mode, ec.sc.Query, opts)
					checkPass("cold Prepared answers", ests, err)
				}
			}
		}
	}

	// Hold the pooled miss rate to the stated confidence: expected
	// misses ≤ δ·runs; allow 3σ of binomial noise so a sound estimator
	// fails with probability ≪ 1e-3 while a broken one (coverage below
	// 1−δ) exceeds the budget quickly.
	rep.EstAllowed = delta*float64(rep.EstRuns) + 3*math.Sqrt(delta*(1-delta)*float64(rep.EstRuns))
	logf("estimator envelopes: %d runs, %d misses (allowed %.1f)", rep.EstRuns, rep.EstMisses, rep.EstAllowed)
	if float64(rep.EstMisses) > rep.EstAllowed {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"estimator coverage below stated confidence: %d/%d misses exceed δ=%v budget %.1f",
			rep.EstMisses, rep.EstRuns, delta, rep.EstAllowed))
	}
}

// within reports whether est satisfies the multiplicative (ε, δ)
// envelope around p (a hair of float slack for the exact boundary).
func within(est, p, eps float64) bool {
	return math.Abs(est-p) <= eps*p*(1+1e-9)+1e-12
}

// --- part 3: durable store trace replay -----------------------------------

func storeTraces(cfg Config, rep *Report, logf func(string, ...any)) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	rotation := []workload.ScenarioSpec{
		{Class: fd.PrimaryKeys, Shape: workload.ShapeBlocks, AnswerVars: true},
		{Class: fd.GeneralFDs, Shape: workload.ShapeRandom},
		{Class: fd.Keys},
	}
	for j := 0; j < cfg.Traces && len(rep.Failures) < maxFailures; j++ {
		sc := workload.RandomScenario(rng, rotation[j%len(rotation)])
		if err := replayTrace(cfg, rep, rng, sc, j); err != nil {
			return err
		}
		rep.Traces++
	}
	logf("store replay: %d traces", rep.Traces)
	return nil
}

// replayTrace journals one random mutation trace through a fresh
// store, mirrors it through the facade's copy-on-write mutation path,
// then reopens the store and demands three-way agreement: live
// instance ≡ reloaded state ≡ fresh oracle.
func replayTrace(cfg Config, rep *Report, rng *rand.Rand, sc workload.Scenario, trace int) error {
	dir, err := os.MkdirTemp(cfg.TraceDir, "oracle-trace-")
	if err != nil {
		return fmt.Errorf("harness: trace dir: %w", err)
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("harness: opening store: %w", err)
	}
	const id = "i1"
	if err := st.LogRegister(id, "trace", time.Unix(0, 0), sc.DB, sc.Sigma); err != nil {
		return fmt.Errorf("harness: register: %w", err)
	}
	inst := ocqa.NewInstance(sc.DB, sc.Sigma)

	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("trace %d: %s\n  %s", trace, fmt.Sprintf(format, args...),
				describe(sc, core.Mode{})))
	}

	rels := sc.Schema.Relations()
	for k := 0; k < cfg.TraceOps; k++ {
		insert := inst.DB().Len() == 0 || (inst.DB().Len() < 9 && rng.Intn(2) == 0)
		if insert {
			f, ok := insertableFact(rng, inst, rels)
			if !ok {
				insert = false
			} else {
				ni, _, err := inst.InsertFact(f)
				if err != nil {
					fail("InsertFact(%v): %v", f, err)
					break
				}
				if err := st.LogInsertFact(id, f); err != nil {
					return fmt.Errorf("harness: journal insert: %w", err)
				}
				inst = ni
			}
		}
		if !insert && inst.DB().Len() > 0 {
			idx := rng.Intn(inst.DB().Len())
			ni, err := inst.DeleteFact(idx)
			if err != nil {
				fail("DeleteFact(%d): %v", idx, err)
				break
			}
			if err := st.LogDeleteFact(id, idx); err != nil {
				return fmt.Errorf("harness: journal delete: %w", err)
			}
			inst = ni
		}
		if k%9 == 8 {
			// Fold the prefix into a snapshot mid-trace so replay
			// crosses the snapshot/WAL boundary, not just the WAL.
			if err := st.Compact(); err != nil {
				return fmt.Errorf("harness: compact: %w", err)
			}
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("harness: closing store: %w", err)
	}

	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("harness: reopening store: %w", err)
	}
	defer st2.Close()
	var state *store.InstanceState
	for _, is := range st2.Instances() {
		if is.ID == id {
			state = is
		}
	}
	if state == nil {
		fail("instance missing after reload")
		return nil
	}
	if !state.DB.Equal(inst.DB()) {
		fail("reloaded database differs from the live instance:\nlive:\n%s\nreloaded:\n%s",
			parse.FormatDatabase(inst.DB()), parse.FormatDatabase(state.DB))
		return nil
	}

	orc, err := oracle.NewWithBudget(state.DB, state.Sigma, cfg.Budget)
	if err != nil {
		return nil // mutated past brute-force reach: DB equality above still verified
	}
	reloaded := ocqa.NewInstance(state.DB, state.Sigma)
	for _, mode := range core.AllModes() {
		want, err := orc.Marginals(mode)
		if err != nil {
			return nil
		}
		// The reloaded instance (fresh conflict structure) and the live
		// one (incrementally maintained through the whole trace) must
		// both match the oracle.
		for name, in := range map[string]*ocqa.Instance{"reloaded": reloaded, "live": inst} {
			got, err := in.FactMarginals(mode, 0)
			if err != nil {
				fail("%s FactMarginals %s: %v", name, mode.Symbol(), err)
				continue
			}
			if msg := compareMarginals(want, got); msg != "" {
				fail("%s FactMarginals %s ≠ oracle after replay: %s", name, mode.Symbol(), msg)
			}
		}
		tup := cq.Tuple(nil)
		if len(sc.Query.AnswerVars) == 0 {
			tup = cq.Tuple{}
		} else if ans, err := orc.Answers(mode, sc.Query); err == nil && len(ans) > 0 {
			tup = ans[0].Tuple
		}
		if tup != nil {
			if msg := compareProbability(orc, reloaded, mode, sc.Query, tup); msg != "" {
				fail("reloaded ExactProbability %s ≠ oracle after replay: %s", mode.Symbol(), msg)
			}
		}
	}
	return nil
}

// --- part 4: incremental-lineage (delta) traces ----------------------------

func deltaTraces(cfg Config, rep *Report, logf func(string, ...any)) {
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	// Primary keys under M^ur are the delta fast path (per-block factor
	// caching, stratified draw reuse); the Keys and general-FD entries
	// ride along to pin the fallback — a Prepared that cannot route
	// delta must still answer exactly like a cold instance.
	rotation := []workload.ScenarioSpec{
		{Class: fd.PrimaryKeys, Shape: workload.ShapeBlocks, AnswerVars: false},
		{Class: fd.PrimaryKeys, Shape: workload.ShapeBlocks, AnswerVars: true},
		{Class: fd.Keys},
		{Class: fd.GeneralFDs},
	}
	for j := 0; j < cfg.DeltaTraces && len(rep.Failures) < maxFailures; j++ {
		sc := workload.RandomScenario(rng, rotation[j%len(rotation)])
		deltaTrace(cfg, rep, rng, sc, j)
		rep.DeltaTraces++
	}
	rep.DeltaEstAllowed = cfg.Delta*float64(rep.DeltaEstRuns) +
		3*math.Sqrt(cfg.Delta*(1-cfg.Delta)*float64(rep.DeltaEstRuns))
	logf("delta traces: %d traces, %d mode checks, %d/%d estimate misses (allowed %.1f)",
		rep.DeltaTraces, rep.DeltaChecks, rep.DeltaEstMisses, rep.DeltaEstRuns, rep.DeltaEstAllowed)
	if float64(rep.DeltaEstMisses) > rep.DeltaEstAllowed {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"delta stratified coverage below stated confidence: %d/%d misses exceed δ=%v budget %.1f",
			rep.DeltaEstMisses, rep.DeltaEstRuns, cfg.Delta, rep.DeltaEstAllowed))
	}
}

// deltaTrace advances one Prepared lineage through random mutations via
// ApplyInsert/ApplyDelete — never rebuilding it — and after every
// mutation demands agreement with a cold from-scratch instance and the
// oracle (deltaStep). The lineage accumulates warm factor caches,
// witness images and draw strata across the whole trace, so a stale
// cache entry surfaces as a divergence at the step that exposes it.
func deltaTrace(cfg Config, rep *Report, rng *rand.Rand, sc workload.Scenario, trace int) {
	p := ocqa.NewInstance(sc.DB, sc.Sigma).PrepareLazy()
	rels := sc.Schema.Relations()
	for k := 0; k < cfg.DeltaOps && len(rep.Failures) < maxFailures; k++ {
		mutated := false
		insert := p.DB().Len() == 0 || (p.DB().Len() < 9 && rng.Intn(2) == 0)
		if insert {
			if f, ok := insertableFact(rng, p.Instance, rels); ok {
				np, _, err := p.ApplyInsert(f)
				if err != nil {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"delta trace %d: ApplyInsert(%v): %v\n  %s", trace, f, err, describe(sc, core.Mode{})))
					return
				}
				p, mutated = np, true
			} else {
				insert = false
			}
		}
		if !insert && p.DB().Len() > 0 {
			idx := rng.Intn(p.DB().Len())
			np, err := p.ApplyDelete(idx)
			if err != nil {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"delta trace %d: ApplyDelete(%d): %v\n  %s", trace, idx, err, describe(sc, core.Mode{})))
				return
			}
			p, mutated = np, true
		}
		if mutated {
			deltaStep(cfg, rep, p, sc, trace, int64(1000*trace+k))
		}
	}
}

// deltaStep demands three-way agreement at the lineage's current state:
// the warm Prepared (delta-routed where eligible), a cold instance on
// the same database, and the oracle — exact answers bitwise, warm
// stratified estimates inside the (ε, δ) envelope.
func deltaStep(cfg Config, rep *Report, p *ocqa.Prepared, sc workload.Scenario, trace int, estSalt int64) {
	db := p.DB()
	orc, err := oracle.NewWithBudget(db, sc.Sigma, cfg.Budget)
	if err != nil {
		return // mutated past brute-force reach; later steps may shrink back
	}
	cold := ocqa.NewInstance(db, sc.Sigma)
	fail := func(mode core.Mode, format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"delta trace %d: %s\n  mode=%s class=%v q=%q Σ=%s D:\n%s",
			trace, fmt.Sprintf(format, args...), mode.Symbol(), sc.Spec.Class,
			sc.Query.String(), sc.Sigma, parse.FormatDatabase(db)))
	}
	for _, mode := range core.AllModes() {
		wantAns, err := orc.Answers(mode, sc.Query)
		if err != nil {
			return
		}
		rep.DeltaChecks++

		gotAns, err := p.ConsistentAnswers(mode, sc.Query, 0)
		if err != nil {
			fail(mode, "warm ConsistentAnswers error: %v", err)
			continue
		}
		if msg := compareAnswers(wantAns, gotAns); msg != "" {
			fail(mode, "warm ConsistentAnswers ≠ oracle: %s", msg)
		}
		coldAns, err := cold.ConsistentAnswers(mode, sc.Query, 0)
		if err != nil {
			fail(mode, "cold ConsistentAnswers error: %v", err)
		} else if msg := compareAnswerLists(coldAns, gotAns); msg != "" {
			fail(mode, "warm ConsistentAnswers ≠ cold recomputation: %s", msg)
		}

		// Single-tuple exact probabilities through the delta-routed
		// facade: the present (or Boolean) tuple plus a certainly-absent
		// one, which exercises the zero-witness short-circuit.
		var tups []cq.Tuple
		if len(sc.Query.AnswerVars) == 0 {
			tups = append(tups, cq.Tuple{})
		} else {
			if len(wantAns) > 0 {
				tups = append(tups, wantAns[0].Tuple)
			}
			absent := make(cq.Tuple, len(sc.Query.AnswerVars))
			for i := range absent {
				absent[i] = "@absent"
			}
			tups = append(tups, absent)
		}
		for _, tup := range tups {
			want, err := orc.Probability(mode, sc.Query, tup)
			if err != nil {
				continue
			}
			got, err := p.ExactProbability(mode, sc.Query, tup, 0)
			if err != nil {
				fail(mode, "warm ExactProbability(%v) error: %v", tup, err)
				continue
			}
			if got.Cmp(want) != 0 {
				fail(mode, "warm ExactProbability ≠ oracle: tuple %v: warm %s, oracle %s",
					tup, got.RatString(), want.RatString())
			}
		}
	}

	// Warm stratified estimates under the delta-eligible modes must keep
	// the stated multiplicative envelope around oracle truth.
	if sc.Spec.Class != fd.PrimaryKeys {
		return // delta routing needs the primary-key product measure
	}
	for i, mode := range []core.Mode{{Gen: core.UniformRepairs}, {Gen: core.UniformRepairs, Singleton: true}} {
		tup := cq.Tuple{}
		if len(sc.Query.AnswerVars) > 0 {
			ans, err := orc.Answers(mode, sc.Query)
			if err != nil || len(ans) == 0 {
				continue
			}
			tup = ans[0].Tuple
		}
		truth, err := orc.Probability(mode, sc.Query, tup)
		if err != nil {
			continue
		}
		pt, _ := truth.Float64()
		if pt == 0 {
			continue
		}
		est, err := p.Approximate(noCtx, mode, sc.Query, tup, ocqa.ApproxOptions{
			Epsilon: cfg.Epsilon, Delta: cfg.Delta, Seed: cfg.Seed + 2*estSalt + int64(i) + 53,
		})
		if err != nil {
			fail(mode, "warm Approximate error: %v", err)
			continue
		}
		rep.DeltaEstRuns++
		if !within(est.Value, pt, cfg.Epsilon) {
			rep.DeltaEstMisses++
		}
	}
}

// compareAnswerLists compares two engine-produced answer lists (both
// sorted by tuple key) for bitwise big.Rat agreement.
func compareAnswerLists(want, got []core.ConsistentAnswer) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d tuples vs %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) {
			return fmt.Sprintf("tuple[%d] %v vs %v", i, got[i].Tuple, want[i].Tuple)
		}
		if got[i].Prob.Cmp(want[i].Prob) != 0 {
			return fmt.Sprintf("tuple %v: %s vs %s",
				got[i].Tuple, got[i].Prob.RatString(), want[i].Prob.RatString())
		}
	}
	return ""
}

// insertableFact draws a fact not yet in the instance whose insertion
// keeps the conflict structure within brute-force reach.
func insertableFact(rng *rand.Rand, inst *ocqa.Instance, rels []ocqa.Relation) (ocqa.Fact, bool) {
	db, sigma := inst.DB(), inst.Sigma()
	edges := len(sigma.ConflictPairs(db))
	for try := 0; try < 12; try++ {
		r := rels[rng.Intn(len(rels))]
		args := make([]string, r.Arity())
		for i := range args {
			args[i] = fmt.Sprintf("m%d", rng.Intn(4))
		}
		f := ocqa.Fact{Rel: r.Name, Args: args}
		if db.Contains(f) {
			continue
		}
		added := 0
		for _, g := range db.Facts() {
			if sigma.InConflict(f, g) {
				added++
			}
		}
		if edges+added > 8 {
			continue
		}
		return f, true
	}
	return ocqa.Fact{}, false
}

// noCtx is the harness's background context (estimators require one).
var noCtx = context.Background()
