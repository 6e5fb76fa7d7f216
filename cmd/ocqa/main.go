// Command ocqa answers conjunctive queries over inconsistent databases
// under the paper's uniform operational semantics.
//
// Usage:
//
//	ocqa -facts facts.txt -fds fds.txt -query "Ans(x) :- R(x,'v')" \
//	     [-generator ur|us|uo] [-singleton] [-mode exact|approx] \
//	     [-tuple "a,b"] [-eps 0.1] [-delta 0.05] [-seed 1] [-workers N] \
//	     [-force] [-limit N] [-explain]
//	ocqa -watch -server http://localhost:8080 -instance i1 \
//	     -query "Ans(x) :- R(x,'v')" [-watch-max N] [query flags as above]
//
// With -tuple, the probability of that single tuple is computed;
// otherwise every consistent answer is reported with its probability.
// Exact mode uses the ♯P-hard engines (bounded by -limit states);
// approx mode uses the paper's samplers and refuses generator /
// constraint-class pairs without an FPRAS unless -force is given.
// Approximate estimation is cancellable: an interrupt (Ctrl-C) stops
// the sampling loop within one chunk instead of draining its budget.
// -explain prints the pre-sampling plan (estimation route, worst-case
// draw budget for the requested (ε, δ), budget-capped verdict), then
// the recorded phase spans and the convergence curve after the run.
//
// With -watch the command becomes a long-poll client of a running
// ocqa-serve: it holds the query against the named server-side instance
// and prints the refreshed answer each time a fact mutation lands
// (served from the server's delta-refreshed cache when warm), until
// interrupted or -watch-max updates have been printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	ocqa "repro"
)

func main() {
	var (
		factsPath = flag.String("facts", "", "path to the facts file (R(a,b) per line)")
		fdsPath   = flag.String("fds", "", "path to the FD file (R: A1 -> A2 per line)")
		queryText = flag.String("query", "", "conjunctive query, e.g. \"Ans(x) :- R(x,'v')\"")
		tupleText = flag.String("tuple", "", "candidate answer tuple (omit to list all answers)")
		genName   = flag.String("generator", "ur", "Markov chain generator: ur, us or uo")
		singleton = flag.Bool("singleton", false, "restrict to singleton operations (M^{·,1})")
		mode      = flag.String("mode", "exact", "exact or approx")
		eps       = flag.Float64("eps", 0.1, "approx: multiplicative error ε")
		delta     = flag.Float64("delta", 0.05, "approx: failure probability δ")
		seed      = flag.Int64("seed", 1, "approx: random seed")
		workers   = flag.Int("workers", 0, "approx: parallel estimation workers, 0 = adaptive (deterministic per seed+workers)")
		force     = flag.Bool("force", false, "approx: sample even without an FPRAS guarantee")
		limit     = flag.Int("limit", 2_000_000, "exact: state budget (0 = unlimited)")
		explain   = flag.Bool("explain", false, "print the query plan, phase spans and convergence curve")
		watch     = flag.Bool("watch", false, "long-poll a running ocqa-serve, printing refreshed answers as mutations land")
		server    = flag.String("server", "http://localhost:8080", "watch: base URL of the ocqa-serve instance")
		instance  = flag.String("instance", "", "watch: server-side instance id (e.g. i1)")
		watchMax  = flag.Int("watch-max", 0, "watch: stop after N updates (0 = until interrupted)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *watch {
		if err := runWatch(ctx, watchParams{
			server: *server, instance: *instance, query: *queryText, tuple: *tupleText,
			generator: *genName, singleton: *singleton, mode: *mode,
			eps: *eps, delta: *delta, seed: *seed, workers: *workers,
			limit: *limit, force: *force, max: *watchMax, out: os.Stdout,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "ocqa:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(ctx, *factsPath, *fdsPath, *queryText, *tupleText, *genName,
		*singleton, *mode, *eps, *delta, *seed, *workers, *force, *limit, *explain); err != nil {
		fmt.Fprintln(os.Stderr, "ocqa:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, factsPath, fdsPath, queryText, tupleText, genName string,
	singleton bool, mode string, eps, delta float64, seed int64, workers int, force bool, limit int, explain bool) error {
	if factsPath == "" || fdsPath == "" || queryText == "" {
		return fmt.Errorf("need -facts, -fds and -query")
	}
	facts, err := os.ReadFile(factsPath)
	if err != nil {
		return err
	}
	fds, err := os.ReadFile(fdsPath)
	if err != nil {
		return err
	}
	inst, err := ocqa.NewInstanceFromText(string(facts), string(fds))
	if err != nil {
		return err
	}
	q, err := ocqa.ParseQuery(queryText)
	if err != nil {
		return err
	}

	var gen ocqa.Generator
	switch genName {
	case "ur":
		gen = ocqa.UniformRepairs
	case "us":
		gen = ocqa.UniformSequences
	case "uo":
		gen = ocqa.UniformOperations
	default:
		return fmt.Errorf("unknown generator %q (want ur, us or uo)", genName)
	}
	m := ocqa.Mode{Gen: gen, Singleton: singleton}

	fmt.Printf("database: %d facts, Σ: %s (%v)\n", inst.DB().Len(), inst.Sigma(), inst.Class())
	fmt.Printf("generator: %s (%s)\n", m.Symbol(), m)
	if inst.IsConsistent() {
		fmt.Println("database is consistent: probabilities are 0/1 query answers")
	}
	status, cite := ocqa.Approximability(m, inst.Class())
	fmt.Printf("approximability: %v [%s]\n", status, cite)

	switch mode {
	case "exact":
		if tupleText != "" || len(q.AnswerVars) == 0 {
			c := ocqa.ParseTuple(tupleText)
			if explain {
				printPlan(ocqa.PlanExact(1))
			}
			p, err := inst.ExactProbability(m, q, c, limit)
			if err != nil {
				return fmt.Errorf("exact computation failed (%v); try -mode approx", err)
			}
			f, _ := p.Float64()
			fmt.Printf("P[%s%v] = %s ≈ %.6f\n", q, c, p.RatString(), f)
			return nil
		}
		answers, err := inst.ConsistentAnswers(m, q, limit)
		if err != nil {
			return fmt.Errorf("exact computation failed (%v); try -mode approx", err)
		}
		if explain {
			printPlan(ocqa.PlanExact(len(answers)))
		}
		for _, a := range answers {
			f, _ := a.Prob.Float64()
			fmt.Printf("  %v  %s ≈ %.6f\n", a.Tuple, a.Prob.RatString(), f)
		}
		return nil
	case "approx":
		opts := ocqa.ApproxOptions{Epsilon: eps, Delta: delta, Seed: seed, Workers: workers, Force: force}
		single := tupleText != "" || len(q.AnswerVars) == 0
		var tr *ocqa.Trace
		var plan ocqa.QueryPlan
		if explain {
			// The plan prints before any sampling: the routing decision
			// and the worst-case budget are pre-run facts, so an operator
			// can abort a hopeless (ε, δ) before paying for it.
			var err error
			plan, err = inst.PlanApproximate(m, q, single, opts)
			if err != nil {
				return err
			}
			printPlan(plan)
			tr = ocqa.NewTrace()
			ctx = ocqa.ContextWithTrace(ctx, tr)
		}
		if single {
			c := ocqa.ParseTuple(tupleText)
			est, err := inst.Approximate(ctx, m, q, c, opts)
			if err != nil {
				return err
			}
			fmt.Printf("P[%s%v] ≈ %.6f (ε=%.3g, δ=%.3g, %d samples, converged=%v)\n",
				q, c, est.Value, est.Epsilon, est.Delta, est.Samples, est.Converged)
			printCost(est.Acct)
			if explain {
				printTrace(tr, plan, est.Acct.Draws)
			}
			return nil
		}
		answers, acct, err := inst.ApproximateAnswersAcct(ctx, m, q, opts)
		if err != nil {
			return err
		}
		for _, a := range answers {
			fmt.Printf("  %v  ≈ %.6f (%d samples)\n", a.Tuple, a.Estimate.Value, a.Estimate.Samples)
		}
		printCost(acct)
		if explain {
			printTrace(tr, plan, acct.Draws)
		}
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want exact or approx)", mode)
	}
}

// printPlan renders the pre-run routing decision and draw budget.
func printPlan(plan ocqa.QueryPlan) {
	fmt.Printf("plan: route=%s targets=%d", plan.Route, plan.Targets)
	if plan.Blocks >= 0 {
		fmt.Printf(" blocks=%d", plan.Blocks)
	}
	if plan.Route != ocqa.RouteExactDP {
		fmt.Printf(" pmin=%.3g required=%d predicted=%d",
			plan.PMin, plan.RequiredDraws, plan.PredictedDraws)
		if plan.BudgetCapped {
			fmt.Printf(" BUDGET-CAPPED (cap %d cannot guarantee ε=%.3g, δ=%.3g)",
				plan.MaxSamples, plan.Epsilon, plan.Delta)
		}
	}
	fmt.Println()
}

// printTrace renders the run's phase spans and a decimated view of its
// convergence curve, closing with predicted-vs-actual draws.
func printTrace(tr *ocqa.Trace, plan ocqa.QueryPlan, actual int64) {
	if spans := tr.Spans(); len(spans) > 0 {
		fmt.Println("spans:")
		for _, sp := range spans {
			fmt.Printf("  %-16s %10.3fms  (at +%.3fms)\n",
				sp.Name, float64(sp.EndNanos-sp.StartNanos)/1e6, float64(sp.StartNanos)/1e6)
		}
	}
	if curve := tr.Curve(); len(curve) > 0 {
		// The engine already bounds the curve; keep the terminal view to
		// ~16 lines and always include the last point.
		step := (len(curve) + 15) / 16
		fmt.Println("convergence:")
		for i := 0; i < len(curve); i += step {
			cp := curve[i]
			if i+step >= len(curve) {
				cp = curve[len(curve)-1]
			}
			fmt.Printf("  %10d draws  est=%.6f  ±%.4f", cp.Draws, cp.Value, cp.HalfWidth)
			if cp.Open > 0 {
				fmt.Printf("  open=%d", cp.Open)
			}
			fmt.Println()
		}
	}
	fmt.Printf("plan check: predicted %d draws, actual %d\n", plan.PredictedDraws, actual)
}

// printCost reports the estimation's own accounting: total draws
// (discarded parallel tails included), fan-out and wall time.
func printCost(a ocqa.Accounting) {
	if a.Draws == 0 {
		return
	}
	cancelled := ""
	if a.Cancelled {
		cancelled = ", cancelled"
	}
	fmt.Printf("cost: %d draws across %d worker(s) in %v%s\n",
		a.Draws, a.Workers, a.Wall().Round(time.Microsecond), cancelled)
}
