package ocqa_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	ocqa "repro"
)

// The facade golden grid pins, bit for bit, what the public estimation,
// exact and counting methods return on two primary-key fixtures: each
// estimate's Value (as math.Float64bits), Samples, Acct.Draws and
// Converged, every exact rational and every count. It covers
//   - M^ur and M^{ur,1} on the block-factorized routes, delta-exact and
//     delta-stratified, cold and along an ApplyInsert/ApplyDelete
//     lineage;
//   - M^us, M^{us,1}, M^uo and M^{uo,1} single-target, answers and
//     marginals;
//   - the 𝒜𝒜 and Chernoff constructions under every generator;
//   - workers 1 and 2;
//   - exact probabilities, consistent answers and both counts.
//
// The table was recorded from a Prepare()d instance before Prepared
// was folded into Instance; a never-prepared instance must reproduce it
// too. Cells run in a fixed order on one instance per fixture, so the
// stratum statistics a cell leaves behind are part of the next cell's
// input.

// goldenSmallFacts: key blocks {Alice, Tom, Bob}, {Bob} and {Carol, Dan}.
const goldenSmallFacts = "Emp(1,Alice)\nEmp(1,Tom)\nEmp(1,Bob)\nEmp(2,Bob)\nEmp(3,Carol)\nEmp(3,Dan)"

// goldenStratFacts: two 65-fact key blocks over the same 65 values plus
// two conflict-free T facts. A query joining the blocks on the value has
// 65 witness images over 66² (pairwise) or 65² (singleton) outcomes —
// past the 4,096-outcome enumeration cap, hence one sampled stratum —
// while a cross product of the blocks has 65² images, past the 4,096-image
// cap, so it keeps the whole-instance stopping rule.
func goldenStratFacts() string {
	var b strings.Builder
	for blk := 0; blk < 2; blk++ {
		for i := 0; i < 65; i++ {
			fmt.Fprintf(&b, "R(b%d,v%d)\n", blk, i)
		}
	}
	b.WriteString("T(t1)\nT(t2)\n")
	return b.String()
}

func goldenEstimate(e ocqa.Estimate) string {
	return fmt.Sprintf("%016x %d %d %t", math.Float64bits(e.Value), e.Samples, e.Acct.Draws, e.Converged)
}

func goldenAnswers(as []ocqa.ApproxAnswer) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.Tuple.Key() + "=" + goldenEstimate(a.Estimate)
	}
	return strings.Join(parts, ";")
}

func goldenDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenIndex returns the index of the fact with the given text.
func goldenIndex(t *testing.T, p *ocqa.Prepared, text string) int {
	t.Helper()
	for i := 0; i < p.DB().Len(); i++ {
		if ocqa.FormatFact(p.DB().Fact(i)) == text {
			return i
		}
	}
	t.Fatalf("fact %s not in the instance", text)
	return -1
}

// facadeGoldenGrid runs every cell against instances built by build and
// returns each cell's rendering.
func facadeGoldenGrid(t *testing.T, build func(*ocqa.Instance) *ocqa.Prepared) map[string]string {
	t.Helper()
	ctx := context.Background()
	cells := make(map[string]string)
	set := func(name, v string, err error) {
		if err != nil {
			v += " err=" + err.Error()
		}
		cells[name] = v
	}
	modes := []ocqa.Mode{
		{Gen: ocqa.UniformRepairs}, {Gen: ocqa.UniformRepairs, Singleton: true},
		{Gen: ocqa.UniformSequences}, {Gen: ocqa.UniformSequences, Singleton: true},
		{Gen: ocqa.UniformOperations}, {Gen: ocqa.UniformOperations, Singleton: true},
	}
	urModes := modes[:2]
	q := mustQuery(t, "Ans(n) :- Emp(i, n)")
	coupled := mustQuery(t, "Ans() :- Emp('1', x), Emp('3', y)")
	tom := ocqa.Tuple{"Tom"}

	small := build(mustInstance(t, goldenSmallFacts, "Emp: A1 -> A2"))
	for _, w := range []int{1, 2} {
		for _, m := range modes {
			pre := fmt.Sprintf("small/w%d/%s/", w, m.Symbol())
			e, err := small.Approximate(ctx, m, q, tom, ocqa.ApproxOptions{Seed: 11, Workers: w})
			set(pre+"single", goldenEstimate(e), err)
			as, err := small.ApproximateAnswers(ctx, m, q, ocqa.ApproxOptions{Seed: 13, Workers: w})
			set(pre+"answers", goldenAnswers(as), err)
			vals, acct, err := small.ApproximateFactMarginalsAcct(ctx, m, ocqa.ApproxOptions{Seed: 17, MaxSamples: 3000, Workers: w})
			set(pre+"marginals", fmt.Sprintf("%v %d", vals, acct.Draws), err)
			e, err = small.Approximate(ctx, m, q, tom, ocqa.ApproxOptions{Seed: 19, UseAA: true, Workers: w})
			set(pre+"aa", goldenEstimate(e), err)
			as, err = small.ApproximateAnswers(ctx, m, q, ocqa.ApproxOptions{Seed: 21, UseAA: true, Workers: w})
			set(pre+"answers-aa", goldenAnswers(as), err)
			chernoff := ocqa.ApproxOptions{Epsilon: 0.25, Delta: 0.1, Seed: 23, UseChernoff: true, Workers: w}
			e, err = small.Approximate(ctx, m, q, tom, chernoff)
			set(pre+"chernoff", goldenEstimate(e), err)
			as, err = small.ApproximateAnswers(ctx, m, q, chernoff)
			set(pre+"answers-chernoff", goldenAnswers(as), err)
		}
		for _, m := range urModes {
			e, err := small.Approximate(ctx, m, coupled, ocqa.Tuple{}, ocqa.ApproxOptions{Seed: 25, Workers: w})
			set(fmt.Sprintf("small/w%d/%s/coupled", w, m.Symbol()), goldenEstimate(e), err)
		}
	}
	exact := func(pre string, p *ocqa.Prepared, ms []ocqa.Mode) {
		for _, m := range ms {
			r, err := p.ExactProbability(m, q, tom, 0)
			v := ""
			if err == nil {
				v = r.RatString()
			}
			set(pre+m.Symbol()+"/prob", v, err)
			ca, err := p.ConsistentAnswers(m, q, 0)
			var parts []string
			for _, a := range ca {
				parts = append(parts, a.Tuple.Key()+"="+a.Prob.RatString())
			}
			set(pre+m.Symbol()+"/answers", strings.Join(parts, ";"), err)
		}
	}
	exact("small/exact/", small, modes)
	for _, singleton := range []bool{false, true} {
		set(fmt.Sprintf("small/count/repairs/%t", singleton), small.CountRepairs(singleton).String(), nil)
		n, err := small.CountSequences(singleton, 0)
		v := ""
		if err == nil {
			v = n.String()
		}
		set(fmt.Sprintf("small/count/sequences/%t", singleton), v, err)
	}

	// The small fixture's lineage: insert into block 3, then delete
	// from block 1.
	gen1, _, err := small.ApplyInsert(mustFact(t, "Emp(3,Eve)"))
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := gen1.ApplyDelete(goldenIndex(t, gen1, "Emp(1,Alice)"))
	if err != nil {
		t.Fatal(err)
	}
	for g, p := range []*ocqa.Prepared{gen1, gen2} {
		for _, w := range []int{1, 2} {
			for _, m := range urModes {
				pre := fmt.Sprintf("small/gen%d/w%d/%s/", g+1, w, m.Symbol())
				e, err := p.Approximate(ctx, m, q, tom, ocqa.ApproxOptions{Seed: 27, Workers: w})
				set(pre+"single", goldenEstimate(e), err)
				as, err := p.ApproximateAnswers(ctx, m, q, ocqa.ApproxOptions{Seed: 29, Workers: w})
				set(pre+"answers", goldenAnswers(as), err)
			}
		}
		exact(fmt.Sprintf("small/gen%d/exact/", g+1), p, urModes)
	}

	// The stratified fixture, one fresh instance per worker count: cold
	// cells draw the stratum, the lineage reuses it across an unrelated
	// insert and redraws it after an insert into (then a delete from) a
	// coupled block.
	boolQ := mustQuery(t, "Ans() :- R('b0', x), R('b1', x)")
	ansQ := mustQuery(t, "Ans(z) :- R('b0', x), R('b1', x), T(z)")
	crossQ := mustQuery(t, "Ans() :- R('b0', x), R('b1', y)")
	for _, w := range []int{1, 2} {
		p := build(mustInstance(t, goldenStratFacts(), "R: A1 -> A2"))
		opts := ocqa.ApproxOptions{Epsilon: 0.3, Delta: 0.2, Seed: 31, Workers: w}
		step := func(gen string) {
			for _, m := range urModes {
				pre := fmt.Sprintf("strat/w%d/%s/%s/", w, gen, m.Symbol())
				e, err := p.Approximate(ctx, m, boolQ, ocqa.Tuple{}, opts)
				set(pre+"single", goldenEstimate(e)+fmt.Sprintf(" reused=%d", e.Acct.ReusedDraws), err)
				as, err := p.ApproximateAnswers(ctx, m, ansQ, opts)
				set(pre+"answers", goldenAnswers(as), err)
				e, err = p.Approximate(ctx, m, crossQ, ocqa.Tuple{}, opts)
				set(pre+"cross", goldenEstimate(e), err)
			}
		}
		step("cold")
		var err error
		if p, _, err = p.ApplyInsert(mustFact(t, "R(zz,w)")); err != nil {
			t.Fatal(err)
		}
		step("unrelated")
		if p, _, err = p.ApplyInsert(mustFact(t, "R(b0,v65)")); err != nil {
			t.Fatal(err)
		}
		step("touched")
		if p, err = p.ApplyDelete(goldenIndex(t, p, "R(b0,v65)")); err != nil {
			t.Fatal(err)
		}
		step("restored")
	}
	return cells
}

func TestFacadeGoldenGrid(t *testing.T) {
	for name, build := range map[string]func(*ocqa.Instance) *ocqa.Prepared{
		"never-prepared": func(in *ocqa.Instance) *ocqa.Prepared { return in },
		"prepared":       (*ocqa.Instance).Prepare,
	} {
		t.Run(name, func(t *testing.T) {
			got := facadeGoldenGrid(t, build)
			if len(got) != len(facadeGoldenTable) {
				t.Errorf("grid has %d cells, table %d", len(got), len(facadeGoldenTable))
			}
			for cell, v := range got {
				if d := goldenDigest(v); d != facadeGoldenTable[cell] {
					t.Errorf("%s: digest %s, want %s (%s)", cell, d, facadeGoldenTable[cell], v)
				}
			}
		})
	}
}

// facadeGoldenTable holds each cell's FNV-64a digest of its rendering.
var facadeGoldenTable = map[string]string{
	"small/count/repairs/false":         "07f89407b4ba0c0a",
	"small/count/repairs/true":          "af63ab4c86019949",
	"small/count/sequences/false":       "08140b07b4d19df7",
	"small/count/sequences/true":        "07ff8007b4c008bc",
	"small/exact/M^uo,1/answers":        "8d980b2197a73a84",
	"small/exact/M^uo,1/prob":           "4580c2181831380e",
	"small/exact/M^uo/answers":          "7cfbd77cb3e2f67e",
	"small/exact/M^uo/prob":             "9a1a80d037ccc5c4",
	"small/exact/M^ur,1/answers":        "8d980b2197a73a84",
	"small/exact/M^ur,1/prob":           "4580c2181831380e",
	"small/exact/M^ur/answers":          "d3f0282ae5ceff54",
	"small/exact/M^ur/prob":             "4580c51818313d27",
	"small/exact/M^us,1/answers":        "8d980b2197a73a84",
	"small/exact/M^us,1/prob":           "4580c2181831380e",
	"small/exact/M^us/answers":          "11e6a8c8f1669742",
	"small/exact/M^us/prob":             "6a8fd43d8d85c566",
	"small/gen1/exact/M^ur,1/answers":   "f4d0b4eee6962061",
	"small/gen1/exact/M^ur,1/prob":      "4580c2181831380e",
	"small/gen1/exact/M^ur/answers":     "26629325f654fa84",
	"small/gen1/exact/M^ur/prob":        "4580c51818313d27",
	"small/gen1/w1/M^ur,1/answers":      "a7234aeae5be5c07",
	"small/gen1/w1/M^ur,1/single":       "30bf249b0da5b736",
	"small/gen1/w1/M^ur/answers":        "2940b47ff3f23595",
	"small/gen1/w1/M^ur/single":         "8e73f3c038273f60",
	"small/gen1/w2/M^ur,1/answers":      "a7234aeae5be5c07",
	"small/gen1/w2/M^ur,1/single":       "30bf249b0da5b736",
	"small/gen1/w2/M^ur/answers":        "2940b47ff3f23595",
	"small/gen1/w2/M^ur/single":         "8e73f3c038273f60",
	"small/gen2/exact/M^ur,1/answers":   "2f0214f9c8d09259",
	"small/gen2/exact/M^ur,1/prob":      "4580c318183139c1",
	"small/gen2/exact/M^ur/answers":     "2bde9fbaae4327db",
	"small/gen2/exact/M^ur/prob":        "4580c2181831380e",
	"small/gen2/w1/M^ur,1/answers":      "9538e9d6a94beddd",
	"small/gen2/w1/M^ur,1/single":       "9eb0e62fd6e9c8ff",
	"small/gen2/w1/M^ur/answers":        "96c0068d978e4902",
	"small/gen2/w1/M^ur/single":         "30bf249b0da5b736",
	"small/gen2/w2/M^ur,1/answers":      "9538e9d6a94beddd",
	"small/gen2/w2/M^ur,1/single":       "9eb0e62fd6e9c8ff",
	"small/gen2/w2/M^ur/answers":        "96c0068d978e4902",
	"small/gen2/w2/M^ur/single":         "30bf249b0da5b736",
	"small/w1/M^uo,1/aa":                "30770410674d7881",
	"small/w1/M^uo,1/answers":           "b50fea394ad0a7a1",
	"small/w1/M^uo,1/answers-aa":        "a09d63013a8ae3de",
	"small/w1/M^uo,1/answers-chernoff":  "2c7933596faa924b",
	"small/w1/M^uo,1/chernoff":          "1c157af7df81c603",
	"small/w1/M^uo,1/marginals":         "7d97ed9e225fda29",
	"small/w1/M^uo,1/single":            "dd791e20fe431409",
	"small/w1/M^uo/aa":                  "d09a57aee8d68a52",
	"small/w1/M^uo/answers":             "dc96409ad3961e6b",
	"small/w1/M^uo/answers-aa":          "5f4f990bf1ea78c6",
	"small/w1/M^uo/answers-chernoff":    "be4a43b25ef74979",
	"small/w1/M^uo/chernoff":            "9ee133d3310263c9",
	"small/w1/M^uo/marginals":           "248c4ebe69e29b24",
	"small/w1/M^uo/single":              "b79304533c93e150",
	"small/w1/M^ur,1/aa":                "f6425ba5516d50c5",
	"small/w1/M^ur,1/answers":           "e09207cad8be1776",
	"small/w1/M^ur,1/answers-aa":        "b6e8ee39626b203e",
	"small/w1/M^ur,1/answers-chernoff":  "4dd42c524b193b41",
	"small/w1/M^ur,1/chernoff":          "b1989db8871e3a18",
	"small/w1/M^ur,1/coupled":           "550ff9637295d812",
	"small/w1/M^ur,1/marginals":         "8314e6c287311108",
	"small/w1/M^ur,1/single":            "30bf249b0da5b736",
	"small/w1/M^ur/aa":                  "d6964232f5d543d0",
	"small/w1/M^ur/answers":             "1b85a6d63bd528a6",
	"small/w1/M^ur/answers-aa":          "94be427771efbdf2",
	"small/w1/M^ur/answers-chernoff":    "ddac0b1c03f9788d",
	"small/w1/M^ur/chernoff":            "81edb8f723e91254",
	"small/w1/M^ur/coupled":             "9eb0e62fd6e9c8ff",
	"small/w1/M^ur/marginals":           "26d97a8428fecf5b",
	"small/w1/M^ur/single":              "8e73f3c038273f60",
	"small/w1/M^us,1/aa":                "b7c04a2c9be98019",
	"small/w1/M^us,1/answers":           "c4f012075a77d049",
	"small/w1/M^us,1/answers-aa":        "6549f72abda44240",
	"small/w1/M^us,1/answers-chernoff":  "4c49495203305010",
	"small/w1/M^us,1/chernoff":          "2f1ef6072675619f",
	"small/w1/M^us,1/marginals":         "f9acde2b79712413",
	"small/w1/M^us,1/single":            "831719bb5f13c51d",
	"small/w1/M^us/aa":                  "3604a0667374298e",
	"small/w1/M^us/answers":             "4122009428104f9e",
	"small/w1/M^us/answers-aa":          "56f6e9270f568550",
	"small/w1/M^us/answers-chernoff":    "71bde83f441e706f",
	"small/w1/M^us/chernoff":            "bc30de06b0c8d182",
	"small/w1/M^us/marginals":           "f98580ea48896f63",
	"small/w1/M^us/single":              "86faa226c4ccb2c7",
	"small/w2/M^uo,1/aa":                "30770410674d7881",
	"small/w2/M^uo,1/answers":           "72575fea03526051",
	"small/w2/M^uo,1/answers-aa":        "a09d63013a8ae3de",
	"small/w2/M^uo,1/answers-chernoff":  "98f340758301365e",
	"small/w2/M^uo,1/chernoff":          "b1989db8871e3a18",
	"small/w2/M^uo,1/marginals":         "2d85b54817946ca4",
	"small/w2/M^uo,1/single":            "52aae07878384f41",
	"small/w2/M^uo/aa":                  "d09a57aee8d68a52",
	"small/w2/M^uo/answers":             "d33afd2c1d07d2b6",
	"small/w2/M^uo/answers-aa":          "5f4f990bf1ea78c6",
	"small/w2/M^uo/answers-chernoff":    "4a3557a8a531b164",
	"small/w2/M^uo/chernoff":            "2124d34e955b7ab9",
	"small/w2/M^uo/marginals":           "7217f20ffc140272",
	"small/w2/M^uo/single":              "4f2d7cc65191d4c7",
	"small/w2/M^ur,1/aa":                "f6425ba5516d50c5",
	"small/w2/M^ur,1/answers":           "e09207cad8be1776",
	"small/w2/M^ur,1/answers-aa":        "b6e8ee39626b203e",
	"small/w2/M^ur,1/answers-chernoff":  "a090da40e12494ab",
	"small/w2/M^ur,1/chernoff":          "a187d87538868673",
	"small/w2/M^ur,1/coupled":           "550ff9637295d812",
	"small/w2/M^ur,1/marginals":         "a07a8a0fef34b942",
	"small/w2/M^ur,1/single":            "30bf249b0da5b736",
	"small/w2/M^ur/aa":                  "d6964232f5d543d0",
	"small/w2/M^ur/answers":             "1b85a6d63bd528a6",
	"small/w2/M^ur/answers-aa":          "94be427771efbdf2",
	"small/w2/M^ur/answers-chernoff":    "9fd269e98fdaeb38",
	"small/w2/M^ur/chernoff":            "dc2f9542a10b07bc",
	"small/w2/M^ur/coupled":             "9eb0e62fd6e9c8ff",
	"small/w2/M^ur/marginals":           "1e45ea098d596e70",
	"small/w2/M^ur/single":              "8e73f3c038273f60",
	"small/w2/M^us,1/aa":                "b7c04a2c9be98019",
	"small/w2/M^us,1/answers":           "d4ca7f216f0c4149",
	"small/w2/M^us,1/answers-aa":        "6549f72abda44240",
	"small/w2/M^us,1/answers-chernoff":  "4c19efdf98ffa183",
	"small/w2/M^us,1/chernoff":          "6f67741b53a9d013",
	"small/w2/M^us,1/marginals":         "d01e369a88defe63",
	"small/w2/M^us,1/single":            "8fee62c7d72ee12e",
	"small/w2/M^us/aa":                  "3604a0667374298e",
	"small/w2/M^us/answers":             "1ab3b8655a2ae675",
	"small/w2/M^us/answers-aa":          "56f6e9270f568550",
	"small/w2/M^us/answers-chernoff":    "5a74dff62eb8b787",
	"small/w2/M^us/chernoff":            "c25ae23c6b718de7",
	"small/w2/M^us/marginals":           "12539baf2e648aee",
	"small/w2/M^us/single":              "b44a1e7cf91d7474",
	"strat/w1/cold/M^ur,1/answers":      "02d58b87fd2577e7",
	"strat/w1/cold/M^ur,1/cross":        "d73f9ce53a23932f",
	"strat/w1/cold/M^ur,1/single":       "a011b288ccf1dfac",
	"strat/w1/cold/M^ur/answers":        "5c9cd49c2e51734d",
	"strat/w1/cold/M^ur/cross":          "d73f9ce53a23932f",
	"strat/w1/cold/M^ur/single":         "a47bff5f9a1fb6aa",
	"strat/w1/restored/M^ur,1/answers":  "c1a8ceb3ffed7647",
	"strat/w1/restored/M^ur,1/cross":    "d73f9ce53a23932f",
	"strat/w1/restored/M^ur,1/single":   "52c6acf007e27704",
	"strat/w1/restored/M^ur/answers":    "16557e5cd92190a7",
	"strat/w1/restored/M^ur/cross":      "d73f9ce53a23932f",
	"strat/w1/restored/M^ur/single":     "f751c16848695acd",
	"strat/w1/touched/M^ur,1/answers":   "f21fafcafc912c4d",
	"strat/w1/touched/M^ur,1/cross":     "d73f9ce53a23932f",
	"strat/w1/touched/M^ur,1/single":    "4f9e90f861c9f3ad",
	"strat/w1/touched/M^ur/answers":     "803c811cf18bfbcf",
	"strat/w1/touched/M^ur/cross":       "2c30ecc560e1c7b6",
	"strat/w1/touched/M^ur/single":      "b3035c1c54f0782f",
	"strat/w1/unrelated/M^ur,1/answers": "c1a8ceb3ffed7647",
	"strat/w1/unrelated/M^ur,1/cross":   "d73f9ce53a23932f",
	"strat/w1/unrelated/M^ur,1/single":  "52c6acf007e27704",
	"strat/w1/unrelated/M^ur/answers":   "16557e5cd92190a7",
	"strat/w1/unrelated/M^ur/cross":     "d73f9ce53a23932f",
	"strat/w1/unrelated/M^ur/single":    "f751c16848695acd",
	"strat/w2/cold/M^ur,1/answers":      "02d58b87fd2577e7",
	"strat/w2/cold/M^ur,1/cross":        "de83b455f0964759",
	"strat/w2/cold/M^ur,1/single":       "a011b288ccf1dfac",
	"strat/w2/cold/M^ur/answers":        "5c9cd49c2e51734d",
	"strat/w2/cold/M^ur/cross":          "de83b455f0964759",
	"strat/w2/cold/M^ur/single":         "a47bff5f9a1fb6aa",
	"strat/w2/restored/M^ur,1/answers":  "c1a8ceb3ffed7647",
	"strat/w2/restored/M^ur,1/cross":    "de83b455f0964759",
	"strat/w2/restored/M^ur,1/single":   "52c6acf007e27704",
	"strat/w2/restored/M^ur/answers":    "16557e5cd92190a7",
	"strat/w2/restored/M^ur/cross":      "de83b455f0964759",
	"strat/w2/restored/M^ur/single":     "f751c16848695acd",
	"strat/w2/touched/M^ur,1/answers":   "f21fafcafc912c4d",
	"strat/w2/touched/M^ur,1/cross":     "de83b455f0964759",
	"strat/w2/touched/M^ur,1/single":    "4f9e90f861c9f3ad",
	"strat/w2/touched/M^ur/answers":     "803c811cf18bfbcf",
	"strat/w2/touched/M^ur/cross":       "097aa51919444d08",
	"strat/w2/touched/M^ur/single":      "b3035c1c54f0782f",
	"strat/w2/unrelated/M^ur,1/answers": "c1a8ceb3ffed7647",
	"strat/w2/unrelated/M^ur,1/cross":   "de83b455f0964759",
	"strat/w2/unrelated/M^ur,1/single":  "52c6acf007e27704",
	"strat/w2/unrelated/M^ur/answers":   "16557e5cd92190a7",
	"strat/w2/unrelated/M^ur/cross":     "de83b455f0964759",
	"strat/w2/unrelated/M^ur/single":    "f751c16848695acd",
}
