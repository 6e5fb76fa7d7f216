package main

// The -check mode: the bench regression gate. Given a baseline
// BENCH_*.json, it reruns the suite the baseline names and compares
// result-for-result, failing (non-zero exit) when any benchmark's
// ns_per_op grew — or its draws/sec shrank — by more than the suite's
// tolerance band (15% for the micro-benchmark suites, 40% for the
// macro-scale suite whose seconds-long ops carry more host noise). The
// companion -check-selftest mode proves the gate itself works without
// rerunning any benchmark: the baseline must pass against itself and
// must FAIL against a copy slowed 5 points past the band, so CI
// notices if the comparison logic ever stops going red.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// regressionTolerance is the fractional slowdown allowed before the
// gate fails: 15%, wide enough to absorb shared-runner timing noise,
// narrow enough to catch a real regression (the selftest perturbs
// safely outside the active band).
const regressionTolerance = 0.15

// scaleTolerance is the wall-time band for the scale suite: its ops
// run for seconds at a million facts, so testing.Benchmark fits only a
// handful of iterations and shared-host CPU throughput alone swings
// the mean by tens of percent between runs — a 15% band would flake on
// noise. The suite's deterministic size metric (bytes/fact) is still
// held to the default band.
const scaleTolerance = 0.40

// suiteTolerance returns the fractional slowdown allowed for a suite's
// wall-time comparisons (ns/op and draws/sec).
func suiteTolerance(suite string) float64 {
	if suite == "scale" {
		return scaleTolerance
	}
	return regressionTolerance
}

// genericBenchFile is the suite-agnostic view of a trajectory file:
// the fields the gate compares, whichever suite wrote them. Draw
// counts are per benchmark op — Draws for every engine-suite result,
// BaselineDraws/SharedDraws for the answers-suite results they
// describe — and zero means "this result performs no draws", which
// skips the draws/sec check.
type genericBenchFile struct {
	Suite         string `json:"suite"`
	GitCommit     string `json:"git_commit"`
	NumCPU        int    `json:"num_cpu"`
	Facts         int    `json:"facts"`
	Draws         int64  `json:"draws"`
	BaselineDraws int64  `json:"baseline_draws"`
	SharedDraws   int64  `json:"shared_draws"`
	// BytesPerFactDisk is the scale suite's on-disk density; zero for
	// suites that do not record it.
	BytesPerFactDisk float64       `json:"bytes_per_fact_disk"`
	Results          []benchResult `json:"results"`
}

func readBenchFile(path string) (genericBenchFile, error) {
	var f genericBenchFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Suite == "" {
		return f, fmt.Errorf("%s: no \"suite\" field — not a BENCH_*.json trajectory file", path)
	}
	if len(f.Results) == 0 {
		return f, fmt.Errorf("%s: no results", path)
	}
	return f, nil
}

// drawsPerOp returns the Monte-Carlo draws one op of the named
// benchmark performs, or 0 when the benchmark draws nothing (store
// suite, or an unknown name).
func (f genericBenchFile) drawsPerOp(name string) int64 {
	switch f.Suite {
	case "engine":
		return f.Draws
	case "answers":
		switch name {
		case "AnswersPerTupleBaseline":
			return f.BaselineDraws
		default:
			return f.SharedDraws
		}
	case "scale":
		// Only the marginals results perform draws; the codec results
		// (encode, cold/warm boot) are byte-throughput benchmarks.
		if strings.HasPrefix(name, "ScaleMarginals") {
			return f.Draws
		}
	case "delta":
		// Only the cold approximate ops draw from scratch; the exact
		// ops draw nothing and the warm stratified op reuses stored
		// statistics (fresh draws ~0 by design).
		if strings.HasPrefix(name, "DeltaColdApprox") {
			return f.Draws
		}
	}
	return 0
}

// workerInversions returns one violation line per pair of same-group
// results where a higher worker count ran slower than a lower one. The
// adaptive worker selection exists precisely so no committed trajectory
// file carries such a configuration: every suite runner calls this
// before writing its file, -check applies it to both baseline and
// fresh run, and TestCommittedBenchFilesHaveNoWorkerInversion holds the
// checked-in files to it.
func workerInversions(results []benchResult) []string {
	var out []string
	groups := map[string][]benchResult{}
	var order []string
	for _, r := range results {
		if r.Group == "" || r.Workers <= 0 {
			continue
		}
		if _, seen := groups[r.Group]; !seen {
			order = append(order, r.Group)
		}
		groups[r.Group] = append(groups[r.Group], r)
	}
	for _, g := range order {
		rs := groups[g]
		for i := 0; i < len(rs); i++ {
			for j := 0; j < len(rs); j++ {
				if rs[j].Workers > rs[i].Workers && rs[j].NsPerOp > rs[i].NsPerOp {
					out = append(out, fmt.Sprintf(
						"%s: %d workers (%s, %.0f ns/op) slower than %d workers (%s, %.0f ns/op)",
						g, rs[j].Workers, rs[j].Name, rs[j].NsPerOp,
						rs[i].Workers, rs[i].Name, rs[i].NsPerOp))
				}
			}
		}
	}
	return out
}

// compareBench returns one violation line per benchmark of baseline
// that regressed in current by more than tol: ns_per_op up, or
// draws/sec down (where the suite defines a draw count). A benchmark
// present in the baseline but missing from current is a violation too
// — silently dropping a slow benchmark must not turn the gate green.
func compareBench(baseline, current genericBenchFile, tol float64) []string {
	var violations []string
	if baseline.Suite != current.Suite {
		return []string{fmt.Sprintf("suite mismatch: baseline %q vs current %q", baseline.Suite, current.Suite)}
	}
	// Bytes/fact is deterministic for a given fact count — no timing
	// noise to absorb — so it is always held to the default band, even
	// when the suite's wall-time comparisons run wider.
	if baseline.BytesPerFactDisk > 0 && current.BytesPerFactDisk > baseline.BytesPerFactDisk*(1+regressionTolerance) {
		violations = append(violations, fmt.Sprintf(
			"bytes/fact regressed %.1f%% (baseline %.1f, current %.1f, tolerance %.0f%%)",
			100*(current.BytesPerFactDisk/baseline.BytesPerFactDisk-1),
			baseline.BytesPerFactDisk, current.BytesPerFactDisk, 100*regressionTolerance))
	}
	cur := make(map[string]benchResult, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: present in baseline, missing from current run", b.Name))
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol) {
			violations = append(violations, fmt.Sprintf(
				"%s: ns_per_op regressed %.1f%% (baseline %.0f, current %.0f, tolerance %.0f%%)",
				b.Name, 100*(c.NsPerOp/b.NsPerOp-1), b.NsPerOp, c.NsPerOp, 100*tol))
		}
		bd, cd := baseline.drawsPerOp(b.Name), current.drawsPerOp(c.Name)
		if bd > 0 && cd > 0 && b.NsPerOp > 0 && c.NsPerOp > 0 {
			baseDPS := float64(bd) / (b.NsPerOp / 1e9)
			curDPS := float64(cd) / (c.NsPerOp / 1e9)
			if curDPS < baseDPS*(1-tol) {
				violations = append(violations, fmt.Sprintf(
					"%s: draws/sec regressed %.1f%% (baseline %.0f, current %.0f, tolerance %.0f%%)",
					b.Name, 100*(1-curDPS/baseDPS), baseDPS, curDPS, 100*tol))
			}
		}
	}
	return violations
}

// rerunSuite reruns the suite named by the baseline, writing its
// trajectory file into a temp directory, and returns the parsed file.
// The scale suite reruns at the baseline's recorded fact count, so a
// 100k smoke baseline rechecks in seconds while the committed 1M file
// rechecks at full size.
func rerunSuite(baseline genericBenchFile) (genericBenchFile, error) {
	var f genericBenchFile
	dir, err := os.MkdirTemp("", "ocqa-bench-check")
	if err != nil {
		return f, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "BENCH_"+baseline.Suite+".json")
	switch baseline.Suite {
	case "store":
		err = runStoreBenchmarks(out)
	case "engine":
		err = runEngineBenchmarks(out)
	case "answers":
		err = runAnswersBenchmarks(out)
	case "scale":
		if baseline.Facts <= 0 {
			return f, fmt.Errorf("scale baseline records no fact count")
		}
		err = runScaleBenchmarks(out, baseline.Facts)
	case "delta":
		if baseline.Facts <= 0 {
			return f, fmt.Errorf("delta baseline records no fact count")
		}
		err = runDeltaBenchmarks(out, baseline.Facts)
	default:
		return f, fmt.Errorf("unknown suite %q (want store, engine, answers, scale or delta)", baseline.Suite)
	}
	if err != nil {
		return f, err
	}
	return readBenchFile(out)
}

// runCheck is the -check entry point: rerun the baseline's suite and
// fail on regression.
func runCheck(baselinePath string) error {
	baseline, err := readBenchFile(baselinePath)
	if err != nil {
		return err
	}
	tol := suiteTolerance(baseline.Suite)
	fmt.Printf("regression gate: baseline %s (suite %s, commit %s, %d CPU), tolerance %.0f%%\n",
		baselinePath, baseline.Suite, orUnknown(baseline.GitCommit), baseline.NumCPU, 100*tol)
	warnIfNotAncestor(baseline.GitCommit)
	if v := workerInversions(baseline.Results); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintln(os.Stderr, "worker inversion:", line)
		}
		return fmt.Errorf("baseline %s has %d worker inversion(s) — more workers must never be slower", baselinePath, len(v))
	}
	current, err := rerunSuite(baseline)
	if err != nil {
		return err
	}
	if baseline.NumCPU != 0 && baseline.NumCPU != current.NumCPU {
		fmt.Printf("note: baseline ran on %d CPU(s), this host has %d — parallel numbers may shift for host reasons\n",
			baseline.NumCPU, current.NumCPU)
	}
	if v := compareBench(baseline, current, tol); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintln(os.Stderr, "regression:", line)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", len(v), 100*tol)
	}
	fmt.Printf("regression gate passed: %d benchmark(s) within %.0f%% of baseline\n",
		len(baseline.Results), 100*tol)
	return nil
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// warnIfNotAncestor warns when the baseline's recorded commit is not an
// ancestor of the commit this gate runs on: a baseline recorded on a
// divergent (or never-merged) line makes the comparison meaningless —
// the delta may be a different code path, not a regression. Advisory
// only: files from other hosts may name commits this clone never
// fetched, and shallow CI clones may be unable to answer at all, so
// anything but a definite "not an ancestor" stays quiet.
func warnIfNotAncestor(baselineCommit string) {
	strip := func(s string) string { return strings.TrimSuffix(s, "-dirty") }
	base, cur := strip(baselineCommit), strip(gitCommit())
	if base == "" || base == "unknown" || cur == "unknown" || base == cur {
		return
	}
	// Exit status 1 means "definitely not an ancestor"; any other
	// failure (unknown revision, no git, shallow clone) is inconclusive.
	err := exec.Command("git", "merge-base", "--is-ancestor", base, cur).Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == 1 {
		fmt.Printf("warning: baseline commit %s is not an ancestor of build commit %s — regenerate the baseline on this line before trusting the gate\n",
			base, cur)
	}
}

// runCheckSelftest proves the gate discriminates, with no timing
// reruns: the file must pass against itself, and a copy with every
// ns_per_op inflated to 5 points past the suite's tolerance band
// (20% for the default 15% band, which also drops draws/sec ~17%)
// must fail.
func runCheckSelftest(path string) error {
	baseline, err := readBenchFile(path)
	if err != nil {
		return err
	}
	tol := suiteTolerance(baseline.Suite)
	if v := compareBench(baseline, baseline, tol); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintln(os.Stderr, "selftest:", line)
		}
		return fmt.Errorf("gate selftest failed: file does not pass against itself")
	}
	bump := tol + 0.05
	perturbed := baseline
	perturbed.Results = make([]benchResult, len(baseline.Results))
	for i, r := range baseline.Results {
		r.NsPerOp *= 1 + bump
		perturbed.Results[i] = r
	}
	v := compareBench(baseline, perturbed, tol)
	if len(v) == 0 {
		return fmt.Errorf("gate selftest failed: synthetic %.0f%% slowdown not flagged", 100*bump)
	}
	// The inversion detector must also discriminate: a synthetic pair
	// where doubling the workers doubles ns/op has to be flagged, and
	// a well-ordered ladder must stay clean.
	bad := []benchResult{
		{Name: "X1", Group: "g", Workers: 1, NsPerOp: 100},
		{Name: "X2", Group: "g", Workers: 2, NsPerOp: 200},
	}
	if len(workerInversions(bad)) == 0 {
		return fmt.Errorf("gate selftest failed: synthetic worker inversion not flagged")
	}
	good := []benchResult{
		{Name: "X1", Group: "g", Workers: 1, NsPerOp: 200},
		{Name: "X2", Group: "g", Workers: 2, NsPerOp: 100},
	}
	if v := workerInversions(good); len(v) > 0 {
		return fmt.Errorf("gate selftest failed: clean worker ladder flagged: %s", v[0])
	}
	fmt.Printf("gate selftest passed: identical file clean, synthetic %.0f%% slowdown flagged %d violation(s), synthetic worker inversion flagged, e.g.:\n  %s\n",
		100*bump, len(v), v[0])
	return nil
}
