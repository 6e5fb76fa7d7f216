package main

// --compare A.jsonl B.jsonl: the verdict on every end-to-end metric and
// workload, A being the parent's runs and B the change's, under the
// bounds BENCHMARK.json fixes:
//
//   - improved:   every B run beats every A run, or B wins at least nine
//     in ten of the runs paired in file order and its median beats A's
//     by more than A's own spread;
//   - regressed:  B's median is worse than A's by more than the bound,
//     and either both spreads are within the bound or every A run beats
//     every B run;
//   - unresolved: otherwise, when either side's spread exceeds the bound;
//   - unchanged:  otherwise.
//
// The spread is the distance between the first and third quartiles as a
// share of the median, with the quartiles computed as Python's
// statistics.quantiles(values, n=4) computes them. Each workload also
// gets an error_rate row: the timings count only requests that
// succeeded, so any rise in failed requests or incorrect runs is a
// regression in its own right.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// runs are one side's untraced runs of one workload.
type runs struct {
	// metrics holds each metric's values in file order.
	metrics map[string][]float64
	// attempted and failed total the runs' requests; incorrect counts the
	// runs whose correctness gate failed.
	attempted, failed int64
	incorrect         int
}

// errorRate is the share of requests that failed.
func (r *runs) errorRate() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

// loadRuns reads an --out file's untraced runs by workload.
func loadRuns(path string) (map[string]*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace {
			continue
		}
		w := out[r.Workload]
		if w == nil {
			w = &runs{metrics: map[string][]float64{}}
			out[r.Workload] = w
		}
		w.attempted += r.Attempted
		w.failed += r.Failed
		if !r.Correct {
			w.incorrect++
		}
		for name, m := range r.Metrics {
			w.metrics[name] = append(w.metrics[name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles are statistics.quantiles(xs, n=4) with the default
// exclusive method; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, m, n := len(d), len(d)+1, 4
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

func compareFiles(w io.Writer, defPath, aPath, bPath string) error {
	def, err := loadDefinition(defPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(aPath)
	if err != nil {
		return err
	}
	b, err := loadRuns(bPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if b[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", aPath, bPath)
	}
	fmt.Fprintf(w, "%-12s %-17s %-8s %-34s %-34s %8s  %s\n", "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "change", "verdict")
	for _, wl := range names {
		for _, m := range def.EndToEnd {
			av, bv := a[wl].metrics[m.Name], b[wl].metrics[m.Name]
			if len(av) < 2 || len(bv) < 2 {
				fmt.Fprintf(w, "%-12s %-17s %-8s needs at least two runs on each side\n", wl, m.Name, m.Unit)
				continue
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			fmt.Fprintf(w, "%-12s %-17s %-8s %-34s %-34s %+7.2f%%  %s\n", wl, m.Name, m.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g] %d", am, a1, a3, len(av)),
				fmt.Sprintf("%.6g [%.6g, %.6g] %d", bm, b1, b3, len(bv)),
				100*ratio(bm-am, am), verdict(av, bv, m.Better == "lower", m.Bound))
		}
		ar, br := a[wl], b[wl]
		fmt.Fprintf(w, "%-12s %-17s %-8s %-34s %-34s %8s  %s\n", wl, "error_rate", "fraction",
			fmt.Sprintf("%.3g, %d incorrect runs", ar.errorRate(), ar.incorrect),
			fmt.Sprintf("%.3g, %d incorrect runs", br.errorRate(), br.incorrect),
			"", errorVerdict(ar, br))
	}
	return nil
}

// errorVerdict treats any rise in failed requests or incorrect runs as a
// regression: the timings above count only the requests that succeeded,
// so a change that fails fast shows here and nowhere else.
func errorVerdict(a, b *runs) string {
	switch {
	case b.errorRate() > a.errorRate() || b.incorrect > a.incorrect:
		return "regressed"
	case b.errorRate() < a.errorRate() || b.incorrect < a.incorrect:
		return "improved"
	default:
		return "unchanged"
	}
}

func verdict(av, bv []float64, lower bool, bound float64) string {
	beats := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	_, am, _ := quartiles(av)
	_, bm, _ := quartiles(bv)
	// worse is B's median change in the bad direction, as a share of A's
	// median.
	worse := ratio(bm-am, am)
	if !lower {
		worse = -worse
	}
	wins, pairs := 0, min(len(av), len(bv))
	for i := 0; i < pairs; i++ {
		if beats(bv[i], av[i]) {
			wins++
		}
	}
	// all reports whether every run in xs beats every run in ys.
	all := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !beats(x, y) {
					return false
				}
			}
		}
		return true
	}
	steady := spread(av) <= bound && spread(bv) <= bound
	switch {
	case all(bv, av) || -worse > spread(av) && 10*wins >= 9*pairs:
		return "improved"
	case worse > bound && (steady || all(av, bv)):
		return "regressed"
	case !steady:
		return "unresolved"
	default:
		return "unchanged"
	}
}
