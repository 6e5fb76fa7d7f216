// Package experiments implements the reproduction's evaluation suite.
// The paper is a theory contribution with two figures and no
// measurement tables, so the suite reproduces both figures exactly and
// validates every theorem, lemma and proposition empirically: sampler
// uniformity, FPRAS error guarantees, the polynomial lower bounds, the
// exponential FD counterexample, the counting DP, and the Turing
// reductions. Each experiment returns a printable table;
// `go run ./cmd/ocqa-bench` runs the registry and prints every table.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives all randomness (deterministic tables per seed).
	Seed int64
	// Quick shrinks instance sizes and sample counts so the whole
	// registry runs in seconds (used by tests and testing.B loops).
	Quick bool
}

// Row is one table row.
type Row []string

// Table is an experiment's result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper artefact being reproduced and its expected shape
	Header Row
	Rows   []Row
	Notes  []string
	// OK aggregates the per-row pass/fail checks.
	OK bool
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	status := "PASS"
	if !t.OK {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", t.ID, t.Title, status)
	fmt.Fprintf(&b, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	rows := append([]Row{t.Header}, t.Rows...)
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(r Row) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make(Row, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (Table, error)
}

var registry []Experiment

func register(id, title string, run func(Config) (Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// helpers shared by the experiment files

func f2s(f float64) string { return fmt.Sprintf("%.6g", f) }

func b2s(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
