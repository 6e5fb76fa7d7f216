package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs a workload at test size for about a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 1, window: time.Second, trace: trace,
		dataDir: filepath.Join(dir, "data"), spansPath: filepath.Join(dir, "spans.json"), tiny: true}
}

// TestEveryMetricReported runs each workload at tiny size, untraced and
// traced, and checks that the report prints every metric BENCHMARK.json
// names for that kind of run, by name and unit, and that the JSON
// summary line carries exactly those metrics.
func TestEveryMetricReported(t *testing.T) {
	def, err := loadDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range def.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, w, traced)
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d of %d: %s", res.Correct, res.Failed, res.Attempted, res.why)
				}
				var out bytes.Buffer
				report(&out, cfg, res)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				printed := map[string]string{}
				for _, l := range lines[1 : len(lines)-1] {
					f := strings.Fields(l)
					if len(f) != 4 || f[0] != w {
						t.Fatalf("malformed metric line %q", l)
					}
					printed[f[1]] = f[3]
				}
				for name, unit := range want[traced] {
					if printed[name] != unit {
						t.Errorf("metric %s printed with unit %q, want %q", name, printed[name], unit)
					}
				}
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if len(last.Metrics) != len(want[traced]) {
					t.Errorf("summary carries %d metrics, want %d", len(last.Metrics), len(want[traced]))
				}
				for name, m := range last.Metrics {
					if want[traced][name] != m.Unit {
						t.Errorf("summary metric %s has unit %q, want %q", name, m.Unit, want[traced][name])
					}
				}
				if traced {
					if fi, err := os.Stat(cfg.spansPath); err != nil || fi.Size() == 0 {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
			})
		}
	}
}

// TestCorruptedAnswerTripsGate corrupts one expected answer per
// workload and checks that the run fails: in set-up, which sends every
// catalog request once, or in the window's correctness gate.
func TestCorruptedAnswerTripsGate(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(m mix)
	}{
		{"hot-reads", func(m mix) {
			for _, e := range m.(*hotReads).catalog {
				if e.suffix == "/repairs/count" {
					e.want += "1"
					return
				}
			}
		}},
		{"churn", func(m mix) { m.(*churn).history[0].sizes["k0"]++ }},
		// Only the window's requests: set-up passes and the window's
		// gate must catch the wrong answers.
		{"scale-ur", func(m mix) {
			for _, r := range m.(*scaleUR).pool {
				if r.exact != "" {
					r.exact = "=1/4"
				}
			}
		}},
		{"beyond-keys", func(m mix) { m.(*beyondKeys).checks[0].want = "0/0" }},
	}
	builds := map[string]func(int64, bool) (mix, error){}
	for _, w := range workloads {
		builds[w.name] = w.build
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			m, err := builds[c.workload](1, true)
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(m)
			res, err := runMix(tinyConfig(t, c.workload, false), m)
			switch {
			case err != nil:
				if !strings.Contains(err.Error(), "wrong exact answer") {
					t.Fatalf("run failed, but not on a wrong answer: %v", err)
				}
			case res.Correct || res.Failed == 0:
				t.Fatalf("corrupted expectation passed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestFailedRequestsAreNotTimed points a closed loop at a server that
// answers every request with 503: each request must count as failed and
// none as an operation, so failing fast cannot read as going fast.
func TestFailedRequestsAreNotTimed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	cl := newClient(ts.URL)
	defer cl.close()
	ok := func([]byte, int64, *stats) (*cost, error) { return nil, nil }
	st := closedLoop(context.Background(), newWorker(cl, nil, "t"), 100*time.Millisecond,
		func() *request { return post("/v1/instances/x/query", nil, ok) })
	if st.attempted == 0 || st.failed != st.attempted {
		t.Fatalf("%d of %d requests failed, want all", st.failed, st.attempted)
	}
	if len(st.ops) != 0 || len(st.reads) != 0 {
		t.Fatalf("failed requests were timed: %d ops, %d reads", len(st.ops), len(st.reads))
	}
}

func TestErrorVerdict(t *testing.T) {
	clean := &runs{attempted: 1000}
	for _, c := range []struct {
		name string
		a, b *runs
		want string
	}{
		{"both clean", clean, clean, "unchanged"},
		{"B fails requests", clean, &runs{attempted: 1000, failed: 1}, "regressed"},
		{"B has an incorrect run", clean, &runs{attempted: 1000, incorrect: 1}, "regressed"},
		{"B fixes failures", &runs{attempted: 1000, failed: 5}, clean, "improved"},
	} {
		if got := errorVerdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, %v; want 2.75, 5.5, 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	wideSlow := make([]float64, len(wide))
	for i, v := range wide {
		wideSlow[i] = 2 * v
	}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", base, true, "unchanged"},
		{"slower within bound", shift(1.05), true, "unchanged"},
		{"slower beyond bound", shift(1.2), true, "regressed"},
		{"faster", shift(0.8), true, "improved"},
		{"higher is better", shift(0.8), false, "regressed"},
		{"wide spread", wide, true, "unresolved"},
		{"wide spread, every run slower", wideSlow, true, "regressed"},
	} {
		if got := verdict(base, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
