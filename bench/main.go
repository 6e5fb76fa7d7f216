// Command bench is the repository benchmark: it brings up the topology
// users deploy — a cluster coordinator in front of three durable
// backends, all on loopback listeners in this one process — drives one
// of four traffic mixes through the coordinator for a fixed window,
// checks every answer, and prints each metric as one
// "workload metric value unit" line followed by a JSON summary line.
//
//	bash bench/run.sh --workload hot-reads --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// See README.md for the workloads, the metrics and what each one is
// expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// dataDir holds the backends' data directories; each run uses and
	// removes its own subdirectory.
	dataDir string
	// spansPath receives the traced run's spans.
	spansPath string
	// tiny shrinks every input so a workload finishes in about a second;
	// the package tests use it.
	tiny bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.dataDir, "data", filepath.Join(".bench_build", "data"), "directory for the backends' data directories")
	fs.StringVar(&cfg.spansPath, "spans", "", "file the traced run writes its spans to (default <workload>-spans.json beside the data directory)")
	out := fs.String("out", "", "append the run's result to this file as one JSON line")
	compare := fs.Bool("compare", false, "compare two --out files given as arguments under the bounds in ./BENCHMARK.json: --compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	}
	cfg.trace = *trace == 1
	cfg.window = time.Duration(*seconds) * time.Second
	if cfg.spansPath == "" {
		cfg.spansPath = filepath.Join(filepath.Dir(cfg.dataDir), cfg.workload+"-spans.json")
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	report(stdout, cfg, res)
	if *out != "" {
		if err := appendResult(*out, cfg, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: correctness gate failed:", res.why)
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the JSON summary line plus the
// reason a correctness gate failed, if one did.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	why       string
}

// stamp identifies the build and host a result came from.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newStamp() stamp {
	return stamp{
		Commit:     buildinfo.Commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// report prints the provenance line, one line per metric, the error
// rate, and the JSON summary as the last line.
func report(w io.Writer, cfg config, res *result) {
	st := newStamp()
	fmt.Fprintf(w, "# %s seed=%d trace=%v window=%s commit=%s go=%s nproc=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.trace, cfg.window, st.Commit, st.GoVersion, st.NumCPU, st.GOMAXPROCS)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %.9g %s\n", cfg.workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s error_rate %.9g fraction\n", cfg.workload, ratio(float64(res.Failed), float64(res.Attempted)))
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// record is one line of an --out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	stamp
	result
}

func appendResult(path string, cfg config, res *result) error {
	line, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, stamp: newStamp(), result: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
