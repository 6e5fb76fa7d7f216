package main

// benchStamp is the provenance header embedded in every BENCH_*.json
// trajectory file: when the run happened, on which commit, under which
// toolchain, on how many cores. Cross-PR comparisons (and the -check
// regression gate) are only meaningful when these match — the stamp
// makes a mismatch visible instead of silently comparing apples to
// oranges. The same fields appear on the server's /varz and as the
// ocqa_build_info metric, so a bench file and a scrape name builds the
// same way.

import (
	"context"
	"os/exec"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/engine"
)

type benchStamp struct {
	Timestamp string `json:"timestamp"`
	// GitCommit is the commit the binary was built from, "unknown" when
	// neither the toolchain's VCS stamp nor git can name one.
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newBenchStamp() benchStamp {
	return benchStamp{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GitCommit:  gitCommit(),
		GoVersion:  buildinfo.GoVersion(),
		NumCPU:     buildinfo.NumCPU(),
		GOMAXPROCS: buildinfo.MaxProcs(),
	}
}

func gitCommit() string {
	// Prefer the toolchain's VCS stamp — it names the build, not the
	// checkout the binary happens to run in. `go run` / `go test`
	// binaries carry no stamp, so fall back to asking git.
	if c := buildinfo.Commit(); c != "unknown" {
		return c
	}
	return gitHead("")
}

// gitHead names the checkout at dir ("" for the working directory) the
// way buildinfo.Commit names a build: HEAD's first 12 hex digits, with
// "-dirty" appended when a tracked file differs from HEAD, so a run of
// uncommitted code is never stamped as its parent commit. "unknown"
// when git cannot answer.
func gitHead(dir string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil || len(rev) < 12 {
		return "unknown"
	}
	changes, err := git("status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return "unknown"
	}
	if rev = rev[:12]; changes != "" {
		rev += "-dirty"
	}
	return rev
}

// spanSeconds runs f under a fresh engine trace and returns the
// per-phase wall seconds of the spans it recorded (repeated span names
// accumulate). The bench suites run their verification pass through it
// once, so every trajectory file carries a per-phase breakdown next to
// its headline numbers.
func spanSeconds(f func(ctx context.Context)) map[string]float64 {
	tr := engine.NewTrace()
	f(engine.ContextWithTrace(context.Background(), tr))
	out := map[string]float64{}
	for _, sp := range tr.Spans() {
		out[sp.Name] += float64(sp.EndNanos-sp.StartNanos) / 1e9
	}
	return out
}
