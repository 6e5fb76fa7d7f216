package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGitHeadStampsDirtyTree: a checkout whose tracked files differ from
// HEAD is stamped "-dirty"; a clean one, or one with only untracked
// files, is stamped with HEAD's first 12 hex digits, as buildinfo.Commit
// stamps a build.
func TestGitHeadStampsDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		// Keep the user's and the system's git configuration out.
		cmd.Env = append(os.Environ(), "HOME="+dir, "GIT_CONFIG_NOSYSTEM=1", "GIT_CONFIG_GLOBAL="+os.DevNull)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("tracked.txt", "one\n")
	git("add", "tracked.txt")
	git("commit", "-q", "-m", "first")
	head := git("rev-parse", "HEAD")[:12]

	if got := gitHead(dir); got != head {
		t.Fatalf("clean checkout stamped %q, want %q", got, head)
	}
	write("untracked.txt", "scratch\n")
	if got := gitHead(dir); got != head {
		t.Fatalf("checkout with an untracked file stamped %q, want %q", got, head)
	}
	write("tracked.txt", "two\n")
	if got := gitHead(dir); got != head+"-dirty" {
		t.Fatalf("checkout with a modified tracked file stamped %q, want %q", got, head+"-dirty")
	}
}
