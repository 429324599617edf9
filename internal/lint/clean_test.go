package lint_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"politewifi/internal/lint"
)

// moduleRoot walks up from the working directory to the directory
// containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the regression gate: politevet over the whole
// module, tests included, must report nothing at HEAD. Every
// sanctioned violation carries a reasoned //politevet:allow directive;
// a new finding here means either a real determinism hazard or a
// missing annotation.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	findings, err := lint.Run(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestStandaloneBinary builds the politevet binary and runs it the
// way CI does: clean (exit 0) over a package with a sanctioned,
// annotated wallclock use; exit 2 with the full cross-package call
// chain over the taint fixture; and a certificate on stdout in
// -certify mode.
func TestStandaloneBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to the go command")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "politevet")

	build := exec.Command("go", "build", "-o", bin, "./cmd/politevet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/politevet: %v\n%s", err, out)
	}

	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = root
		var out, errb strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
		case errors.As(err, &exit):
			code = exit.ExitCode()
		default:
			t.Fatalf("politevet %v: %v", args, err)
		}
		return out.String(), errb.String(), code
	}

	if _, stderr, code := run("./internal/eventsim"); code != 0 {
		t.Errorf("politevet over eventsim should be clean, exit %d:\n%s", code, stderr)
	}

	const taint = "./internal/lint/purity/testdata/src/taint/"
	_, stderr, code := run(taint+"leaf", taint+"mid", taint+"world")
	if code != 2 {
		t.Errorf("politevet over the taint fixture: exit %d, want 2\n%s", code, stderr)
	}
	if chain := "world.(*World).Run → mid.Poll → leaf.Stamp → time.Now"; !strings.Contains(stderr, chain) {
		t.Errorf("taint findings lack the call chain %q:\n%s", chain, stderr)
	}

	stdout, stderr, code := run("-certify", "./internal/dot11")
	if code != 0 {
		t.Fatalf("politevet -certify: exit %d\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "# politevet determinism certificate") ||
		!strings.Contains(stdout, "## politewifi/internal/dot11") {
		t.Errorf("politevet -certify printed no dot11 certificate:\n%s", stdout)
	}
}
