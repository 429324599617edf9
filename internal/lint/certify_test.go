package lint_test

import (
	"strings"
	"testing"

	"politewifi/internal/lint"
)

// certPatterns is a representative slice of the sim tree: eventsim
// carries sanctioned wallclock impurity (the opt-in fire profiler),
// dot11 is pure arithmetic, and lint is named to prove it is excluded.
var certPatterns = []string{
	"politewifi/internal/eventsim",
	"politewifi/internal/dot11",
	"politewifi/internal/lint",
}

func certify(t *testing.T, workers int) string {
	t.Helper()
	out, err := lint.Certify(lint.Options{Patterns: certPatterns, Workers: workers})
	if err != nil {
		t.Fatalf("certify (workers=%d): %v", workers, err)
	}
	return out
}

// TestCertifyByteStable pins the certificate's core contract: the
// output is a pure function of the analyzed source, byte-identical
// across worker counts. CI diffs the committed CERTIFICATE.md against
// a regeneration, so any instability here would make every CI run
// flake.
func TestCertifyByteStable(t *testing.T) {
	base := certify(t, 1)
	for _, workers := range []int{2, 4} {
		if got := certify(t, workers); got != base {
			t.Errorf("certificate differs between -workers=1 and -workers=%d", workers)
		}
	}

	if !strings.Contains(base, "## politewifi/internal/eventsim") {
		t.Errorf("certificate missing the eventsim section")
	}
	if !strings.Contains(base, "## politewifi/internal/dot11") {
		t.Errorf("certificate missing the dot11 section")
	}
	if strings.Contains(base, "## politewifi/internal/lint") {
		t.Errorf("certificate must not certify the lint tree itself")
	}
	if !strings.Contains(base, "— pure") {
		t.Errorf("certificate certifies nothing as pure")
	}
}
