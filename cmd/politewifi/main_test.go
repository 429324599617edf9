package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"

	"politewifi/internal/telemetry/stream"
)

// TestWardriveStreamStdoutStaysNDJSON builds the binary and runs
// `politewifi wardrive -stream -` with every file-writing observer on.
// The NDJSON owns stdout, so the notes about the report, trace and
// frame log must go to stderr: stdout has to fold cleanly, exactly as
// `politewifi wardrive -stream - | politewifi tail -` consumes it.
func TestWardriveStreamStdoutStaysNDJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs a drive")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "politewifi")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "wardrive", "-scale", "0.008", "-stream", "-",
		"-metrics", "m.json", "-trace", "t.json", "-record", "r.log")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("wardrive: %v\n%s", err, stderr.String())
	}

	res, err := stream.Fold(&stdout)
	if err != nil {
		t.Fatalf("stdout does not fold as a stream: %v", err)
	}
	if res.Records == 0 || res.Records != res.Stops || res.Cancelled {
		t.Errorf("folded %d records of %d stops (cancelled=%v), want a complete drive",
			res.Records, res.Stops, res.Cancelled)
	}
	for _, note := range []string{"wrote telemetry report", "trace spans", "frame-log records"} {
		if !bytes.Contains(stderr.Bytes(), []byte(note)) {
			t.Errorf("stderr lacks the %q note:\n%s", note, stderr.String())
		}
	}
}
