package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"politewifi/internal/telemetry/stream"
)

// TestWardriveStreamStdoutStaysNDJSON builds the binary and runs
// `politewifi wardrive -stream -` with every file-writing observer on.
// The NDJSON owns stdout, so the notes about the report, trace and
// frame log must go to stderr: stdout has to fold cleanly, exactly as
// `politewifi wardrive -stream - | politewifi tail -` consumes it.
func TestWardriveStreamStdoutStaysNDJSON(t *testing.T) {
	dir, bin := buildBinary(t)

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

// TestReplayCLI pins `politewifi replay` end to end: a recorded faulted
// drive replays cleanly at the recorded and at another worker count,
// and a log with one wire byte changed fails with a positioned
// divergence on stderr and exit status 1.
func TestReplayCLI(t *testing.T) {
	dir, bin := buildBinary(t)
	logPath := filepath.Join(dir, "drive.framelog")
	if out, err := exec.Command(bin, "wardrive", "-scale", "0.004", "-workers", "2",
		"-faults", "loss=0.2", "-record", logPath).CombinedOutput(); err != nil {
		t.Fatalf("wardrive: %v\n%s", err, out)
	}
	for _, workers := range []string{"1", "2"} {
		out, err := exec.Command(bin, "replay", "-workers", workers, logPath).CombinedOutput()
		if err != nil {
			t.Fatalf("replay -workers %s: %v\n%s", workers, err, out)
		}
		if !bytes.Contains(out, []byte("match the live run exactly")) {
			t.Errorf("replay -workers %s did not report a match:\n%s", workers, out)
		}
	}

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix the first data payload with three zero bytes; only the
	// head line precedes it, so the record is the log's first frame.
	tampered := strings.Replace(string(data), `"data":"`, `"data":"AAAA`, 1)
	if tampered == string(data) {
		t.Fatal("frame log carries no data field to tamper with")
	}
	badPath := filepath.Join(dir, "tampered.framelog")
	if err := os.WriteFile(badPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "replay", badPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("tampered replay: err %v, want exit status 1\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "replay diverged: stop") {
		t.Errorf("tampered replay stderr lacks a positioned divergence:\n%s", stderr.String())
	}
}

// buildBinary builds politewifi into a fresh temporary directory and
// returns the directory and the binary's path.
func buildBinary(t *testing.T) (dir, bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a binary and runs a drive")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "politewifi")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}
