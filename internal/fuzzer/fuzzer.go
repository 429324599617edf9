// Package fuzzer is the differential scenario fuzzer for the wardrive
// pipeline. Each iteration forks a fresh RNG stream, draws a random
// jobspec (tiny city, random fault mix, random attacker cadence,
// random worker count), and asserts two oracles over the drive:
//
//   - determinism: the same spec run at workers=1 and at a random
//     worker count must produce byte-identical flight-recorder streams,
//     telemetry reports and census results;
//   - record/replay: recording the drive into a politewifi.framelog/v1
//     frame log and replaying it must reproduce the recorded run byte
//     for byte, with the replay cursor consuming the log exactly.
//
// A failing iteration is shrunk greedily — spec knobs are reduced one
// at a time while the failure persists, then the frame log is truncated
// at the first divergence — so a finding lands as a minimal spec plus a
// frame log small enough to commit as a regression fixture.
package fuzzer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"politewifi/internal/eventsim"
	"politewifi/internal/jobspec"
	"politewifi/internal/replay"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// Options parameterises one fuzzing campaign.
type Options struct {
	// Seed roots the campaign's RNG; equal seeds draw equal scenario
	// sequences.
	Seed int64
	// Iterations is the number of scenarios to draw (default 20).
	Iterations int
	// Out receives one progress line per iteration; nil is silent.
	Out io.Writer
	// ArtifactDir, when non-empty, receives the shrunk frame log and
	// spec of every finding (finding-<iteration>.ndjson / .spec.json).
	ArtifactDir string
	// Tamper, when set, mutates the recorded frame log's records before
	// the replay leg parses them and reports whether it changed
	// anything. It emulates a recorder-side encoding bug (the tests use
	// it to re-introduce the unmasked-shift-before-pack class) so the
	// replay oracle and the shrinker can be exercised against a known
	// defect without patching the codec.
	Tamper func(recs []replay.Record) bool
}

// Finding is one shrunk failure.
type Finding struct {
	// Iteration is the 0-based scenario index that failed.
	Iteration int
	// Oracle names the property that failed: "determinism" or "replay".
	Oracle string
	// Spec is the shrunk scenario.
	Spec jobspec.Spec
	// Err is the failure as seen on the shrunk scenario.
	Err error
	// Log is the shrunk frame log (replay findings only): head line
	// plus every record up to and including the first divergence.
	Log []byte
	// Records is the number of event records in Log.
	Records int
	// Artifact is the path the log was written to ("" if no
	// ArtifactDir was configured).
	Artifact string
}

// Run executes the campaign and returns every shrunk finding. The
// returned error reports campaign plumbing failures (unwritable
// artifacts), not findings.
func Run(opts Options) ([]Finding, error) {
	if opts.Iterations <= 0 {
		opts.Iterations = 20
	}
	root := eventsim.NewRNG(opts.Seed)
	var findings []Finding
	for i := 0; i < opts.Iterations; i++ {
		r := root.Fork()
		spec := randomSpec(r)
		altWorkers := 1 + r.Intn(4)

		f, failed, err := runIteration(i, spec, altWorkers, opts)
		if err != nil {
			return findings, err
		}
		if failed {
			findings = append(findings, f)
			logf(opts.Out, "iter %d: FAIL %s oracle — shrunk to %s (%d records): %v",
				i, f.Oracle, f.Spec, f.Records, f.Err)
			continue
		}
		logf(opts.Out, "iter %d: ok  %s alt-workers=%d", i, spec, altWorkers)
	}
	return findings, nil
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// randomSpec draws one scenario. Cities are tiny (a couple of stops) so
// a campaign covers many fault/timing/worker combinations per second of
// wall clock.
func randomSpec(r *eventsim.RNG) jobspec.Spec {
	s := jobspec.Drive()
	s.Seed = r.Int63()
	s.Scale = 0.002 + float64(r.Intn(5))*0.001
	s.StopSize = 1 + r.Intn(4)
	s.DwellMS = 60 + 20*r.Intn(6)
	s.Workers = 1 + r.Intn(4)
	if r.Coin(0.5) {
		var parts []string
		if r.Coin(0.6) {
			parts = append(parts, fmt.Sprintf("loss=%.2f", r.Uniform(0.02, 0.30)))
		}
		if r.Coin(0.4) {
			parts = append(parts, fmt.Sprintf("ack=%.2f", r.Uniform(0.02, 0.20)))
		}
		if r.Coin(0.3) {
			parts = append(parts, fmt.Sprintf("jam=%.2f", r.Uniform(0.02, 0.15)))
		}
		if r.Coin(0.3) {
			parts = append(parts, fmt.Sprintf("deaf=%.2f", r.Uniform(0.02, 0.15)))
		}
		s.Faults = strings.Join(parts, ",")
	}
	if r.Coin(0.3) {
		s.ProbeIntervalUS = 500 + 250*r.Intn(10)
	}
	if r.Coin(0.3) {
		s.ScanIntervalMS = 10 + 10*r.Intn(10)
	}
	return s
}

// Leg is everything one drive leg produces that the oracles compare
// byte for byte.
type Leg struct {
	Result  *world.Result
	Report  []byte // telemetry report JSON
	Stream  []byte // flight-recorder NDJSON
	LogData []byte // recorded frame log (recording legs only)
}

// RunLeg executes one drive of spec on workers goroutines with full
// capture plumbing. At most one of record/log may be set: record
// captures a frame log, log replays one (check log.Err afterwards).
func RunLeg(spec jobspec.Spec, workers int, record bool, log *replay.Log) (Leg, error) {
	cfg, err := spec.WorldConfig()
	if err != nil {
		return Leg{}, err
	}
	cfg.Workers = workers
	reg := telemetry.NewRegistry(nil)
	cfg.Metrics = reg
	var streamBuf bytes.Buffer
	cfg.Stream = stream.NewWriter(&streamBuf)
	var logBuf bytes.Buffer
	var rec *replay.Recorder
	if record {
		rec = replay.NewRecorder(&logBuf)
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return Leg{}, err
		}
		rec.SetSpec(specJSON)
		cfg.Record = rec
	}
	cfg.Replay = log

	res := world.Run(cfg)
	if err := cfg.Stream.Err(); err != nil {
		return Leg{}, fmt.Errorf("fuzzer: stream: %w", err)
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return Leg{}, fmt.Errorf("fuzzer: recorder: %w", err)
		}
	}
	var rep bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&rep); err != nil {
		return Leg{}, err
	}
	return Leg{Result: res, Report: rep.Bytes(), Stream: streamBuf.Bytes(), LogData: logBuf.Bytes()}, nil
}

// CompareLegs reports the first byte-level disagreement between two
// legs of the same spec.
func CompareLegs(what string, a, b Leg) error {
	if !bytes.Equal(a.Stream, b.Stream) {
		return fmt.Errorf("%s: flight-recorder streams differ (%d vs %d bytes)", what, len(a.Stream), len(b.Stream))
	}
	if !bytes.Equal(a.Report, b.Report) {
		return fmt.Errorf("%s: telemetry reports differ (%d vs %d bytes)", what, len(a.Report), len(b.Report))
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		return fmt.Errorf("%s: census results differ", what)
	}
	return nil
}

// checkDeterminism runs the spec twice — workers=1 vs the drawn worker
// count — and compares.
func checkDeterminism(spec jobspec.Spec, altWorkers int) error {
	base, err := RunLeg(spec, 1, false, nil)
	if err != nil {
		return err
	}
	alt, err := RunLeg(spec, altWorkers, false, nil)
	if err != nil {
		return err
	}
	return CompareLegs(fmt.Sprintf("workers 1 vs %d", altWorkers), base, alt)
}

// replayFailure carries the evidence a failed record/replay check
// leaves behind: the (possibly tampered) log and where replay stopped
// trusting it.
type replayFailure struct {
	err       error
	logData   []byte
	truncLine int // line index of the diverging record; 0 = unknown
}

// checkReplay records the spec's drive, applies the tamper hook, and
// replays the log against a fresh live run of the same spec. Any byte
// difference or unconsumed log suffix is a failure.
func checkReplay(spec jobspec.Spec, opts Options) (*replayFailure, error) {
	recorded, err := RunLeg(spec, spec.Workers, true, nil)
	if err != nil {
		return nil, err
	}
	logData := recorded.LogData
	if opts.Tamper != nil {
		logData, err = tamperLog(logData, opts.Tamper)
		if err != nil {
			return nil, err
		}
	}
	log, err := replay.Load(bytes.NewReader(logData))
	if err != nil {
		return &replayFailure{err: err, logData: logData}, nil
	}
	replayed, err := RunLeg(spec, spec.Workers, false, log)
	if err != nil {
		return nil, err
	}
	if err := log.Err(); err != nil {
		f := &replayFailure{err: err, logData: logData}
		var de *replay.DivergenceError
		if errors.As(err, &de) {
			f.truncLine = de.Record
		}
		return f, nil
	}
	if err := CompareLegs("record vs replay", recorded, replayed); err != nil {
		return &replayFailure{err: err, logData: logData}, nil
	}
	return nil, nil
}

// tamperLog decodes the log's record lines with the frame-log codec,
// hands them to the hook, and re-encodes them. The head line passes
// through untouched; an unchanged log is returned verbatim.
func tamperLog(logData []byte, tamper func([]replay.Record) bool) ([]byte, error) {
	lines := splitLines(logData)
	if len(lines) == 0 {
		return logData, nil
	}
	recs := make([]replay.Record, 0, len(lines)-1)
	dec := replay.NewRecordDecoder()
	for i, line := range lines[1:] {
		rec, err := dec.Decode(line)
		if err != nil {
			return nil, fmt.Errorf("fuzzer: tamper: record line %d: %w", i+1, err)
		}
		recs = append(recs, rec)
	}
	if !tamper(recs) {
		return logData, nil
	}
	out := make([]byte, 0, len(logData))
	out = append(append(out, lines[0]...), '\n')
	for i := range recs {
		var err error
		if out, err = replay.AppendRecord(out, &recs[i]); err != nil {
			return nil, err
		}
		out = append(out, '\n')
	}
	return out, nil
}

// splitLines splits NDJSON into its non-empty lines.
func splitLines(data []byte) [][]byte {
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return lines
}

// runIteration evaluates both oracles for one scenario and shrinks the
// first failure.
func runIteration(iter int, spec jobspec.Spec, altWorkers int, opts Options) (Finding, bool, error) {
	if err := checkDeterminism(spec, altWorkers); err != nil {
		shrunk, lastErr := shrinkSpec(spec, func(s jobspec.Spec) error {
			return checkDeterminism(s, altWorkers)
		})
		f := Finding{Iteration: iter, Oracle: "determinism", Spec: shrunk, Err: lastErr}
		return f, true, writeArtifacts(&f, opts)
	}

	fail, err := checkReplay(spec, opts)
	if err != nil {
		return Finding{}, false, err
	}
	if fail == nil {
		return Finding{}, false, nil
	}
	var last *replayFailure
	shrunk, _ := shrinkSpec(spec, func(s jobspec.Spec) error {
		rf, err := checkReplay(s, opts)
		if err != nil || rf == nil {
			return nil // plumbing errors don't count as the bug persisting
		}
		last = rf
		return rf.err
	})
	if last == nil {
		last = fail
	}
	logData := truncateLog(last.logData, last.truncLine)
	f := Finding{
		Iteration: iter,
		Oracle:    "replay",
		Spec:      shrunk,
		Err:       last.err,
		Log:       logData,
		Records:   max(0, len(splitLines(logData))-1),
	}
	return f, true, writeArtifacts(&f, opts)
}

// shrinkSpec greedily reduces the spec one knob at a time, keeping each
// reduction that still fails, until a full pass accepts nothing. It
// returns the shrunk spec and the failure observed on it.
func shrinkSpec(spec jobspec.Spec, fails func(jobspec.Spec) error) (jobspec.Spec, error) {
	lastErr := fails(spec)
	if lastErr == nil {
		// The failure did not reproduce on a re-run; report the
		// original spec (a flaky finding is itself worth seeing).
		return spec, errors.New("failure did not reproduce during shrinking")
	}
	reductions := []func(*jobspec.Spec) bool{
		func(s *jobspec.Spec) bool { return replaceInt(&s.Workers, 1) },
		func(s *jobspec.Spec) bool { return replaceString(&s.Faults, "") },
		func(s *jobspec.Spec) bool { return replaceInt(&s.ProbeIntervalUS, 0) },
		func(s *jobspec.Spec) bool { return replaceInt(&s.ScanIntervalMS, 0) },
		func(s *jobspec.Spec) bool { return replaceInt(&s.StopSize, 1) },
		func(s *jobspec.Spec) bool {
			if s.Scale <= 0.002 {
				return false
			}
			s.Scale = max(0.002, s.Scale/2)
			return true
		},
		func(s *jobspec.Spec) bool {
			if s.DwellMS <= 40 {
				return false
			}
			s.DwellMS = max(40, s.DwellMS/2)
			return true
		},
	}
	for changed := true; changed; {
		changed = false
		for _, reduce := range reductions {
			candidate := spec
			if !reduce(&candidate) {
				continue
			}
			if err := fails(candidate); err != nil {
				spec, lastErr = candidate, err
				changed = true
			}
		}
	}
	return spec, lastErr
}

func replaceInt(p *int, v int) bool {
	if *p == v {
		return false
	}
	*p = v
	return true
}

func replaceString(p *string, v string) bool {
	if *p == v {
		return false
	}
	*p = v
	return true
}

// truncateLog keeps the head plus every record up to and including the
// diverging line; truncLine 0 (no position) keeps the whole log.
func truncateLog(logData []byte, truncLine int) []byte {
	if truncLine <= 0 {
		return logData
	}
	lines := splitLines(logData)
	if truncLine >= len(lines) {
		return logData
	}
	var out bytes.Buffer
	for _, line := range lines[:truncLine+1] {
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// writeArtifacts persists a finding's shrunk log and spec.
func writeArtifacts(f *Finding, opts Options) error {
	if opts.ArtifactDir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.ArtifactDir, 0o755); err != nil {
		return err
	}
	specJSON, err := json.MarshalIndent(f.Spec, "", "  ")
	if err != nil {
		return err
	}
	specPath := filepath.Join(opts.ArtifactDir, fmt.Sprintf("finding-%d.spec.json", f.Iteration))
	if err := os.WriteFile(specPath, append(specJSON, '\n'), 0o644); err != nil {
		return err
	}
	if len(f.Log) > 0 {
		logPath := filepath.Join(opts.ArtifactDir, fmt.Sprintf("finding-%d.ndjson", f.Iteration))
		if err := os.WriteFile(logPath, f.Log, 0o644); err != nil {
			return err
		}
		f.Artifact = logPath
	} else {
		f.Artifact = specPath
	}
	return nil
}
