package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"politewifi/internal/eventsim"
	"politewifi/internal/experiments"
	"politewifi/internal/jobspec"
	"politewifi/internal/replay"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// deriveSeed maps the workload seed to the k-th seed a workload hands
// the program (splitmix64), never 0, which the job spec reads as
// "default".
func deriveSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if s := int64(z >> 1); s != 0 {
		return s
	}
	return 1
}

// runWorld runs one drive. Traced, it records a world.Run span and
// dispatches the stops to a span-recording pool of cfg.Workers
// workers instead of world.Run's own pool.
func runWorld(cfg world.Config, tr *tracer) *world.Result {
	if tr == nil {
		return world.Run(cfg)
	}
	id, end := tr.start("world.Run", 0)
	defer end()
	pool := newStopPool(cfg.Workers, tr, id)
	defer pool.Close()
	cfg.Submit = pool.Submit
	return world.Run(cfg)
}

// --- drive ---

// driveSession is the ROADMAP headline: one full-scale, fault-free
// Table 2 drive on all cores, no observers attached.
type driveSession struct {
	cfg      world.Config
	expected int // devices in the city the seed builds
}

func setupDrive(seed int64) (session, error) {
	cfg := world.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = runtime.NumCPU()
	// The inputs: the city world.Run will build from this seed (its
	// first RNG fork), for the device count the census must reach.
	city := world.BuildCity(eventsim.NewRNG(seed).Fork(), cfg.Scale)
	// Warm the per-stop pools and arenas on a small drive first.
	warm := cfg
	warm.Scale = 0.05
	if r := world.Run(warm); r.Total() == 0 || r.TotalResponded() != r.Total() {
		return nil, errors.New("warm-up drive: not every discovered device responded")
	}
	return &driveSession{cfg: cfg, expected: city.TotalAPs + city.TotalClients}, nil
}

func (s *driveSession) run(until time.Time, tr *tracer) phase {
	var p phase
	p.repeat(until, func() opResult {
		t0 := now()
		res := runWorld(s.cfg, tr)
		o := opResult{wall: now().Sub(t0), key: "drive"}
		o.err = s.check(res)
		o.digest = digest([]byte(experiments.Table2FromResult(res).Render()))
		return o
	})
	return p
}

// check holds the paper's headline: every device the drive discovered
// acknowledged the fake frames (Table 2's 100%).
func (s *driveSession) check(res *world.Result) error {
	switch {
	case res.Cancelled || res.StopsDone != res.Stops:
		return fmt.Errorf("drive: stopped after %d of %d stops", res.StopsDone, res.Stops)
	case res.Total() == 0 || res.Total() > s.expected:
		return fmt.Errorf("drive: discovered %d devices in a city of %d", res.Total(), s.expected)
	case res.TotalResponded() != res.Total() || len(res.NonResponders) > 0:
		return fmt.Errorf("drive: %d of %d discovered devices responded", res.TotalResponded(), res.Total())
	}
	return nil
}

func (s *driveSession) counters() (detCounters, error) {
	cfg := s.cfg
	reg := telemetry.NewRegistry(nil)
	cfg.Metrics = reg
	res := world.Run(cfg)
	if err := s.check(res); err != nil {
		return detCounters{}, err
	}
	var c detCounters
	c.fromReport(reg.Snapshot())
	c.Digest = digest([]byte(experiments.Table2FromResult(res).Render()))
	return c, nil
}

func (s *driveSession) close() {}

// --- lab ---

// labSeeds is how many seeds, derived from the workload seed, one lab
// operation sweeps.
const labSeeds = 3

// labSession runs the paper's single-victim experiments, one thread.
type labSession struct {
	seeds  []int64
	digest string // of the last operation's rendered output
}

func setupLab(seed int64) (session, error) {
	s := &labSession{}
	for k := 0; k < labSeeds; k++ {
		s.seeds = append(s.seeds, deriveSeed(seed, k))
	}
	// Warm up on the cheap experiments and a short Figure 6 window.
	experiments.Table1(s.seeds[0])
	experiments.Figure2(s.seeds[0])
	experiments.Figure3(s.seeds[0])
	experiments.Figure6(s.seeds[0], eventsim.Second)
	return s, nil
}

// suite runs every lab experiment for one seed, checks the paper's
// claims and returns the rendered outputs.
func (s *labSession) suite(seed int64, tr *tracer) ([]byte, error) {
	var out bytes.Buffer
	var errs []string
	call := func(name string, f func() (string, string)) {
		_, end := tr.start("experiments."+name, 0)
		text, fail := f()
		end()
		out.WriteString(text)
		if fail != "" {
			errs = append(errs, fmt.Sprintf("%s (seed %d): %s", name, seed, fail))
		}
	}
	call("Figure6", func() (string, string) {
		r := experiments.Figure6(seed, 0)
		return r.Render(), failIf(!r.ShapeHolds, "power curve shape does not hold")
	})
	call("Figure5", func() (string, string) {
		r := experiments.Figure5(seed)
		return r.Render(), failIf(!r.Separable, "activity phases not separable from ACK CSI")
	})
	call("Table1", func() (string, string) {
		r := experiments.Table1(seed)
		return r.Render(), failIf(!r.AllPolite, "a device did not acknowledge fake frames")
	})
	call("Figure2", func() (string, string) {
		r := experiments.Figure2(seed)
		return r.Render(), failIf(!r.Acked, "fake frame not acknowledged")
	})
	call("Figure3", func() (string, string) {
		r := experiments.Figure3(seed)
		return r.Render(), failIf(!r.AckedDespite || !r.AckedBlocklist, "deauthing AP did not acknowledge")
	})
	if len(errs) > 0 {
		return out.Bytes(), errors.New("lab: " + strings.Join(errs, "; "))
	}
	return out.Bytes(), nil
}

func failIf(bad bool, msg string) string {
	if bad {
		return msg
	}
	return ""
}

func (s *labSession) run(until time.Time, tr *tracer) phase {
	var p phase
	p.repeat(until, func() opResult {
		t0 := now()
		var outs [][]byte
		var err error
		for _, seed := range s.seeds {
			out, e := s.suite(seed, tr)
			outs = append(outs, out)
			err = errors.Join(err, e)
		}
		s.digest = digest(outs...)
		return opResult{wall: now().Sub(t0), err: err, key: "lab", digest: s.digest}
	})
	return p
}

// counters: the experiments keep their schedulers private, so the lab
// has no telemetry counters to read from outside; its deterministic
// record is the digest of everything the experiments rendered.
func (s *labSession) counters() (detCounters, error) {
	return detCounters{Digest: s.digest}, nil
}

func (s *labSession) close() {}

// --- replay ---

// replayScale sizes the recorded drive: large enough that the log
// write and load dominate the per-operation fixed costs, small enough
// that a run holds several operations.
const replayScale = 0.1

// replayFaults is the channel the recorded drive runs on; faults make
// the recorder log fault outcomes and the replay consult them.
const replayFaults = "loss=0.3,ack=0.1,jam=0.2,deaf=0.1"

// replaySession records a faulted, observed drive to a frame-log
// file the way `politewifi wardrive -record` does, loads it and
// replays it, checking the replayed stream against the recorded one.
// Operation i drives the city of its own seed, derived from the
// workload seed and i: cities differ enough in log size that a run's
// median should cover several rather than lean on one.
type replaySession struct {
	spec  jobspec.Spec // Seed is the workload seed; operations derive theirs
	path  string
	ops   int         // operations run so far
	first detCounters // operation 0's counters
}

func setupReplay(seed int64) (session, error) {
	spec := jobspec.Drive()
	spec.Seed = seed
	spec.Scale = replayScale
	spec.Faults = replayFaults
	spec.Workers = runtime.NumCPU()
	dir := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &replaySession{spec: spec, path: filepath.Join(dir, fmt.Sprintf("framelog-%d.ndjson", os.Getpid()))}
	// Warm up with one small record/load/replay cycle.
	warm := *s
	warm.spec.Scale = 0.02
	if o, _ := warm.op(-1, nil, nil); o.err != nil {
		return nil, fmt.Errorf("warm-up: %w", o.err)
	}
	return s, nil
}

// observed returns cfg with a fresh registry and stream attached, as
// the wardrive CLI attaches them for -metrics/-stream.
func observed(cfg world.Config) (world.Config, *telemetry.Registry, *bytes.Buffer) {
	reg := telemetry.NewRegistry(nil)
	var buf bytes.Buffer
	cfg.Metrics = reg
	cfg.Stream = stream.NewWriter(&buf)
	return cfg, reg, &buf
}

// op is operation i's record → load → replay cycle; p, when non-nil,
// collects the Load time.
func (s *replaySession) op(i int, tr *tracer, p *phase) (opResult, detCounters) {
	t0 := now()
	o := opResult{key: fmt.Sprintf("replay%d", i)}
	var c detCounters
	fail := func(err error) (opResult, detCounters) {
		o.wall = now().Sub(t0)
		o.err = fmt.Errorf("replay: %w", err)
		return o, c
	}
	defer os.Remove(s.path)

	spec := s.spec
	spec.Seed = deriveSeed(s.spec.Seed, i)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	base, err := spec.WorldConfig()
	if err != nil {
		return fail(err)
	}
	cfg, reg, recorded := observed(base)
	f, err := os.Create(s.path)
	if err != nil {
		return fail(err)
	}
	rec := replay.NewRecorder(f)
	rec.SetSpec(specJSON)
	cfg.Record = rec
	runWorld(cfg, tr)
	if err := errors.Join(rec.Err(), cfg.Stream.Err(), f.Close()); err != nil {
		return fail(err)
	}

	f, err = os.Open(s.path)
	if err != nil {
		return fail(err)
	}
	_, end := tr.start("replay.Load", 0)
	l0 := now()
	log, err := replay.Load(f)
	load := now().Sub(l0)
	end()
	f.Close()
	if err != nil {
		return fail(err)
	}
	if p != nil {
		p.add("replay.load_s", load.Seconds())
	}
	st, err := os.Stat(s.path)
	if err != nil {
		return fail(err)
	}

	rcfg, _, replayed := observed(base)
	rcfg.Replay = log
	runWorld(rcfg, tr)
	o.wall = now().Sub(t0)
	switch {
	case log.Err() != nil:
		return fail(log.Err())
	case !bytes.Equal(recorded.Bytes(), replayed.Bytes()):
		return fail(fmt.Errorf("replayed stream (%d bytes) differs from the recorded one (%d bytes)", replayed.Len(), recorded.Len()))
	}
	c.fromReport(reg.Snapshot())
	c.StreamBytes = uint64(recorded.Len())
	c.LogBytes = uint64(st.Size())
	c.Digest = digest(recorded.Bytes())
	return o, c
}

func (s *replaySession) run(until time.Time, tr *tracer) phase {
	var p phase
	p.repeat(until, func() opResult {
		i := s.ops
		s.ops++
		o, c := s.op(i, tr, &p)
		if i == 0 {
			s.first = c
		}
		return o
	})
	return p
}

// counters: every replay operation is observed, so operation 0
// already carries them.
func (s *replaySession) counters() (detCounters, error) {
	if s.first.Digest == "" {
		return detCounters{}, errors.New("replay: operation 0 did not complete cleanly")
	}
	return s.first, nil
}

func (s *replaySession) close() { os.Remove(s.path) }
