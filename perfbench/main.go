// Command perfbench is politewifi's benchmark: four workloads (drive,
// lab, served, replay) run against the simulator's public API, every
// output checked, end-to-end metrics printed by name with their units.
// A traced run (--trace 1) adds a per-module CPU table folded from a
// CPU profile of the benchmark process, the program's own telemetry
// counters, and spans around the benchmark's calls into each module.
// See README.md in this directory for why each workload exists and
// which layer metric should move which end-to-end metric.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload drive --seed 20201104 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind (per-run results, span
// traces, determinism counters, scratch files), relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// setupReps is how many times a run sets its workload up; setup_s is
// their median, so a one-off stall does not read as a regression.
const setupReps = 3

// workload is one named load: setup builds its inputs and reference
// outputs and returns a session ready to run operations.
type workload struct {
	name  string
	op    string // what one operation is, for the printed report
	setup func(seed int64) (session, error)
}

var workloads = []workload{
	{"drive", "full-scale Table 2 drive", setupDrive},
	{"lab", "lab suite (Fig 6/5/2/3, Table 1) over 3 seeds", setupLab},
	{"served", "politewifid job, submit to stream EOF", setupServed},
	{"replay", "record + load + replay of a faulted drive", setupReplay},
}

// session is a workload after set-up.
type session interface {
	// run performs operations until the deadline (at least one),
	// recording spans on tr when it is non-nil.
	run(until time.Time, tr *tracer) phase
	// counters runs one untimed, observed operation, or reads its
	// references, and returns the deterministic cost counters.
	counters() (detCounters, error)
	close()
}

// opResult is one operation's outcome.
type opResult struct {
	// wall and cpu are the operation's wall and process CPU time; cpu
	// is 0 where operations overlap (served).
	wall, cpu time.Duration
	// err is set when the operation failed its output check or was
	// refused.
	err error
	// digest hashes the operation's deterministic output. Operations
	// with the same key must produce the same digest.
	key, digest string
}

// phase is what one timed stretch of operations produced.
type phase struct {
	ops []opResult
	// samples holds per-operation timings, in seconds, that a
	// workload measures inside its operations (served: first-record
	// latency, submit latency, queue wait; replay: Load time).
	samples map[string][]float64
	cpu     time.Duration // process CPU time over the phase
}

func (p *phase) add(name string, v float64) {
	if p.samples == nil {
		p.samples = make(map[string][]float64)
	}
	p.samples[name] = append(p.samples[name], v)
}

func (p *phase) walls() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = o.wall.Seconds()
	}
	return out
}

// cpuPerOp is the median operation's process CPU time or, where
// operations overlap (served), the phase's CPU time divided over them.
func (p *phase) cpuPerOp() float64 {
	cpus := make([]float64, 0, len(p.ops))
	for _, o := range p.ops {
		if o.cpu == 0 {
			return p.cpu.Seconds() / float64(len(p.ops))
		}
		cpus = append(cpus, o.cpu.Seconds())
	}
	return median(cpus)
}

// measure runs one timed phase.
func measure(s session, d time.Duration, tr *tracer) phase {
	cpu0, t0 := cpuTime(), now()
	p := s.run(t0.Add(d), tr)
	p.cpu = cpuTime() - cpu0
	return p
}

// repeat runs op back to back until the deadline passes, at least
// once, and records each operation's process CPU time.
func (p *phase) repeat(until time.Time, op func() opResult) {
	for len(p.ops) == 0 || now().Before(until) {
		cpu0 := cpuTime()
		o := op()
		o.cpu = cpuTime() - cpu0
		p.ops = append(p.ops, o)
	}
}

// metric is one named value in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "drive", "workload: drive, lab, served, replay, or all")
	seed := flag.Int64("seed", 20201104, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run: per-module CPU table and per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	prov := provenance(*seed)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)

	total := result{Correct: true, Metrics: make(map[string]metric)}
	dur := time.Duration(*seconds * float64(time.Second))
	for _, w := range run {
		if len(run) > 1 {
			resetPeakRSS()
		}
		r, err := runWorkload(w, *seed, dur, *trace == 1, prov)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if len(run) == 1 {
			total = r
			break
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// runWorkload sets w up, measures it, checks every output and prints
// its report. With traced set, half the time runs untraced (the
// baseline for the tracing overhead) and half under the profiler.
func runWorkload(w workload, seed int64, d time.Duration, traced bool, prov map[string]any) (result, error) {
	var s session
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := now()
		var err error
		if s, err = w.setup(seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	defer s.close()

	rep := report{workload: w, seed: seed, traced: traced}
	if !traced {
		rep.main = measure(s, d, nil)
	} else {
		rep.main = measure(s, d/2, nil)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr := newTracer()
		rep.trPhase = measure(s, d-d/2, tr)
		runtime.ReadMemStats(&m1)
		pprof.StopCPUProfile()
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		rep.folded = p.fold()
		rep.tr = tr
		rep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		rep.gcCycles = m1.NumGC - m0.NumGC
		rep.counters, rep.countersErr = s.counters()
	}
	rep.setupS = median(setups)
	rep.peakRSS = peakRSSMB()
	rep.check()
	return rep.emit(prov)
}

// report gathers one workload run's measurements.
type report struct {
	workload    workload
	seed        int64
	setupS      float64
	peakRSS     float64
	main        phase // untraced
	traced      bool
	trPhase     phase
	tr          *tracer
	folded      map[string]int64
	allocBytes  uint64
	gcCycles    uint32
	counters    detCounters
	countersErr error
	failures    []string
}

// check applies the determinism checks on top of each operation's own
// output check: operations with equal keys must agree on their digest,
// and a traced run's counters must match those any earlier run of the
// same binary recorded for this workload and seed.
func (r *report) check() {
	first := make(map[string]string)
	for _, p := range []*phase{&r.main, &r.trPhase} {
		for i := range p.ops {
			o := &p.ops[i]
			if o.err != nil || o.digest == "" {
				continue
			}
			if d, ok := first[o.key]; !ok {
				first[o.key] = o.digest
			} else if d != o.digest {
				o.err = fmt.Errorf("determinism: output %s differs from an earlier operation on the same input", o.key)
			}
		}
		for _, o := range p.ops {
			if o.err != nil {
				r.failures = append(r.failures, o.err.Error())
			}
		}
	}
	if r.traced {
		err := r.countersErr
		if err == nil {
			err = r.counters.checkAgainstEarlier(r.workload.name, r.seed)
		}
		if err != nil {
			r.failures = append(r.failures, "counters: "+err.Error())
		}
	}
}

func (r *report) attempted() int {
	n := len(r.main.ops) + len(r.trPhase.ops)
	if r.traced {
		n++ // the counters check
	}
	return n
}

// emit prints the report, writes it (and any spans) under outDir, and
// returns the result line.
func (r *report) emit(prov map[string]any) (result, error) {
	res := result{Attempted: r.attempted(), Failed: len(r.failures)}
	res.Correct = res.Failed == 0
	e2e := r.endToEnd()
	if !r.traced {
		res.Metrics = e2e
	} else {
		res.Metrics = r.perLayer()
	}

	w := r.workload
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d trace %v: %d ops (%s)\n", w.name, r.seed, r.traced, len(r.main.ops)+len(r.trPhase.ops), w.op)
	printMetrics(&b, e2e)
	fmt.Fprintf(&b, "  %-24s %14.6g %-6s %d failed of %d attempted\n", "error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	for _, s := range r.extraLines() {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	if r.traced {
		fmt.Fprintf(&b, "per-layer (traced phase, %d ops):\n", len(r.trPhase.ops))
		printMetrics(&b, res.Metrics)
		fmt.Fprintf(&b, "cpu by module (traced phase, per op):\n")
		for _, row := range shareTable(r.folded) {
			fmt.Fprintf(&b, "  %-14s %10.4f s %6.1f%%\n", row.module, float64(row.ns)/1e9/float64(len(r.trPhase.ops)), 100*row.share)
		}
		fmt.Fprintf(&b, "deterministic counters: %s\n", r.counters)
	}
	for _, f := range r.failures {
		fmt.Fprintf(&b, "FAILED: %s\n", f)
	}
	fmt.Print(b.String())

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, r.seed, btoi(r.traced)))
	rec := map[string]any{
		"provenance": prov, "workload": w.name, "result": res, "end_to_end": e2e,
		"failures": r.failures, "op_wall_s": r.main.walls(),
	}
	if r.traced {
		table := map[string]float64{}
		for _, row := range shareTable(r.folded) {
			table[row.module] = row.share
		}
		rec["cpu_share_by_module"] = table
		rec["counters"] = r.counters
		var spans bytes.Buffer
		if err := r.tr.writeJSON(&spans); err != nil {
			return res, err
		}
		if err := os.WriteFile(base+".spans.json", spans.Bytes(), 0o644); err != nil {
			return res, err
		}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return res, err
	}
	return res, os.WriteFile(base+".json", append(out, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printMetrics(b *strings.Builder, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b, "  %-24s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// endToEnd computes the metrics a user of the system sees, from the
// untraced phase.
func (r *report) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {r.setupS, "s"},
		"wall_s":      {median(r.main.walls()), "s"},
		"cpu_s":       {r.main.cpuPerOp(), "s"},
		"peak_rss_mb": {r.peakRSS, "MiB"},
	}
}

// extraLines reports what only some workloads have: the served
// latency percentiles that need more samples than a drive yields.
func (r *report) extraLines() []string {
	var out []string
	if r.workload.name == "served" {
		jobs := r.main.walls()
		out = append(out,
			fmt.Sprintf("%-24s %14.6g s      median of %d jobs", "job_p50_s", median(jobs), len(jobs)),
			fmt.Sprintf("%-24s %14s s      of %d jobs (n/a below 100)", "job_p90_s", fmtTail(jobs, 0.9), len(jobs)),
			fmt.Sprintf("%-24s %14.6g s", "first_record_p50_s", median(r.main.samples["first_record_s"])),
		)
	}
	return out
}

func fmtTail(xs []float64, p float64) string {
	if v, ok := tail(xs, p); ok {
		return fmt.Sprintf("%.6g", v)
	}
	return "n/a"
}

// layerModules are the modules whose CPU per operation is a per-layer
// metric. Modules outside the list still appear in the printed table.
var layerModules = []string{
	"arena", "core", "crypto80211", "csi", "dot11", "eventsim", "experiments",
	"faults", "mac", "phy", "power", "radio", "replay", "serve",
	"telemetry", "world", "gc", "other",
}

// perLayer computes the traced run's per-layer metrics. Every value
// is per operation of the traced phase, so runs of different lengths
// compare; a layer the workload never reaches reads 0.
func (r *report) perLayer() map[string]metric {
	ops := float64(len(r.trPhase.ops))
	m := make(map[string]metric)
	for _, mod := range layerModules {
		m[mod+".cpu_s"] = metric{float64(r.folded[mod]) / 1e9 / ops, "s"}
	}
	c := r.counters
	m["eventsim.events"] = metric{float64(c.EventsFired), "count"}
	nsPerEvent := 0.0
	if c.EventsFired > 0 {
		nsPerEvent = float64(r.folded["eventsim"]) / ops / float64(c.EventsFired)
	}
	m["eventsim.ns_per_event"] = metric{nsPerEvent, "ns"}
	m["radio.transmissions"] = metric{float64(c.Transmissions), "count"}
	m["radio.deliveries"] = metric{float64(c.Deliveries), "count"}
	m["mac.acks"] = metric{float64(c.Acks), "count"}
	m["core.probes_injected"] = metric{float64(c.ProbesInjected), "count"}
	dropRatio := 0.0
	if c.Injected > 0 {
		dropRatio = float64(c.InjectDrops) / float64(c.Injected)
	}
	m["core.inject_drop_ratio"] = metric{dropRatio, "ratio"}
	m["faults.consulted"] = metric{float64(c.FaultsConsulted), "count"}
	m["stream.mb"] = metric{float64(c.StreamBytes) / (1 << 20), "MiB"}
	m["replay.log_mb"] = metric{float64(c.LogBytes) / (1 << 20), "MiB"}
	m["replay.load_s"] = metric{median(r.trPhase.samples["replay.load_s"]), "s"}

	stops := r.tr.named("world.stop")
	m["world.stop_p50_ms"] = metric{1e3 * median(stops), "ms"}
	m["world.stop_p99_ms"] = metric{1e3 * tailOrZero(stops, 0.99), "ms"}
	busy := 0.0
	if runs := sum(r.tr.named("world.Run")); runs > 0 && len(stops) > 0 {
		busy = sum(stops) / (runs * float64(runtime.GOMAXPROCS(0)))
	}
	m["world.busy_frac"] = metric{busy, "ratio"}

	m["serve.submit_ms"] = metric{1e3 * median(r.trPhase.samples["submit_s"]), "ms"}
	m["serve.queue_wait_p50_s"] = metric{median(r.trPhase.samples["queue_wait_s"]), "s"}
	m["serve.first_record_p50_s"] = metric{median(r.trPhase.samples["first_record_s"]), "s"}
	served := 0.0
	if r.workload.name == "served" {
		served = float64(c.StreamBytes) / (1 << 20)
	}
	m["serve.stream_mb"] = metric{served, "MiB"}

	m["gc.alloc_mb"] = metric{float64(r.allocBytes) / (1 << 20) / ops, "MiB"}
	m["gc.cycles"] = metric{float64(r.gcCycles) / ops, "count"}
	m["trace_overhead_s"] = metric{median(r.trPhase.walls()) - median(r.main.walls()), "s"}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
