// Command politewifi is the interactive driver for the Polite WiFi
// toolkit. Each subcommand stands up a simulated WPA2 home network
// with a victim device, places an unauthenticated attacker outside
// it, and runs one attack from the paper:
//
//	politewifi probe   [-n N] [-rts]         fake frames → count ACKs/CTSs
//	politewifi scan    [-homes N] [-secs S]  neighbourhood scan pipeline
//	politewifi drain   [-rate R] [-secs S]   battery-drain power measurement
//	politewifi sense   [-rate R] [-secs S]   CSI capture during typing
//	politewifi sifs                          decode-vs-SIFS feasibility table
//	politewifi jam     [-secs S]             NAV (virtual) jamming demo
//	politewifi deauth  [-pmf]                forged-deauth attack vs 802.11w
//	politewifi locate  [-dist M] [-n N]      time-of-flight ranging via ACKs
//	politewifi stats   [-n N]                run the lab scenario, print telemetry
//	politewifi wardrive [-scale F] [-workers N] [-faults SPEC] [-stream FILE] [-record FILE] [-progress]  the §3 city-wide census (Table 2)
//	politewifi losssweep [-scale F] [-workers N]  census accuracy vs channel loss rate
//	politewifi tail    [-fold FILE] STREAM       render a flight-recorder stream ("-" = stdin)
//	politewifi replay  [-workers N] LOG  re-run a recorded drive and diff it against a live run
//	politewifi fuzz    [-n N] [-seed S] [-artifacts DIR]  differential scenario fuzzer over random jobspecs
//
// wardrive shards the drive's RF-independent stops over -workers
// goroutines (default: all cores); the census is bit-identical for
// every worker count. -faults injects deterministic channel
// impairments (e.g. "loss=0.3,ack=0.1,jam=0.2,deaf=0.1"; see
// internal/faults); losssweep repeats the drive across loss rates.
//
// wardrive's -record FILE captures a politewifi.framelog/v1 frame log
// — one NDJSON record per transmission and CCA check, with the medium's
// per-receiver outcomes — that `politewifi replay` later re-runs
// bit-identically without re-simulating the RF medium, diffing the
// replay against a fresh live run of the embedded jobspec. fuzz draws
// random scenarios and asserts the determinism and record/replay
// oracles, shrinking any failure to a minimal frame log (see
// internal/fuzzer).
//
// wardrive's -stream FILE writes the flight recorder: one NDJSON
// record per completed stop, in stop order, byte-identical at every
// worker count ("-" streams to stdout with the human output moved to
// stderr). -progress renders a live meter on stderr. tail consumes a
// stream — a finished file or a live pipe — and renders it as a
// table; -fold FILE additionally folds the per-stop telemetry deltas
// back into a full report and writes it as JSON.
//
// The probe, scan, drain and stats subcommands accept -metrics FILE
// (write a telemetry report as JSON) and -trace FILE (write a
// frame-lifecycle trace as Chrome trace_event JSON, viewable in
// about:tracing or Perfetto).
//
// All radios, channels and victims are simulated; see DESIGN.md for
// the hardware→simulation substitutions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/csi"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/experiments"
	"politewifi/internal/fuzzer"
	"politewifi/internal/jobspec"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/power"
	"politewifi/internal/radio"
	"politewifi/internal/replay"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/trace"
	"politewifi/internal/world"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: politewifi <probe|scan|drain|sense|sifs|jam|deauth|locate|stats|wardrive|losssweep|tail|replay|fuzz> [flags]")
	os.Exit(2)
}

// telemetryFlags wires the -metrics/-trace flags into a subcommand
// and owns the registry and tracer they enable.
type telemetryFlags struct {
	metricsPath string
	tracePath   string
	wallTiming  bool

	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

func (t *telemetryFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&t.metricsPath, "metrics", "", "write a telemetry report (JSON) to `file`")
	fs.StringVar(&t.tracePath, "trace", "", "write a Chrome trace_event frame trace (JSON) to `file`")
}

// attach builds the registry on the scheduler's race-free clock and
// instruments the scheduler and medium. Layers above add themselves.
func (t *telemetryFlags) attach(sched *eventsim.Scheduler, medium *radio.Medium) *telemetry.Registry {
	t.reg = telemetry.NewRegistry(sched.ObservedNow)
	telemetry.AttachScheduler(t.reg, sched, t.wallTiming)
	medium.SetMetrics(radio.NewMetrics(t.reg))
	if t.tracePath != "" || t.wallTiming {
		t.tracer = telemetry.NewTracer()
		medium.SetTracer(t.tracer)
	}
	return t.reg
}

// flush writes the requested report and trace files and notes each
// on out.
func (t *telemetryFlags) flush(out io.Writer) {
	if t.metricsPath != "" && t.reg != nil {
		f, err := os.Create(t.metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		rep := t.reg.Snapshot()
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "\nwrote telemetry report (%d counters) to %s\n", len(rep.Counters), t.metricsPath)
	}
	if t.tracePath != "" && t.tracer != nil {
		f, err := os.Create(t.tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		if err := t.tracer.WriteChromeJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "wrote %d trace spans to %s (open in about:tracing or ui.perfetto.dev)\n",
			t.tracer.Len(), t.tracePath)
	}
}

var (
	apAddr     = dot11.MustMAC("f2:6e:0b:00:00:01")
	victimAddr = dot11.MustMAC("f2:6e:0b:12:34:56")
)

// lab is the standard demo network.
type lab struct {
	sched    *eventsim.Scheduler
	medium   *radio.Medium
	ap       *mac.Station
	victim   *mac.Station
	attacker *core.Attacker
}

// newLab builds the standard demo network. tf may be nil; when set,
// every layer of the lab is instrumented into tf.reg before any frame
// flies, so association warm-up traffic is counted too.
func newLab(seed int64, victimProfile mac.ChipsetProfile, tf *telemetryFlags) *lab {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(seed)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss:        radio.LogDistance{Exponent: 2.2},
		CaptureMarginDB: 10,
	})
	var macMx mac.Metrics
	if tf != nil {
		tf.attach(sched, medium)
		macMx = mac.NewMetrics(tf.reg)
	}
	l := &lab{sched: sched, medium: medium}
	psk := crypto80211.NewPSK("correct horse battery staple")
	l.ap = mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 0}, Band: phy.Band2GHz, Channel: 6,
	})
	l.victim = mac.New(medium, rng.Fork(), mac.Config{
		Name: "victim", Addr: victimAddr, Role: mac.RoleClient, Profile: victimProfile,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	l.ap.SetMetrics(macMx)
	l.victim.SetMetrics(macMx)
	l.victim.Associate(apAddr, nil)
	sched.RunFor(300 * eventsim.Millisecond)
	l.attacker = core.NewAttacker(medium, radio.Position{X: 12}, phy.Band2GHz, 6, core.DefaultFakeMAC)
	if tf != nil {
		l.attacker.InstrumentInto(tf.reg)
	}
	return l
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "probe":
		cmdProbe(args)
	case "scan":
		cmdScan(args)
	case "drain":
		cmdDrain(args)
	case "sense":
		cmdSense(args)
	case "sifs":
		fmt.Print(core.RenderFeasibility(core.FeasibilityStudy(500)))
	case "jam":
		cmdJam(args)
	case "deauth":
		cmdDeauth(args)
	case "locate":
		cmdLocate(args)
	case "stats":
		cmdStats(args)
	case "wardrive":
		cmdWardrive(args)
	case "losssweep":
		cmdLossSweep(args)
	case "tail":
		cmdTail(args)
	case "replay":
		cmdReplay(args)
	case "fuzz":
		cmdFuzz(args)
	default:
		usage()
	}
}

// cmdWardrive runs the §3 large-scale study with the stops sharded
// across a worker pool (see internal/world). The job flags are the
// canonical internal/jobspec set, shared with the politewifid daemon.
// SIGINT/SIGTERM cancel the drive cooperatively: in-flight stops
// finish, the stream ends with a trailer record, and the partial
// census prints marked cancelled.
func cmdWardrive(args []string) {
	fs := flag.NewFlagSet("wardrive", flag.ExitOnError)
	spec := jobspec.Drive()
	spec.RegisterDriveFlags(fs)
	streamPath := fs.String("stream", "", "stream per-stop flight-recorder records (NDJSON) to `file` (\"-\" = stdout)")
	recordPath := fs.String("record", "", "record a frame log (politewifi.framelog/v1 NDJSON) to `file` for politewifi replay")
	progress := fs.Bool("progress", false, "render a live progress meter on stderr")
	tf := &telemetryFlags{}
	tf.register(fs)
	fs.Parse(args)

	cfg, err := spec.WorldConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi:", err)
		os.Exit(2)
	}
	if tf.metricsPath != "" || *streamPath != "" {
		// Every stop owns a private scheduler; the merged registry
		// carries drive-wide totals, so no single clock applies. The
		// stream carries per-stop deltas of the same registry, so
		// -stream implies metrics collection.
		tf.reg = telemetry.NewRegistry(nil)
		cfg.Metrics = tf.reg
	}
	if tf.tracePath != "" {
		// Per-stop tracers merge in stop order with exchange/flow IDs
		// rebased, so the drive-wide trace is worker-count stable.
		tf.tracer = telemetry.NewTracer()
		cfg.Trace = tf.tracer
	}
	var streamFile *os.File
	if *streamPath != "" {
		if *streamPath == "-" {
			cfg.Stream = stream.NewWriter(os.Stdout)
		} else {
			f, err := os.Create(*streamPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "politewifi:", err)
				os.Exit(1)
			}
			streamFile = f
			cfg.Stream = stream.NewWriter(f)
		}
	}
	var recordFile *os.File
	var recorder *replay.Recorder
	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		recordFile = f
		recorder = replay.NewRecorder(f)
		specJSON, err := json.Marshal(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		recorder.SetSpec(specJSON)
		cfg.Record = recorder
	}
	if *progress {
		cfg.Progress = world.NewProgressPrinter(os.Stderr, time.Now)
	}

	// SIGINT/SIGTERM request a cooperative stop at the next stop
	// boundary; in-flight stops drain and the stream gets its trailer.
	// A second signal aborts outright.
	cancel := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "\npolitewifi: interrupted — finishing in-flight stops (signal again to abort)")
		close(cancel)
		<-sigc
		os.Exit(130)
	}()
	cfg.Cancel = cancel

	r := experiments.Table2WithConfig(cfg)
	signal.Stop(sigc)
	// When the stream rides stdout, NDJSON owns it and every
	// human-readable line moves to stderr.
	out := io.Writer(os.Stdout)
	if *streamPath == "-" {
		out = os.Stderr
	}
	fmt.Fprint(out, r.Render())
	if cfg.Stream != nil {
		if err := cfg.Stream.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "politewifi: stream:", err)
		}
		if streamFile != nil {
			if err := streamFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "politewifi:", err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "\nstreamed %d flight-recorder records to %s\n", cfg.Stream.Count(), *streamPath)
		}
	}
	if recorder != nil {
		if err := recorder.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "politewifi: record:", err)
			os.Exit(1)
		}
		if err := recordFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "\nrecorded %d frame-log records to %s (replay with: politewifi replay %s)\n",
			recorder.Records(), *recordPath, *recordPath)
	}
	tf.flush(out)
	if r.Run.Cancelled {
		fmt.Fprintf(os.Stderr, "politewifi: \"cancelled\": true — partial census covers %d of %d stops\n",
			r.Run.StopsDone, r.Run.Stops)
	}
}

// cmdTail consumes a flight-recorder stream — a finished file or a
// live pipe ("-" = stdin) — and renders each record as a table row
// the moment its line arrives, then prints the drive summary. Every
// record passes through stream.Folder, so a truncated or corrupted
// stream fails with a positioned error (record index + byte offset)
// and a cancelled drive's trailer renders as a cancellation notice
// instead of a bogus table row. -fold additionally rebuilds the full
// telemetry report from the per-stop deltas and writes it as JSON; by
// the stream's fold-equals-snapshot guarantee it matches the
// producer's -metrics report byte for byte.
func cmdTail(args []string) {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	foldPath := fs.String("fold", "", "fold per-stop telemetry deltas into a full report (JSON) at `file`")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: politewifi tail [-fold FILE] STREAM   (STREAM may be \"-\" for stdin)")
		os.Exit(2)
	}

	in := os.Stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	fmt.Printf("%5s  %10s  %8s %5s  %10s %10s %7s %7s\n",
		"stop", "sim", "devices", "new", "responded", "silent", "incon", "resp%")
	d := stream.NewDecoder(in)
	folder := stream.NewFolder()
	var simTotal eventsim.Time
	for {
		rec, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A *PosError: the message carries record index and byte
			// offset of the damage.
			fmt.Fprintln(os.Stderr, "politewifi: tail:", err)
			os.Exit(1)
		}
		if err := folder.Add(rec); err != nil {
			fmt.Fprintf(os.Stderr, "politewifi: tail: %v (record %d, byte offset %d)\n",
				err, d.Decoded()-1, d.Offset())
			os.Exit(1)
		}
		if rec.IsTrailer() {
			// The trailer carries no stop of its own; the cancellation
			// notice prints with the summary below.
			continue
		}
		simTotal += eventsim.Time(rec.SimEndNS - rec.SimStartNS)
		responded := rec.Totals.ClientsResponded + rec.Totals.APsResponded
		pct := 0.0
		if rec.Totals.Devices() > 0 {
			pct = 100 * float64(responded) / float64(rec.Totals.Devices())
		}
		fmt.Printf("%5d  %10s  %8d %+5d  %10d %10d %7d %6.1f%%\n",
			rec.Stop+1, eventsim.Time(rec.SimEndNS-rec.SimStartNS),
			rec.Totals.Devices(), rec.Census.Devices(),
			responded, rec.Totals.Silent, rec.Totals.Inconclusive, pct)
	}

	res := folder.Result()
	fmt.Printf("\n%d/%d stops: %d devices (%d clients, %d APs), %d responded, %d silent, %d inconclusive; %s simulated\n",
		res.Records, res.Stops, res.Totals.Devices(), res.Totals.Clients, res.Totals.APs,
		res.Totals.ClientsResponded+res.Totals.APsResponded,
		res.Totals.Silent, res.Totals.Inconclusive, simTotal)
	switch {
	case res.Cancelled:
		fmt.Printf("drive cancelled after %d/%d stops; partial census above\n", res.Records, res.Stops)
	case res.Records < res.Stops:
		fmt.Printf("stream ended early (%d of %d stops, no trailer); partial census above\n", res.Records, res.Stops)
	}

	if *foldPath != "" {
		if res.Registry == nil {
			fmt.Fprintln(os.Stderr, "politewifi: tail: stream carried no telemetry deltas to fold")
			os.Exit(1)
		}
		f, err := os.Create(*foldPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		rep := res.Registry.Snapshot()
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "politewifi:", err)
			os.Exit(1)
		}
		fmt.Printf("folded %d per-stop deltas into %s (%d counters)\n", res.Records, *foldPath, len(rep.Counters))
	}
}

// cmdReplay re-runs a recorded drive from its frame log — the medium's
// outcomes come from the log, not from simulation — and diffs it
// against a fresh live run of the jobspec embedded in the log's head.
// Any disagreement exits 1: a divergence inside the replay carries the
// record index and byte offset of the first event that no longer
// matches; a post-run byte difference names the artifact that changed.
// -workers overrides both legs' worker count (the output must not
// care).
func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker goroutines for both legs (0 = the recorded spec's count)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: politewifi replay [-workers N] LOG")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi:", err)
		os.Exit(1)
	}
	log, err := replay.Load(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi: replay:", err)
		os.Exit(1)
	}
	if len(log.Spec()) == 0 {
		fmt.Fprintln(os.Stderr, "politewifi: replay: log carries no jobspec in its head; cannot rebuild the drive")
		os.Exit(1)
	}
	spec, err := jobspec.Decode(bytes.NewReader(log.Spec()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi: replay:", err)
		os.Exit(1)
	}

	w := *workers
	if w == 0 {
		w = spec.Workers
	}
	replayed, err := fuzzer.RunLeg(spec, w, false, log)
	if err == nil {
		err = log.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi: replay:", err)
		os.Exit(1)
	}
	live, err := fuzzer.RunLeg(spec, w, false, nil)
	if err == nil {
		err = fuzzer.CompareLegs("replay vs live", replayed, live)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi: replay:", err)
		os.Exit(1)
	}
	fmt.Print(experiments.Table2FromResult(replayed.Result).Render())
	fmt.Printf("\nreplayed %d frame-log records across %d stops: census, telemetry (%d bytes) and stream (%d bytes) match the live run exactly\n",
		log.Records(), log.Stops(), len(replayed.Report), len(replayed.Stream))
}

// cmdFuzz runs the differential scenario fuzzer (see internal/fuzzer):
// random tiny jobspecs, determinism and record/replay oracles, greedy
// shrinking of failures to minimal frame logs. Findings exit 1.
func cmdFuzz(args []string) {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	n := fs.Int("n", 20, "scenarios to draw")
	seed := fs.Int64("seed", 1, "campaign seed (equal seeds draw equal scenarios)")
	dir := fs.String("artifacts", "", "write shrunk finding logs and specs to `dir`")
	fs.Parse(args)

	findings, err := fuzzer.Run(fuzzer.Options{Seed: *seed, Iterations: *n, Out: os.Stderr, ArtifactDir: *dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi: fuzz:", err)
		os.Exit(1)
	}
	if len(findings) == 0 {
		fmt.Printf("fuzz: %d scenarios, determinism and record/replay oracles held on all of them\n", *n)
		return
	}
	for _, f := range findings {
		fmt.Printf("fuzz: iteration %d failed the %s oracle\n  spec: %s\n  error: %v\n", f.Iteration, f.Oracle, f.Spec, f.Err)
		if f.Artifact != "" {
			fmt.Printf("  artifact: %s (%d records)\n", f.Artifact, f.Records)
		}
	}
	os.Exit(1)
}

// cmdLossSweep repeats the wardrive across channel loss rates and
// prints the census-accuracy table (see internal/experiments).
func cmdLossSweep(args []string) {
	fs := flag.NewFlagSet("losssweep", flag.ExitOnError)
	spec := jobspec.LossSweep()
	spec.RegisterSweepFlags(fs)
	fs.Parse(args)

	cfg, err := spec.WorldConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "politewifi:", err)
		os.Exit(2)
	}
	fmt.Print(experiments.LossSweep(cfg, spec.Rates).Render())
}

func cmdProbe(args []string) {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	n := fs.Int("n", 10, "number of fake frames")
	rts := fs.Bool("rts", false, "use RTS/CTS instead of null/ACK")
	seed := fs.Int64("seed", 1, "simulation seed")
	tf := &telemetryFlags{}
	tf.register(fs)
	fs.Parse(args)

	l := newLab(*seed, mac.ProfileGenericClient, tf)
	cap := &trace.Capture{}
	sniffer := l.medium.NewRadio("sniffer", radio.Position{X: 8}, phy.Band2GHz, 6)
	cap.Attach(sniffer)
	cap.CountsInto(tf.reg)

	mode := core.ProbeNull
	if *rts {
		mode = core.ProbeRTS
	}
	res := core.ProbeSync(l.attacker, victimAddr, mode, *n, 3*eventsim.Millisecond)
	fmt.Printf("probed %s (%s): %d/%d responses, responded=%v, first gap %.1f µs\n\n",
		victimAddr, res.Mode, res.Responses, res.Sent, res.Responded, res.FirstGap.Micros())
	fmt.Print(cap.Table(victimAddr, apAddr))
	tf.flush(os.Stdout)
}

func cmdScan(args []string) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	homes := fs.Int("homes", 6, "households in the neighbourhood")
	secs := fs.Int("secs", 3, "scan duration (simulated seconds)")
	seed := fs.Int64("seed", 1, "simulation seed")
	tf := &telemetryFlags{}
	tf.register(fs)
	fs.Parse(args)

	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(*seed)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.4}, CaptureMarginDB: 10,
	})
	tf.attach(sched, medium)
	macMx := mac.NewMetrics(tf.reg)
	for i := 0; i < *homes; i++ {
		apMAC := dot11.MustMAC(fmt.Sprintf("f2:6e:0b:00:%02x:01", i))
		clMAC := dot11.MustMAC(fmt.Sprintf("ec:fa:bc:00:%02x:02", i))
		pos := radio.Position{X: float64(i%3) * 30, Y: float64(i/3) * 30}
		ap := mac.New(medium, rng.Fork(), mac.Config{
			Name: fmt.Sprintf("ap%d", i), Addr: apMAC, Role: mac.RoleAP,
			Profile: mac.ProfileGenericAP, SSID: fmt.Sprintf("Home-%d", i),
			Position: pos, Band: phy.Band2GHz, Channel: 6,
		})
		ap.SetMetrics(macMx)
		cl := mac.New(medium, rng.Fork(), mac.Config{
			Name: fmt.Sprintf("cl%d", i), Addr: clMAC, Role: mac.RoleClient,
			Profile: mac.ProfileGenericClient, SSID: fmt.Sprintf("Home-%d", i),
			Position: radio.Position{X: pos.X + 4, Y: pos.Y}, Band: phy.Band2GHz, Channel: 6,
		})
		cl.SetMetrics(macMx)
		cl.Associate(apMAC, nil)
		sched.Every(200*eventsim.Millisecond, func() {
			if cl.Associated() {
				cl.SendData(apMAC, []byte("chatter"))
			}
		})
	}
	attacker := core.NewAttacker(medium, radio.Position{X: 30, Y: 15}, phy.Band2GHz, 6, core.DefaultFakeMAC)
	attacker.InstrumentInto(tf.reg)
	scanner := core.NewScanner(attacker)
	scanner.SetMetrics(tf.reg)
	scanner.Start()
	sched.RunFor(eventsim.Time(*secs) * eventsim.Second)
	scanner.Stop()

	fmt.Printf("%-20s %-8s %-14s %7s %6s %s\n", "MAC", "Kind", "SSID", "Probes", "ACKs", "Polite?")
	for _, d := range scanner.Devices() {
		fmt.Printf("%-20s %-8s %-14s %7d %6d %v\n", d.MAC, d.Kind, d.SSID, d.Probes, d.Acks, d.Responded)
	}
	t := scanner.Tally()
	fmt.Printf("\n%d devices (%d clients, %d APs); %d responded (%.0f%%)\n",
		t.Total, t.Clients, t.APs, t.TotalResponded,
		100*float64(t.TotalResponded)/float64(max(1, t.Total)))
	tf.flush(os.Stdout)
}

func cmdDrain(args []string) {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	rate := fs.Float64("rate", 900, "fake frames per second")
	secs := fs.Int("secs", 20, "attack duration (simulated seconds)")
	seed := fs.Int64("seed", 1, "simulation seed")
	tf := &telemetryFlags{}
	tf.register(fs)
	fs.Parse(args)

	l := newLab(*seed, mac.ProfileESP8266, tf)
	l.victim.EnablePowerSave()
	l.sched.RunFor(500 * eventsim.Millisecond)

	meter := power.Attach(l.victim, power.ESP8266)
	dr := core.NewDrainer(l.attacker, victimAddr)
	dr.Start(*rate)
	l.sched.RunFor(2 * eventsim.Second)
	meter.Reset()
	l.sched.RunFor(eventsim.Time(*secs) * eventsim.Second)
	dr.Stop()

	mw := meter.MeanPowerMW()
	fmt.Printf("attack rate %.0f fps for %ds: victim draws %.1f mW (%d ACKs forced)\n",
		*rate, *secs, mw, l.victim.Stats.AcksSent)
	for _, b := range []power.Battery{power.LogitechCircle2, power.BlinkXT2} {
		fmt.Printf("  %-28s would last %.1f h\n", b.String(), b.LifetimeHours(mw))
	}
	tf.flush(os.Stdout)
}

func cmdSense(args []string) {
	fs := flag.NewFlagSet("sense", flag.ExitOnError)
	rate := fs.Float64("rate", 150, "fake frames per second")
	secs := fs.Int("secs", 45, "capture duration (simulated seconds)")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	l := newLab(*seed, mac.ProfileGenericClient, nil)
	rng := eventsim.NewRNG(*seed + 99)
	scene := csi.NewScene(rng.Fork())
	tl := csi.Figure5Timeline(rng.Fork())
	sensor := core.NewCSISensor(l.attacker, victimAddr, scene, tl)
	series := sensor.RunFor(*rate, eventsim.Time(*secs)*eventsim.Second)

	fmt.Printf("captured %d CSI samples at %.1f Hz (loss %.1f%%)\n",
		len(series), series.MeanRate(), 100*sensor.LossRate())
	amp := csi.Hampel(series.Amplitudes(17), 5, 3)
	times := series.Times()
	fmt.Println("per-second fluctuation of subcarrier 17 (sliding std / mean):")
	for sec := 0; sec < *secs; sec++ {
		var w []float64
		for i, t := range times {
			if t >= float64(sec) && t < float64(sec+1) {
				w = append(w, amp[i])
			}
		}
		if len(w) == 0 {
			continue
		}
		norm := csi.Std(w) / csi.Mean(w)
		bar := ""
		for i := 0; i < int(norm*400) && i < 60; i++ {
			bar += "#"
		}
		fmt.Printf("  t=%2ds %-10s %7.4f %s\n", sec, tl.Label(float64(sec)), norm, bar)
	}
}

func cmdJam(args []string) {
	fs := flag.NewFlagSet("jam", flag.ExitOnError)
	secs := fs.Int("secs", 2, "jam duration (simulated seconds)")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	l := newLab(*seed, mac.ProfileGenericClient, nil)
	// Baseline: victim sends one data frame per 10 ms.
	baselineAcks := func(dur eventsim.Time) uint64 {
		before := l.victim.Stats.AcksReceived
		tk := l.sched.Every(10*eventsim.Millisecond, func() {
			l.victim.SendData(apAddr, []byte("payload"))
		})
		l.sched.RunFor(dur)
		tk.Stop()
		return l.victim.Stats.AcksReceived - before
	}
	clean := baselineAcks(eventsim.Time(*secs) * eventsim.Second)

	j := core.NewVirtualJammer(l.attacker)
	j.Start()
	jammed := baselineAcks(eventsim.Time(*secs) * eventsim.Second)
	j.Stop()

	fmt.Printf("virtual (NAV) jamming with %d fake RTS reservations:\n", j.Sent)
	fmt.Printf("  victim goodput: %d frames clean vs %d frames jammed\n", clean, jammed)
	res := core.ProbeSync(l.attacker, victimAddr, core.ProbeNull, 3, 3*eventsim.Millisecond)
	fmt.Printf("  victim still ACKs fake frames while jammed: %v\n", res.Responded)
}

func cmdDeauth(args []string) {
	fs := flag.NewFlagSet("deauth", flag.ExitOnError)
	pmf := fs.Bool("pmf", false, "victim network uses 802.11w")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(*seed)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})
	psk := crypto80211.NewPSK("correct horse battery staple")
	mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "HomeNet", PSK: psk, PMF: *pmf,
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	victim := mac.New(medium, rng.Fork(), mac.Config{
		Name: "victim", Addr: victimAddr, Role: mac.RoleClient, Profile: mac.ProfileGenericClient,
		SSID: "HomeNet", PSK: psk, PMF: *pmf,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	victim.Associate(apAddr, nil)
	sched.RunFor(300 * eventsim.Millisecond)
	attacker := core.NewAttacker(medium, radio.Position{X: 12}, phy.Band2GHz, 6, core.DefaultFakeMAC)

	attacker.InjectDeauth(victimAddr, apAddr)
	sched.RunFor(50 * eventsim.Millisecond)
	fmt.Printf("forged deauth against %s (PMF=%v):\n", victimAddr, *pmf)
	fmt.Printf("  victim still associated: %v\n", victim.Associated())
	fmt.Printf("  forgeries dropped by 802.11w: %d\n", victim.Stats.ForgedMgmtDropped)
	fmt.Printf("  victim PHY still ACKed the forgery: %v\n", victim.Stats.AcksSent > 0)
}

func cmdLocate(args []string) {
	fs := flag.NewFlagSet("locate", flag.ExitOnError)
	dist := fs.Float64("dist", 15, "true victim distance in meters")
	n := fs.Int("n", 20, "number of probes")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(*seed)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})
	mac.New(medium, rng.Fork(), mac.Config{
		Name: "victim", Addr: victimAddr, Role: mac.RoleClient, Profile: mac.ProfileGenericClient,
		SSID: "n", Position: radio.Position{X: *dist}, Band: phy.Band2GHz, Channel: 6,
	})
	attacker := core.NewAttacker(medium, radio.Position{}, phy.Band2GHz, 6, core.DefaultFakeMAC)
	res := core.ProbeSync(attacker, victimAddr, core.ProbeNull, *n, 2*eventsim.Millisecond)
	est := core.RangeFromGaps(phy.Band2GHz, res.Gaps)
	fmt.Printf("time-of-flight ranging over forced ACKs (Wi-Peep style):\n")
	fmt.Printf("  probes answered: %d/%d\n", res.Responses, res.Sent)
	fmt.Printf("  true distance %.1f m → estimated %.1f m (err %.1f m)\n",
		*dist, est, est-*dist)
}

// cmdStats runs the standard lab scenario fully instrumented — wall
// timing on, tracer always attached — and prints the whole registry.
func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	n := fs.Int("n", 10, "number of fake frames in the probe round")
	seed := fs.Int64("seed", 1, "simulation seed")
	timeline := fs.Bool("timeline", false, "also print the frame-lifecycle timeline")
	tf := &telemetryFlags{wallTiming: true}
	tf.register(fs)
	fs.Parse(args)

	l := newLab(*seed, mac.ProfileGenericClient, tf)
	cap := &trace.Capture{}
	sniffer := l.medium.NewRadio("sniffer", radio.Position{X: 8}, phy.Band2GHz, 6)
	cap.Attach(sniffer)
	cap.CountsInto(tf.reg)

	res := core.ProbeSync(l.attacker, victimAddr, core.ProbeNull, *n, 3*eventsim.Millisecond)
	fmt.Printf("lab scenario: %d/%d probes answered over %s of simulated time\n\n",
		res.Responses, res.Sent, l.sched.Now())
	fmt.Print(tf.reg.Snapshot().Render())
	if *timeline {
		fmt.Println()
		fmt.Print(tf.tracer.Timeline())
	}
	tf.flush(os.Stdout)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
