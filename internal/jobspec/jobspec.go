// Package jobspec is the single description of a measurement job —
// the wardrive census of Table 2 or the loss-rate accuracy sweep —
// shared by every front end. The one-shot CLI subcommands (politewifi
// wardrive, politewifi losssweep) register their flags from a Spec,
// and the politewifid daemon accepts the same Spec as a JSON body, so
// a job submitted over HTTP is parameterised exactly like a job typed
// at a shell: same defaults, same validation, same `-faults` grammar,
// same deterministic output for the same values.
//
// A Spec round-trips through JSON losslessly; defaulting is explicit
// (ApplyDefaults) so a decoded spec and a flag-parsed spec agree
// field for field before any world is built.
package jobspec

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"politewifi/internal/eventsim"
	"politewifi/internal/faults"
	"politewifi/internal/world"
)

// Kind selects the measurement campaign a Spec describes.
type Kind string

const (
	// KindDrive is the §3 wardrive census (Table 2): one drive, one
	// city, one flight-recorder stream.
	KindDrive Kind = "drive"
	// KindLossSweep repeats the drive across channel loss rates and
	// reports census accuracy per rate (EXPERIMENTS.md EX12).
	KindLossSweep Kind = "losssweep"
)

// Default values shared by the CLI flags and the JSON defaulting
// path. DefaultSeed is the HotNets'20 presentation date, the seed
// every artifact in the repo is pinned to.
const (
	DefaultSeed       = int64(20201104)
	DefaultScale      = 1.0
	DefaultSweepScale = 0.1
	DefaultStopSize   = 4
	DefaultDwellMS    = 1200
)

// maxSpan bounds every simulated duration a spec sets: one simulated
// hour, far past any useful stop schedule, and small enough that
// WorldConfig's conversion to eventsim.Time cannot overflow.
const maxSpan = 3600 * eventsim.Second

// Spec parameterises one job. The zero value is not runnable;
// construct with Drive/LossSweep or decode JSON and call
// ApplyDefaults. All fields round-trip through JSON.
type Spec struct {
	// Kind is "drive" or "losssweep"; empty defaults to "drive".
	Kind Kind `json:"kind"`
	// Seed is the root simulation seed. 0 means DefaultSeed (the CLI
	// default); every byte of the job's output is a pure function of
	// the spec, so two jobs with equal specs produce equal streams.
	Seed int64 `json:"seed"`
	// Scale scales the Table 2 census (1.0 = the full 5,328 devices).
	Scale float64 `json:"scale"`
	// StopSize is the number of households per vehicle stop.
	StopSize int `json:"stop_size"`
	// DwellMS is the per-channel dwell per stop in simulated
	// milliseconds.
	DwellMS int `json:"dwell_ms"`
	// Workers bounds the per-job worker pool when the job runs inside
	// a one-shot CLI (0 = all cores). The daemon ignores it: there,
	// stops are executed by the shared global pool, and the output is
	// byte-identical either way.
	Workers int `json:"workers,omitempty"`
	// Faults is a channel fault spec in the `-faults` grammar, e.g.
	// "loss=0.3,ack=0.1,jam=0.2,deaf=0.1" (see faults.ParseSpec).
	// Only valid for drive jobs; the loss sweep composes its own
	// fault configs per rate.
	Faults string `json:"faults,omitempty"`
	// ProbeIntervalUS overrides the attacker's probe-request cadence
	// in simulated microseconds (0 keeps the world default, 2ms). The
	// scenario fuzzer varies it to shake out timing-dependent bugs.
	ProbeIntervalUS int `json:"probe_interval_us,omitempty"`
	// ScanIntervalMS overrides the attacker's active-scan sweep
	// cadence in simulated milliseconds (0 keeps the world default,
	// 50ms).
	ScanIntervalMS int `json:"scan_interval_ms,omitempty"`
	// Rates lists the loss rates a losssweep visits; empty means
	// experiments.DefaultLossRates.
	Rates []float64 `json:"rates,omitempty"`
}

// Drive returns the default wardrive spec — the values the wardrive
// CLI flags default to.
func Drive() Spec {
	return Spec{
		Kind:     KindDrive,
		Seed:     DefaultSeed,
		Scale:    DefaultScale,
		StopSize: DefaultStopSize,
		DwellMS:  DefaultDwellMS,
	}
}

// LossSweep returns the default loss-sweep spec — the values the
// losssweep CLI flags default to (a 0.1-scale city keeps the
// one-drive-per-rate sweep quick).
func LossSweep() Spec {
	return Spec{
		Kind:     KindLossSweep,
		Seed:     DefaultSeed,
		Scale:    DefaultSweepScale,
		StopSize: DefaultStopSize,
		DwellMS:  DefaultDwellMS,
	}
}

// ApplyDefaults fills unset fields in place: empty Kind becomes
// drive, zero Seed/Scale/StopSize/DwellMS take the kind's defaults,
// and an empty Rates list becomes nil (both mean the default rates,
// and only nil survives a JSON round trip). Decoded JSON specs pass
// through here so an omitted field means exactly what an untouched
// CLI flag means.
func (s *Spec) ApplyDefaults() {
	if len(s.Rates) == 0 {
		s.Rates = nil
	}
	if s.Kind == "" {
		s.Kind = KindDrive
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Scale == 0 {
		if s.Kind == KindLossSweep {
			s.Scale = DefaultSweepScale
		} else {
			s.Scale = DefaultScale
		}
	}
	if s.StopSize == 0 {
		s.StopSize = DefaultStopSize
	}
	if s.DwellMS == 0 {
		s.DwellMS = DefaultDwellMS
	}
}

// Validate reports the first problem with the spec. It parses the
// fault spec with the real grammar, so a job rejected here is exactly
// a job the CLI would have rejected.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindDrive, KindLossSweep:
	default:
		return fmt.Errorf("jobspec: unknown kind %q (want %q or %q)", s.Kind, KindDrive, KindLossSweep)
	}
	// Range checks are written so that NaN, which fails every
	// comparison, fails them.
	if !(s.Scale > 0 && s.Scale <= 1) {
		return fmt.Errorf("jobspec: scale %g out of range (0, 1]", s.Scale)
	}
	if s.StopSize < 1 {
		return fmt.Errorf("jobspec: stop_size %d must be at least 1", s.StopSize)
	}
	if err := checkSpan("dwell_ms", s.DwellMS, 1, eventsim.Millisecond); err != nil {
		return err
	}
	if s.Workers < 0 {
		return fmt.Errorf("jobspec: workers %d must not be negative", s.Workers)
	}
	if err := checkSpan("probe_interval_us", s.ProbeIntervalUS, 0, eventsim.Microsecond); err != nil {
		return err
	}
	if err := checkSpan("scan_interval_ms", s.ScanIntervalMS, 0, eventsim.Millisecond); err != nil {
		return err
	}
	if s.Faults != "" {
		if s.Kind == KindLossSweep {
			return fmt.Errorf("jobspec: losssweep composes its own fault configs; drop the faults field")
		}
		if _, err := faults.ParseSpec(s.Faults); err != nil {
			return err
		}
	}
	for _, r := range s.Rates {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("jobspec: loss rate %g out of range [0, 1]", r)
		}
	}
	if len(s.Rates) > 0 && s.Kind != KindLossSweep {
		return fmt.Errorf("jobspec: rates only apply to losssweep jobs")
	}
	return nil
}

// checkSpan rejects a duration field of v units unless lo <= v and
// v units fit in maxSpan.
func checkSpan(field string, v, lo int, unit eventsim.Time) error {
	if hi := int64(maxSpan / unit); v < lo || int64(v) > hi {
		return fmt.Errorf("jobspec: %s %d out of range [%d, %d]", field, v, lo, hi)
	}
	return nil
}

// WorldConfig builds the world.Config the spec describes. The caller
// attaches run plumbing (Metrics, Stream, Cancel, Submit) on top.
func (s Spec) WorldConfig() (world.Config, error) {
	if err := s.Validate(); err != nil {
		return world.Config{}, err
	}
	cfg := world.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Scale = s.Scale
	cfg.HouseholdsPerStop = s.StopSize
	cfg.DwellPerChannel = eventsim.Time(s.DwellMS) * eventsim.Millisecond
	cfg.Workers = s.Workers
	cfg.ProbeInterval = eventsim.Time(s.ProbeIntervalUS) * eventsim.Microsecond
	cfg.ActiveScanInterval = eventsim.Time(s.ScanIntervalMS) * eventsim.Millisecond
	if s.Faults != "" {
		fc, err := faults.ParseSpec(s.Faults)
		if err != nil {
			return world.Config{}, err
		}
		cfg.Faults = &fc
	}
	return cfg, nil
}

// RegisterDriveFlags binds the drive spec's fields to the canonical
// wardrive CLI flags (same names, same help, same defaults) on fs.
// Parse the flag set, then read the Spec.
func (s *Spec) RegisterDriveFlags(fs *flag.FlagSet) {
	s.registerCommonFlags(fs)
	fs.StringVar(&s.Faults, "faults", s.Faults, "channel fault `spec`, e.g. loss=0.3,ack=0.1,jam=0.2,deaf=0.1")
	fs.IntVar(&s.ProbeIntervalUS, "probe-interval", s.ProbeIntervalUS, "attacker probe cadence, simulated µs (0 = default 2000)")
	fs.IntVar(&s.ScanIntervalMS, "scan-interval", s.ScanIntervalMS, "attacker active-scan cadence, simulated ms (0 = default 50)")
}

// RegisterSweepFlags binds the loss-sweep spec's fields to the
// canonical losssweep CLI flags on fs.
func (s *Spec) RegisterSweepFlags(fs *flag.FlagSet) {
	s.registerCommonFlags(fs)
}

func (s *Spec) registerCommonFlags(fs *flag.FlagSet) {
	fs.Int64Var(&s.Seed, "seed", s.Seed, "simulation seed")
	fs.Float64Var(&s.Scale, "scale", s.Scale, "census scale (1.0 = 5,328 devices)")
	fs.IntVar(&s.StopSize, "stop-size", s.StopSize, "households per vehicle stop")
	fs.IntVar(&s.DwellMS, "dwell", s.DwellMS, "per-channel dwell per stop, ms")
	fs.IntVar(&s.Workers, "workers", s.Workers, "worker goroutines simulating stops (0 = all cores)")
}

// Decode reads one JSON spec from r, rejecting unknown fields (a
// typoed key in a job submission fails loudly instead of silently
// running the default), applies defaults, and validates.
func Decode(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("jobspec: %w", err)
	}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// String renders the spec compactly for logs and job listings.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d scale=%g stop-size=%d dwell=%dms", s.Kind, s.Seed, s.Scale, s.StopSize, s.DwellMS)
	if s.Workers != 0 {
		fmt.Fprintf(&b, " workers=%d", s.Workers)
	}
	if s.Faults != "" {
		fmt.Fprintf(&b, " faults=%s", s.Faults)
	}
	if s.ProbeIntervalUS != 0 {
		fmt.Fprintf(&b, " probe-interval=%dµs", s.ProbeIntervalUS)
	}
	if s.ScanIntervalMS != 0 {
		fmt.Fprintf(&b, " scan-interval=%dms", s.ScanIntervalMS)
	}
	if len(s.Rates) > 0 {
		fmt.Fprintf(&b, " rates=%v", s.Rates)
	}
	return b.String()
}
