// Package faults injects deterministic channel impairments into a
// radio.Medium, so the probe pipeline's retry, backoff and verdict
// machinery can be exercised against the hostile RF the paper's real
// wardrive faced instead of a perfectly polite simulated air.
//
// Four impairments compose, each independently configurable:
//
//   - Gilbert–Elliott bursty loss: a two-state Markov chain (Good/Bad)
//     advanced once per delivery, with a per-state loss probability.
//     Real channels lose frames in bursts, not i.i.d. coins.
//   - Scheduled interference windows: periodic wideband noise bursts
//     mirroring core.VirtualJammer's maximum-NAV reservation cadence
//     (32.767 ms per burst). During a window every delivery is
//     corrupted and CCA reports the channel busy.
//   - Per-station duty-cycled deafness: victims in deep power save
//     miss everything for a fixed fraction of each cycle. The phase is
//     a hash of the radio's name, so it is stable across runs and
//     worker counts. The attacker's capture dongle is mains powered
//     and exempt.
//   - ACK-only drop: control responses (ACK/CTS) are dropped with a
//     given probability while the soliciting frames get through — the
//     nastiest case for ACK attribution: the probe was delivered and
//     answered, but the verifier cannot see the answer.
//
// Every random decision comes from the injector's own seed-forked RNG,
// never from the medium's, so an enabled injector perturbs no other
// subsystem's stream and a disabled one draws nothing at all — runs
// with faults off stay bit-identical to runs without the package.
package faults

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/telemetry"
)

// jammerNAVUS mirrors core.VirtualJammer's maximum Duration field
// (32767 µs): each scheduled interference burst is one max-length NAV
// reservation worth of noise.
const jammerNAVUS = 32767

// defaultDeafPeriod is a typical power-save listen cycle: ten beacon
// intervals of 102.4 ms would be DTIM10; one is the shortest doze.
const defaultDeafPeriod = 102400 * eventsim.Microsecond

// Config parameterises an Injector. The zero value disables every
// impairment.
type Config struct {
	// Gilbert–Elliott chain: per-delivery transition probabilities and
	// per-state loss probabilities. The chain only runs when a loss
	// probability is non-zero; see BurstyLoss for a preset tuned to a
	// target mean loss rate.
	PGoodBad float64 // P(Good→Bad) per delivery
	PBadGood float64 // P(Bad→Good) per delivery
	LossGood float64 // loss probability while Good
	LossBad  float64 // loss probability while Bad

	// ACKLoss drops control responses (ACK and CTS) with this
	// probability while leaving the frames that solicited them intact.
	ACKLoss float64

	// JamDuty is the fraction of time scheduled interference occupies
	// the channel. Bursts of JamDuty·JamPeriod open each period; when
	// JamPeriod is zero it defaults so each burst lasts one maximum
	// NAV reservation (32.767 ms), core.VirtualJammer's profile.
	JamDuty   float64
	JamPeriod eventsim.Time

	// DeafDuty is the fraction of each DeafPeriod a victim radio hears
	// nothing (deep power save). DeafPeriod defaults to one 102.4 ms
	// listen cycle.
	DeafDuty   float64
	DeafPeriod eventsim.Time
}

// Enabled reports whether any impairment is configured.
func (c Config) Enabled() bool {
	return c.geEnabled() || c.ACKLoss > 0 || c.JamDuty > 0 || c.DeafDuty > 0
}

func (c Config) geEnabled() bool { return c.LossGood > 0 || c.LossBad > 0 }

// BurstyLoss returns a Gilbert–Elliott configuration whose stationary
// loss rate equals rate, losing everything in the Bad state and
// nothing in the Good state, with a mean burst length of four
// deliveries. rate ≥ 1 pins the chain in Bad (total loss).
func BurstyLoss(rate float64) Config {
	if rate <= 0 {
		return Config{}
	}
	if rate >= 1 {
		return Config{PGoodBad: 1, LossBad: 1}
	}
	// Stationary P(Bad) = pGB/(pGB+pBG) = rate, with mean burst
	// length 1/pBG = 4 deliveries.
	const pBG = 0.25
	return Config{
		PGoodBad: rate * pBG / (1 - rate),
		PBadGood: pBG,
		LossBad:  1,
	}
}

// ParseSpec parses a CLI fault specification of comma-separated
// key=value pairs, e.g. "loss=0.3,ack=0.5,jam=0.2,deaf=0.25".
//
//	loss=F         Gilbert–Elliott bursty loss, mean rate F (BurstyLoss)
//	ack=F          drop ACK/CTS responses with probability F
//	jam=F          scheduled interference with duty cycle F
//	jam-period=D   interference period (Go duration, e.g. 100ms)
//	deaf=F         per-station deafness with duty cycle F
//	deaf-period=D  deafness period (Go duration)
//
// An empty spec returns the zero (disabled) Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return c, fmt.Errorf("faults: %q is not key=value", part)
		}
		frac := func() (float64, error) {
			// ParseFloat accepts "NaN" and "Inf"; neither is a rate.
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return 0, fmt.Errorf("faults: %s=%q: want a finite non-negative number", key, val)
			}
			return f, nil
		}
		dur := func() (eventsim.Time, error) {
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return 0, fmt.Errorf("faults: %s=%q: want a positive duration", key, val)
			}
			return eventsim.Time(d.Nanoseconds()), nil
		}
		var err error
		switch key {
		case "loss":
			var rate float64
			if rate, err = frac(); err == nil {
				ge := BurstyLoss(rate)
				c.PGoodBad, c.PBadGood = ge.PGoodBad, ge.PBadGood
				c.LossGood, c.LossBad = ge.LossGood, ge.LossBad
			}
		case "ack":
			c.ACKLoss, err = frac()
		case "jam":
			c.JamDuty, err = frac()
		case "jam-period":
			c.JamPeriod, err = dur()
		case "deaf":
			c.DeafDuty, err = frac()
		case "deaf-period":
			c.DeafPeriod, err = dur()
		default:
			err = fmt.Errorf("faults: unknown key %q (want loss|ack|jam|jam-period|deaf|deaf-period)", key)
		}
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// Injector implements radio.FaultInjector. Create one per medium with
// a forked RNG; it is bound to scheduler context like the medium
// itself and is not safe for concurrent use.
type Injector struct {
	cfg Config
	rng *eventsim.RNG

	bad bool // Gilbert–Elliott state

	jamPeriod, jamBurst  eventsim.Time
	deafPeriod, deafSpan eventsim.Time
	deafPhase            map[string]eventsim.Time

	// Stats, exported for assertions and telemetry.
	Consulted uint64 // deliveries offered to the injector
	LossDrops uint64 // Gilbert–Elliott losses
	ACKDrops  uint64 // dropped ACK/CTS responses
	JamDrops  uint64 // deliveries inside interference windows
	DeafDrops uint64 // deliveries to dozing victims

	lastDrop string // kind of the most recent CorruptRx=true, for frame logs
}

// Drop kinds reported by LastDropKind and accepted by ReplayConsult,
// matching the faults.drops.* telemetry suffixes.
const (
	DropLoss = "loss"
	DropACK  = "ack"
	DropJam  = "jam"
	DropDeaf = "deaf"
)

// New builds an injector from cfg, drawing every coin from rng (fork
// it from the simulation's per-medium stream so the injector gets its
// own deterministic sequence).
func New(rng *eventsim.RNG, cfg Config) *Injector {
	in := &Injector{cfg: cfg, rng: rng, deafPhase: make(map[string]eventsim.Time)}
	if cfg.JamDuty > 0 {
		in.jamPeriod = cfg.JamPeriod
		if in.jamPeriod <= 0 {
			in.jamPeriod = eventsim.Time(float64(jammerNAVUS*eventsim.Microsecond) / cfg.JamDuty)
		}
		in.jamBurst = eventsim.Time(cfg.JamDuty * float64(in.jamPeriod))
		if in.jamBurst > in.jamPeriod {
			in.jamBurst = in.jamPeriod
		}
	}
	if cfg.DeafDuty > 0 {
		in.deafPeriod = cfg.DeafPeriod
		if in.deafPeriod <= 0 {
			in.deafPeriod = defaultDeafPeriod
		}
		in.deafSpan = eventsim.Time(cfg.DeafDuty * float64(in.deafPeriod))
		if in.deafSpan > in.deafPeriod {
			in.deafSpan = in.deafPeriod
		}
	}
	return in
}

// CorruptRx implements radio.FaultInjector. Impairments are checked
// in a fixed order (jam, deafness, ACK drop, bursty loss) so the RNG
// draw sequence is a deterministic function of the delivery sequence.
func (in *Injector) CorruptRx(src, dst *radio.Radio, data []byte, now eventsim.Time) bool {
	in.Consulted++
	if in.jamBurst > 0 && in.noisy(now) {
		in.JamDrops++
		in.lastDrop = DropJam
		return true
	}
	if in.deafSpan > 0 && in.deafAt(dst, now) {
		in.DeafDrops++
		in.lastDrop = DropDeaf
		return true
	}
	if in.cfg.ACKLoss > 0 && isControlResponse(data) && in.rng.Coin(in.cfg.ACKLoss) {
		in.ACKDrops++
		in.lastDrop = DropACK
		return true
	}
	if in.cfg.geEnabled() && in.geDrop() {
		in.LossDrops++
		in.lastDrop = DropLoss
		return true
	}
	return false
}

// LastDropKind implements radio.FaultReplayer: it names the gate the
// most recent CorruptRx=true tripped, so the frame log can attribute
// the drop.
func (in *Injector) LastDropKind() string { return in.lastDrop }

// ReplayConsult implements radio.FaultReplayer: it restores one
// recorded consultation (and its drop, if dropKind is non-empty) to
// the statistics without spending any RNG draws, so a replayed run's
// faults.* telemetry matches the recorded one.
func (in *Injector) ReplayConsult(dropKind string) {
	in.Consulted++
	switch dropKind {
	case DropLoss:
		in.LossDrops++
	case DropACK:
		in.ACKDrops++
	case DropJam:
		in.JamDrops++
	case DropDeaf:
		in.DeafDrops++
	}
}

// NoiseAt implements radio.FaultInjector: the modelled jammer is
// wideband, so interference windows raise CCA on every channel.
func (in *Injector) NoiseAt(band phy.Band, channel int, now eventsim.Time) bool {
	return in.jamBurst > 0 && in.noisy(now)
}

func (in *Injector) noisy(now eventsim.Time) bool {
	return now%in.jamPeriod < in.jamBurst
}

// deafAt reports whether dst is dozing at now. Phase comes from a
// hash of the radio's name: stable per station, independent of
// delivery order, and free of RNG draws.
func (in *Injector) deafAt(dst *radio.Radio, now eventsim.Time) bool {
	if strings.HasPrefix(dst.Name, "attacker-") {
		return false // the capture rig is mains powered
	}
	phase, ok := in.deafPhase[dst.Name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(dst.Name))
		phase = eventsim.Time(h.Sum64() % uint64(in.deafPeriod))
		in.deafPhase[dst.Name] = phase
	}
	return (now+phase)%in.deafPeriod < in.deafSpan
}

// geDrop advances the Gilbert–Elliott chain one delivery and flips
// the per-state loss coin.
func (in *Injector) geDrop() bool {
	if in.bad {
		if in.rng.Coin(in.cfg.PBadGood) {
			in.bad = false
		}
	} else if in.rng.Coin(in.cfg.PGoodBad) {
		in.bad = true
	}
	p := in.cfg.LossGood
	if in.bad {
		p = in.cfg.LossBad
	}
	return in.rng.Coin(p)
}

// isControlResponse reports whether a wire frame is an ACK or CTS —
// the solicited control responses the ACK-only drop mode targets.
func isControlResponse(data []byte) bool {
	if len(data) < 2 {
		return false
	}
	fc := dot11.ParseFrameControl(uint16(data[0]) | uint16(data[1])<<8)
	return fc.Type == dot11.TypeControl &&
		(fc.Subtype == dot11.SubtypeACK || fc.Subtype == dot11.SubtypeCTS)
}

// InstrumentInto registers the injector's drop counters as sampled
// faults.* metrics. Register only on runs with faults enabled, so a
// pristine run's telemetry report carries no faults family at all.
func (in *Injector) InstrumentInto(reg *telemetry.Registry) {
	reg.CounterFunc("faults.consulted", "deliveries offered to the fault injector", func() uint64 { return in.Consulted })
	reg.CounterFunc("faults.drops.loss", "deliveries lost to Gilbert–Elliott bursts", func() uint64 { return in.LossDrops })
	reg.CounterFunc("faults.drops.ack", "ACK/CTS responses dropped by ACK-only loss", func() uint64 { return in.ACKDrops })
	reg.CounterFunc("faults.drops.jam", "deliveries lost to interference windows", func() uint64 { return in.JamDrops })
	reg.CounterFunc("faults.drops.deaf", "deliveries missed by dozing victims", func() uint64 { return in.DeafDrops })
}
