package experiments

import (
	"fmt"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/power"
)

// Figure6Point is one rate/power measurement.
type Figure6Point struct {
	RateHz  float64
	PowerMW float64
	Dozed   bool // did the victim manage to sleep at all?
}

// Figure6Result reproduces the §4.2 power measurement: the victim is
// an ESP8266-class IoT module in power-save mode; the attacker sweeps
// the fake-frame rate and the victim's mean power draw is measured.
type Figure6Result struct {
	Points []Figure6Point

	BaselineMW float64 // no attack (paper: ~10 mW)
	StepMW     float64 // at 10 fps (paper: ~230 mW)
	PeakMW     float64 // at 900 fps (paper: ~360 mW)
	// Amplification is Peak/Baseline (paper: ~35×).
	Amplification float64
	// ShapeHolds: flat baseline → step at ~10 fps → linear growth.
	ShapeHolds bool
}

// Figure6Rates is the swept attack rates (frames per second).
var Figure6Rates = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 300, 500, 700, 900, 1000}

// Figure6 runs E7. Each rate gets its own independent network so
// power-save state cannot leak between measurements; measure window
// is `measure` seconds of simulated time per point.
func Figure6(seed int64, measure eventsim.Time) *Figure6Result {
	return figure6(seed, measure, homePSK())
}

// figure6 runs E7 with every rate's network on the key handle psk.
func figure6(seed int64, measure eventsim.Time, psk *crypto80211.PSK) *Figure6Result {
	if measure == 0 {
		measure = 20 * eventsim.Second
	}
	out := &Figure6Result{}
	for i, rate := range Figure6Rates {
		h := newHomeNetwork(seed+int64(i)*101, psk, mac.ProfileGenericAP, mac.ProfileESP8266)
		h.victim.EnablePowerSave()
		h.sched.RunFor(500 * eventsim.Millisecond) // settle into dozing

		meter := power.Attach(h.victim, power.ESP8266)
		dr := core.NewDrainer(h.attacker, victimAddr)
		dozesBefore := h.victim.Stats.Dozes

		// Warm-up so the awake/doze pattern reaches steady state
		// before the measurement window.
		dr.Start(rate)
		h.sched.RunFor(2 * eventsim.Second)
		meter.Reset()
		h.sched.RunFor(measure)
		dr.Stop()

		out.Points = append(out.Points, Figure6Point{
			RateHz:  rate,
			PowerMW: meter.MeanPowerMW(),
			Dozed:   h.victim.Stats.Dozes > dozesBefore,
		})
	}
	out.analyze()
	return out
}

func (r *Figure6Result) analyze() {
	at := func(rate float64) float64 {
		for _, p := range r.Points {
			if p.RateHz == rate {
				return p.PowerMW
			}
		}
		return 0
	}
	r.BaselineMW = at(0)
	r.StepMW = at(10)
	r.PeakMW = at(900)
	if r.BaselineMW > 0 {
		r.Amplification = r.PeakMW / r.BaselineMW
	}
	// Shape: baseline small; large step by 10–20 fps; monotone-ish
	// linear growth to 900+.
	r.ShapeHolds = r.BaselineMW < 30 &&
		r.StepMW > 8*r.BaselineMW &&
		r.PeakMW > r.StepMW*1.3 &&
		at(1000) >= r.PeakMW*0.95
}

// Render prints the rate→power series plus the headline numbers.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: power consumption vs fake-frame rate (ESP8266, PS mode)\n")
	fmt.Fprintf(&b, "%10s %12s %8s\n", "Rate (fps)", "Power (mW)", "Dozed?")
	for _, p := range r.Points {
		bar := strings.Repeat("#", int(p.PowerMW/8))
		fmt.Fprintf(&b, "%10.0f %12.1f %8v %s\n", p.RateHz, p.PowerMW, p.Dozed, bar)
	}
	fmt.Fprintf(&b, "baseline %.1f mW → step(10fps) %.1f mW → peak(900fps) %.1f mW\n",
		r.BaselineMW, r.StepMW, r.PeakMW)
	fmt.Fprintf(&b, "amplification at 900 fps: %.0fx (paper: 35x)\n", r.Amplification)
	fmt.Fprintf(&b, "flat→step→linear shape holds: %v\n", r.ShapeHolds)
	return b.String()
}
