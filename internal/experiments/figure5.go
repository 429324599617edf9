package experiments

import (
	"fmt"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/csi"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
)

// Figure5Phase summarises one activity window of the Figure 5 trace.
type Figure5Phase struct {
	Label      string
	Start, End float64 // seconds
	MeanAmp    float64
	NormStd    float64 // std / mean — the visible "fluctuation"
	HighBand   float64 // >2.5 Hz spectral fraction
}

// Figure5Result reproduces the paper's Figure 5: CSI amplitude of
// subcarrier 17 measured from the ACKs a victim tablet is forced to
// transmit at 150 fake frames per second, while a user approaches,
// picks it up, holds it, and types.
type Figure5Result struct {
	Series     csi.Series
	Subcarrier int
	RateHz     float64
	Phases     []Figure5Phase
	// Separable is the headline: activity phases are distinguishable
	// from the ACK CSI alone.
	Separable bool
	// LossRate is the fraction of fake frames that yielded no sample.
	LossRate float64
	// ClassifierAccuracy is the held-out nearest-centroid accuracy on
	// ground/hold/typing windows (the keystroke-threat quantifier).
	ClassifierAccuracy float64
	// KeystrokeBursts is the number of distinct typing bursts the
	// spectrogram stage localised inside the typing window — the raw
	// material WindTalker-style inference consumes.
	KeystrokeBursts int
}

// Figure5 runs E6: 150 fps fake-frame injection for 45 s with the
// paper's activity script, sampling CSI from each elicited ACK.
func Figure5(seed int64) *Figure5Result {
	h := newHomeNetwork(seed, homePSK(), mac.ProfileGenericAP, mac.ProfileGenericClient)
	rng := eventsim.NewRNG(seed + 1000)
	scene := csi.NewScene(rng.Fork())
	tl := csi.Figure5Timeline(rng.Fork())

	sensor := core.NewCSISensor(h.attacker, victimAddr, scene, tl)
	series := sensor.RunFor(150, 45*eventsim.Second)

	out := &Figure5Result{
		Series:     series,
		Subcarrier: 17,
		RateHz:     150,
		LossRate:   sensor.LossRate(),
	}
	amp := csi.Hampel(series.Amplitudes(17), 5, 3)
	times := series.Times()

	windows := []struct {
		label      string
		start, end float64
	}{
		{"on-ground", 0, 9},
		{"approach+pickup", 9, 22},
		{"hold", 23, 31},
		{"typing", 33, 41},
	}
	cut := func(lo, hi float64) []float64 {
		var w []float64
		for i, t := range times {
			if t >= lo && t < hi {
				w = append(w, amp[i])
			}
		}
		return w
	}
	for _, win := range windows {
		w := cut(win.start, win.end)
		if len(w) == 0 {
			continue
		}
		f := csi.Extract(w, out.RateHz)
		out.Phases = append(out.Phases, Figure5Phase{
			Label: win.label, Start: win.start, End: win.end,
			MeanAmp:  csi.Mean(w),
			NormStd:  csi.Std(w) / csi.Mean(w),
			HighBand: f.HighBand,
		})
	}
	if len(out.Phases) == 4 {
		ground, pickup, hold, typing := out.Phases[0], out.Phases[1], out.Phases[2], out.Phases[3]
		out.Separable = pickup.NormStd > 5*ground.NormStd &&
			typing.NormStd > ground.NormStd &&
			typing.HighBand > hold.HighBand
	}

	// Keystroke-threat quantifier: train/test the activity classifier
	// on independent captures, and localise individual typing bursts.
	out.ClassifierAccuracy = classifierAccuracy(seed)
	out.KeystrokeBursts = len(csi.KeystrokeTimes(cut(33, 41), out.RateHz, 2))
	return out
}

// classifierAccuracy trains on one set of seeds and tests on another.
func classifierAccuracy(seed int64) float64 {
	fs := 150.0
	winLen := int(fs * 4)
	collect := func(act func(*eventsim.RNG) csi.Activity, seedOff int64, secs float64) [][]float64 {
		rng := eventsim.NewRNG(seed + seedOff)
		scene := csi.NewScene(rng.Fork())
		tl := (&csi.Timeline{}).Add(0, secs, act(rng.Fork()))
		amp := scene.Collect(tl, fs, secs).Amplitudes(17)
		var wins [][]float64
		for i := 0; i+winLen <= len(amp); i += winLen {
			wins = append(wins, amp[i:i+winLen])
		}
		return wins
	}
	ground := func(*eventsim.RNG) csi.Activity { return csi.OnGround() }
	hold := func(r *eventsim.RNG) csi.Activity { return csi.Hold(r) }
	typing := func(r *eventsim.RNG) csi.Activity { return csi.Typing(r) }

	train := map[string][][]float64{
		"on-ground": collect(ground, 1, 24),
		"hold":      collect(hold, 2, 24),
		"typing":    collect(typing, 3, 24),
	}
	test := map[string][][]float64{
		"on-ground": collect(ground, 11, 16),
		"hold":      collect(hold, 12, 16),
		"typing":    collect(typing, 13, 16),
	}
	c := csi.Train(train, fs)
	acc, _ := c.ConfusionMatrix(test, fs)
	return acc
}

// Sparkline renders the subcarrier-17 amplitude as an ASCII series
// binned to the given number of columns — the textual Figure 5.
func (r *Figure5Result) Sparkline(cols int) string {
	amp := r.Series.Amplitudes(r.Subcarrier)
	if len(amp) == 0 || cols < 1 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	lo, hi := amp[0], amp[0]
	for _, v := range amp {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	per := len(amp) / cols
	if per < 1 {
		per = 1
	}
	for i := 0; i+per <= len(amp); i += per {
		// Bin by range within the bucket to surface fluctuation.
		blo, bhi := amp[i], amp[i]
		for _, v := range amp[i : i+per] {
			if v < blo {
				blo = v
			}
			if v > bhi {
				bhi = v
			}
		}
		idx := int((bhi - blo) / span * float64(len(ramp)-1) * 2)
		if idx >= len(ramp) {
			idx = len(ramp) - 1
		}
		b.WriteRune(ramp[idx])
	}
	return b.String()
}

// Render prints the per-phase statistics and the textual trace.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: CSI amplitude of ACKs from the victim (subcarrier 17, 150 fps)\n")
	fmt.Fprintf(&b, "samples: %d (loss %.1f%%)\n", len(r.Series), 100*r.LossRate)
	fmt.Fprintf(&b, "%-18s %8s %8s %10s %9s\n", "Phase", "Start", "End", "Std/Mean", "HighBand")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-18s %7.0fs %7.0fs %10.4f %9.3f\n",
			p.Label, p.Start, p.End, p.NormStd, p.HighBand)
	}
	fmt.Fprintf(&b, "fluctuation trace (per-bin range): %s\n", r.Sparkline(90))
	fmt.Fprintf(&b, "phases separable from ACK CSI alone: %v\n", r.Separable)
	fmt.Fprintf(&b, "activity classifier held-out accuracy: %.0f%%\n", 100*r.ClassifierAccuracy)
	fmt.Fprintf(&b, "typing bursts localised in the typing window: %d\n", r.KeystrokeBursts)
	return b.String()
}
