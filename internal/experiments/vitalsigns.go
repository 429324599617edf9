package experiments

import (
	"fmt"
	"math"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/csi"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
)

// VitalSignsRow is one breathing-rate measurement.
type VitalSignsRow struct {
	TrueBPM      float64
	EstimatedBPM float64
	ErrorBPM     float64
}

// VitalSignsResult answers one of the paper's explicit open questions
// (§4.1): "can an attacker estimate vital signs such as heart rate
// and breathing rate of people from the CSI of their WiFi devices?"
// — yes, for breathing: the chest's periodic displacement modulates a
// body-scatter path, and the dominant frequency of the ACK-CSI
// amplitude recovers the rate.
type VitalSignsResult struct {
	Rows      []VitalSignsRow
	MeanError float64
	// Recovered: all estimates within 2 BPM.
	Recovered bool
}

// VitalSigns is extension experiment EX2: the attacker probes a
// sleeping person's phone at 50 fps for 60 s and reads their
// breathing rate out of the forced ACKs.
func VitalSigns(seed int64) *VitalSignsResult {
	out := &VitalSignsResult{Recovered: true}
	psk := homePSK()
	for i, bpm := range []float64{10, 14, 18, 24} {
		h := newHomeNetwork(seed+int64(i)*7, psk, mac.ProfileGenericAP, mac.ProfileGenericClient)
		rng := eventsim.NewRNG(seed + 500 + int64(i))
		scene := csi.NewScene(rng.Fork())
		tl := (&csi.Timeline{}).Add(0, 60, csi.Breathing(bpm))
		sensor := core.NewCSISensor(h.attacker, victimAddr, scene, tl)
		series := sensor.RunFor(50, 60*eventsim.Second)

		// Average a few subcarriers for robustness, smooth, and find
		// the dominant frequency in the respiratory band.
		n := len(series)
		avg := make([]float64, n)
		for _, slot := range []int{8, 17, 30, 44} {
			amp := series.Amplitudes(slot)
			m := csi.Mean(amp)
			for j := range avg {
				avg[j] += amp[j] / m
			}
		}
		smoothed := csi.MovingAverage(avg, 5)
		fs := series.MeanRate()
		est := csi.DominantFrequency(smoothed, fs, 0.08, 0.6, 120) * 60
		row := VitalSignsRow{TrueBPM: bpm, EstimatedBPM: est, ErrorBPM: math.Abs(est - bpm)}
		if row.ErrorBPM > 2 {
			out.Recovered = false
		}
		out.MeanError += row.ErrorBPM
		out.Rows = append(out.Rows, row)
	}
	out.MeanError /= float64(len(out.Rows))
	return out
}

// Render prints the breathing-rate table.
func (r *VitalSignsResult) Render() string {
	var b strings.Builder
	b.WriteString("Open question (§4.1): breathing rate from ACK CSI\n")
	fmt.Fprintf(&b, "%12s %14s %10s\n", "true (BPM)", "estimated", "error")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12.0f %14.1f %10.1f\n", row.TrueBPM, row.EstimatedBPM, row.ErrorBPM)
	}
	fmt.Fprintf(&b, "mean error %.1f BPM; recovered within 2 BPM: %v\n", r.MeanError, r.Recovered)
	return b.String()
}
