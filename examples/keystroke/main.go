// Keystroke inference without a rogue AP (paper §4.1, Figure 5).
//
// The attacker sits in another room, injects 150 fake frames per
// second at a tablet it has never met, and measures the CSI of the
// ACKs the tablet is forced to transmit. As the user approaches,
// picks the tablet up, holds it and types, the CSI amplitude tells
// the phases apart — and a tiny classifier labels held-out windows.
//
// Run: go run ./examples/keystroke
package main

import (
	"fmt"

	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/csi"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

func main() {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(7)
	medium := radio.NewMedium(sched, rng.Fork(), radio.DefaultConfig())

	apMAC := dot11.MustMAC("f2:6e:0b:00:00:01")
	tabletMAC := dot11.MustMAC("f2:6e:0b:12:34:56")
	psk := crypto80211.NewPSK("a very secret passphrase")
	mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apMAC, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	tablet := mac.New(medium, rng.Fork(), mac.Config{
		Name: "tablet", Addr: tabletMAC, Role: mac.RoleClient,
		Profile: mac.ProfileMarvell88W8897,
		SSID:    "HomeNet", PSK: psk,
		Position: radio.Position{X: 8}, Band: phy.Band2GHz, Channel: 6,
	})
	tablet.Associate(apMAC, nil)
	sched.RunFor(300 * eventsim.Millisecond)

	// ESP32-class sensing attacker in the next room (the paper's $5
	// module). It knows nothing about the network.
	attacker := core.NewAttacker(medium, radio.Position{X: 0, Y: 4}, phy.Band2GHz, 6, core.DefaultFakeMAC)

	// The physical world between them: walls, and a user following
	// the Figure 5 script (approach at 9 s, pick up, hold, type).
	scene := csi.NewScene(rng.Fork())
	timeline := csi.Figure5Timeline(rng.Fork())

	sensor := core.NewCSISensor(attacker, tabletMAC, scene, timeline)
	series := sensor.RunFor(150, 45*eventsim.Second)
	fmt.Printf("collected %d CSI samples at %.1f Hz (loss %.1f%%)\n\n",
		len(series), series.MeanRate(), 100*sensor.LossRate())

	// Per-phase statistics on subcarrier 17 (the one the paper plots).
	amp := csi.Hampel(series.Amplitudes(17), 5, 3)
	times := series.Times()
	fmt.Printf("%-6s %-10s %12s\n", "t", "activity", "fluctuation")
	for sec := 0; sec < 45; sec += 3 {
		var w []float64
		for i, t := range times {
			if t >= float64(sec) && t < float64(sec+3) {
				w = append(w, amp[i])
			}
		}
		if len(w) == 0 {
			continue
		}
		norm := csi.Std(w) / csi.Mean(w)
		bar := ""
		for i := 0; i < int(norm*300) && i < 50; i++ {
			bar += "▇"
		}
		fmt.Printf("%3ds   %-10s %12.4f %s\n", sec, timeline.Label(float64(sec)+1), norm, bar)
	}

	// Typing windows carry high-frequency energy holding lacks — the
	// lever existing keystroke-inference attacks (WindTalker) pull.
	hold := window(amp, times, 23, 31)
	typing := window(amp, times, 33, 41)
	fh := csi.Extract(hold, 150)
	ft := csi.Extract(typing, 150)
	fmt.Printf("\nhigh-band (>2.5 Hz) spectral fraction: hold %.3f vs typing %.3f\n",
		fh.HighBand, ft.HighBand)
	fmt.Println("→ keystroke activity is visible to an attacker with no network access at all.")
}

func window(amp, times []float64, lo, hi float64) []float64 {
	var w []float64
	for i, t := range times {
		if t >= lo && t < hi {
			w = append(w, amp[i])
		}
	}
	return w
}
