// Quickstart: the smallest possible Polite WiFi demonstration.
//
// We build a WPA2-protected home network (one AP, one tablet), place
// an attacker outside it — never authenticated, holding no keys —
// and send a single fake 802.11 null frame to the tablet. The
// tablet's PHY acknowledges it to the attacker's spoofed MAC within
// one SIFS, exactly as the paper's Figure 2 shows.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/trace"
)

func main() {
	// 1. A deterministic simulated world.
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(42)
	medium := radio.NewMedium(sched, rng.Fork(), radio.DefaultConfig())

	// 2. A private WPA2 network: AP plus an associated tablet.
	apMAC := dot11.MustMAC("f2:6e:0b:00:00:01")
	tabletMAC := dot11.MustMAC("f2:6e:0b:12:34:56")
	psk := crypto80211.NewPSK("correct horse battery staple")
	mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apMAC, Role: mac.RoleAP,
		Profile: mac.ProfileGenericAP,
		SSID:    "HomeNet", PSK: psk,
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	tablet := mac.New(medium, rng.Fork(), mac.Config{
		Name: "tablet", Addr: tabletMAC, Role: mac.RoleClient,
		Profile: mac.ProfileMarvell88W8897, // Surface Pro 2017 (Table 1)
		SSID:    "HomeNet", PSK: psk,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	tablet.Associate(apMAC, nil)
	sched.RunFor(300 * eventsim.Millisecond)
	if !tablet.Associated() {
		log.Fatal("tablet failed to associate")
	}

	// 3. The attacker: a $12 monitor-mode dongle outside the network.
	attacker := core.NewAttacker(medium, radio.Position{X: 12},
		phy.Band2GHz, 6, core.DefaultFakeMAC)

	// A sniffer so we can show the exchange, Wireshark-style.
	capture := &trace.Capture{}
	sniffer := medium.NewRadio("sniffer", radio.Position{X: 8}, phy.Band2GHz, 6)
	capture.Attach(sniffer)

	// 4. One fake frame. The only valid field is the destination MAC.
	res := core.ProbeSync(attacker, tabletMAC, core.ProbeNull, 1, eventsim.Millisecond)
	sched.RunFor(5 * eventsim.Millisecond)

	fmt.Println("WiFi says \"Hi!\" back to strangers:")
	fmt.Print(capture.Table(tabletMAC, apMAC))
	fmt.Printf("\nfake frame acknowledged: %v (ACK %.1f µs after frame end = SIFS)\n",
		res.Responded, res.FirstGap.Micros())
	fmt.Printf("the tablet's host later discarded the frame (RxDiscarded=%d) — but the ACK had already left.\n",
		tablet.Stats.RxDiscarded)
}
