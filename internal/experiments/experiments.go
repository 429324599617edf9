// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment returns a structured result
// with a Render method that prints the same rows/series the paper
// reports; cmd/experiments runs them all, and the repository's
// benchmark harness (bench_test.go) wraps each one in a testing.B
// target.
//
// Experiment index (see DESIGN.md §4):
//
//	E1 Figure2       — fake frame → ACK capture table
//	E2 Table1        — five chipsets, all polite
//	E3 Figure3       — deauthing AP still ACKs; blocklist is cosmetic
//	E4 SIFSAnalysis  — decode vs SIFS; RTS/CTS fallback; validating ablation
//	E5 Table2        — 5,328-device wardrive census
//	E6 Figure5       — CSI of ACKs during ground/pickup/hold/typing
//	E7 Figure6       — power draw vs fake-frame rate
//	E8 BatteryLife   — camera battery lifetimes under attack
//	E9 Sensing       — one-device vs two-device WiFi sensing
package experiments

import (
	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// Well-known addresses used across experiments, matching the paper's
// captures where it shows them.
var (
	apAddr     = dot11.MustMAC("f2:6e:0b:00:00:01")
	victimAddr = dot11.MustMAC("f2:6e:0b:12:34:56")
)

// homeNetwork is the standard experiment scene: one WPA2 network
// (AP + victim client), an attacker outside it, and a monitor sniffer.
type homeNetwork struct {
	sched    *eventsim.Scheduler
	medium   *radio.Medium
	ap       *mac.Station
	victim   *mac.Station
	attacker *core.Attacker
	sniffer  *radio.Radio
}

// homePSK returns a key handle for the home network's passphrase. An
// experiment that builds several networks creates one handle per call
// and shares it, so PBKDF2 runs once per call rather than once per
// network; the PMK bytes are the same either way, and key derivation
// costs no simulated time.
func homePSK() *crypto80211.PSK {
	return crypto80211.NewPSK("correct horse battery staple")
}

// newHomeNetwork builds the scene on the key handle psk. The victim's
// chipset profile is a parameter so Table 1 can sweep it.
func newHomeNetwork(seed int64, psk *crypto80211.PSK, apProfile, victimProfile mac.ChipsetProfile) *homeNetwork {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(seed)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss:        radio.LogDistance{Exponent: 2.2},
		CaptureMarginDB: 10,
	})
	h := &homeNetwork{sched: sched, medium: medium}
	h.ap = mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: apProfile,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 0}, Band: phy.Band2GHz, Channel: 6,
	})
	h.victim = mac.New(medium, rng.Fork(), mac.Config{
		Name: "victim", Addr: victimAddr, Role: mac.RoleClient, Profile: victimProfile,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	h.victim.Associate(apAddr, nil)
	sched.RunFor(300 * eventsim.Millisecond)
	h.attacker = core.NewAttacker(medium, radio.Position{X: 12}, phy.Band2GHz, 6, core.DefaultFakeMAC)
	h.sniffer = medium.NewRadio("sniffer", radio.Position{X: 8}, phy.Band2GHz, 6)
	return h
}
