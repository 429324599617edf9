package experiments

import (
	"fmt"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// PMFRow is one network configuration in the footnote-2 study.
type PMFRow struct {
	Config string
	// DeauthAttackWorks: did a single forged deauth disconnect the
	// victim?
	DeauthAttackWorks bool
	// ForgeryAcked: was the forged deauth frame still ACKed at the PHY?
	ForgeryAcked bool
	// FakeNullAcked / RTSAnswered: the core Polite WiFi behaviours.
	FakeNullAcked bool
	RTSAnswered   bool
}

// PMFResult reproduces the paper's footnote 2: "IEEE 802.11w ...
// supports protected management frames ... However, control frames
// are still unprotected. Fundamentally, WiFi cannot encrypt control
// packets."
type PMFResult struct {
	Rows []PMFRow
}

// PMFStudy is an extension experiment (EX1 in DESIGN.md): it shows
// 802.11w stopping the classic deauthentication attack while leaving
// every Polite WiFi behaviour intact.
func PMFStudy(seed int64) *PMFResult {
	out := &PMFResult{}
	psk := homePSK()
	for _, pmf := range []bool{false, true} {
		sched := eventsim.NewScheduler()
		rng := eventsim.NewRNG(seed)
		medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
			PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
		})
		mac.New(medium, rng.Fork(), mac.Config{
			Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
			SSID: "HomeNet", PSK: psk, PMF: pmf,
			Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
		})
		victim := mac.New(medium, rng.Fork(), mac.Config{
			Name: "victim", Addr: victimAddr, Role: mac.RoleClient, Profile: mac.ProfileGenericClient,
			SSID: "HomeNet", PSK: psk, PMF: pmf,
			Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
		})
		victim.Associate(apAddr, nil)
		sched.RunFor(300 * eventsim.Millisecond)
		attacker := core.NewAttacker(medium, radio.Position{X: 12}, phy.Band2GHz, 6, core.DefaultFakeMAC)

		// The deauth attack: forge one frame from the AP.
		var ackedToAP int
		attacker.OnFrame(func(f dot11.Frame, rx radio.Reception) {
			if a, ok := f.(*dot11.Ack); ok && a.RA == apAddr {
				ackedToAP++
			}
		})
		attacker.InjectDeauth(victimAddr, apAddr)
		sched.RunFor(50 * eventsim.Millisecond)

		row := PMFRow{
			DeauthAttackWorks: !victim.Associated(),
			ForgeryAcked:      ackedToAP > 0,
		}
		if pmf {
			row.Config = "WPA2 + 802.11w (PMF)"
		} else {
			row.Config = "WPA2"
		}

		// The Polite WiFi behaviours, unchanged either way.
		null := core.ProbeSync(attacker, victimAddr, core.ProbeNull, 3, 3*eventsim.Millisecond)
		rts := core.ProbeSync(attacker, victimAddr, core.ProbeRTS, 3, 3*eventsim.Millisecond)
		row.FakeNullAcked = null.Responded
		row.RTSAnswered = rts.Responded
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render prints the footnote-2 comparison.
func (r *PMFResult) Render() string {
	var b strings.Builder
	b.WriteString("Footnote 2: 802.11w protected management frames vs Polite WiFi\n")
	fmt.Fprintf(&b, "%-24s %-18s %-14s %-14s %s\n",
		"Network", "Deauth attack?", "Forgery ACKed", "Null ACKed", "RTS→CTS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %-18v %-14v %-14v %v\n",
			row.Config, row.DeauthAttackWorks, row.ForgeryAcked, row.FakeNullAcked, row.RTSAnswered)
	}
	b.WriteString("PMF kills the forged-deauth attack but cannot touch the ACK/CTS paths:\n")
	b.WriteString("control frames must stay readable by every nearby station.\n")
	return b.String()
}
