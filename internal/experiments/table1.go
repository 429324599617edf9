package experiments

import (
	"fmt"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
)

// Table1Row is one device of the paper's Table 1 plus our measured
// verdict.
type Table1Row struct {
	Device   string
	Module   string
	Standard string
	Probes   int
	Acks     int
	Polite   bool
}

// Table1Result reproduces the chipset-diversity study.
type Table1Result struct {
	Rows []Table1Row
	// AllPolite is the paper's finding: every tested device responds.
	AllPolite bool
}

// Table1 runs E2: each of the paper's five devices (different WiFi
// modules and standards, one of them an AP) is probed with fake
// frames while associated to (or serving) a WPA2 network.
func Table1(seed int64) *Table1Result {
	return table1(seed, homePSK())
}

// table1 runs E2 with every device's network on the key handle psk.
func table1(seed int64, psk *crypto80211.PSK) *Table1Result {
	out := &Table1Result{AllPolite: true}
	for i, entry := range mac.Table1Profiles {
		var h *homeNetwork
		var target = victimAddr
		if entry.Profile.DeauthOnUnknown {
			// The Google Wifi AP entry: probe the AP itself.
			h = newHomeNetwork(seed+int64(i), psk, entry.Profile, mac.ProfileGenericClient)
			target = apAddr
		} else {
			h = newHomeNetwork(seed+int64(i), psk, mac.ProfileGenericAP, entry.Profile)
		}
		res := core.ProbeSync(h.attacker, target, core.ProbeNull, 10, 3*eventsim.Millisecond)
		row := Table1Row{
			Device:   entry.Device,
			Module:   entry.Profile.Name,
			Standard: entry.Profile.Standard,
			Probes:   res.Sent,
			Acks:     res.Responses,
			Polite:   res.Responded,
		}
		if !row.Polite {
			out.AllPolite = false
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render prints Table 1 with the measured verdict column.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: list of tested chipsets/devices\n")
	fmt.Fprintf(&b, "%-22s %-20s %-9s %6s %6s %s\n",
		"Device", "WiFi module", "Standard", "Probes", "ACKs", "Polite?")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-20s %-9s %6d %6d %v\n",
			row.Device, row.Module, row.Standard, row.Probes, row.Acks, row.Polite)
	}
	fmt.Fprintf(&b, "all devices polite: %v\n", r.AllPolite)
	return b.String()
}
