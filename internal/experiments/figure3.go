package experiments

import (
	"fmt"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/trace"
)

// Figure3Result reproduces the paper's Figure 3 and the §2.1
// blocklist experiment: an AP that detects the attacker as a
// malfunctioning device and deauths it — yet still acknowledges its
// fake frames, even after the attacker's MAC is manually blocked.
type Figure3Result struct {
	Capture *trace.Capture

	DeauthBursts   int  // deauth transmissions aimed at the attacker
	SameSNBursts   bool // retransmissions carry the same sequence number
	AckedDespite   bool // fake frame ACKed despite the deauths
	AckedBlocklist bool // fake frame ACKed with the blocklist active
	BlocklistDrops uint64
	DeauthFrameSNs []uint16
}

// Figure3 runs E3 against an AP with the deauth-on-unknown firmware
// (the Qualcomm IPQ 4019 profile observed in the paper).
func Figure3(seed int64) *Figure3Result {
	h := newHomeNetwork(seed, homePSK(), mac.ProfileQualcommIPQ4019, mac.ProfileGenericClient)
	cap := &trace.Capture{}
	cap.Attach(h.sniffer)

	// Phase 1: fake frames at the AP; it deauths but still ACKs.
	res1 := core.ProbeSync(h.attacker, apAddr, core.ProbeNull, 2, 40*eventsim.Millisecond)
	h.sched.RunFor(150 * eventsim.Millisecond)

	out := &Figure3Result{Capture: &trace.Capture{}, AckedDespite: res1.Responded}
	for _, r := range cap.Records {
		f := r.Frame()
		if f == nil {
			continue
		}
		switch ff := f.(type) {
		case *dot11.Deauth:
			if ff.Addr1 == h.attacker.MAC {
				out.DeauthBursts++
				out.DeauthFrameSNs = append(out.DeauthFrameSNs, ff.Seq.Number)
				out.Capture.Records = append(out.Capture.Records, r)
			}
		case *dot11.Data, *dot11.Ack:
			out.Capture.Records = append(out.Capture.Records, r)
		}
	}
	// Same-SN check within each burst of 3.
	out.SameSNBursts = len(out.DeauthFrameSNs) >= 3
	for i := 1; i < len(out.DeauthFrameSNs) && i < 3; i++ {
		if out.DeauthFrameSNs[i] != out.DeauthFrameSNs[0] {
			out.SameSNBursts = false
		}
	}

	// Phase 2: "we manually blocked the attacker's fake MAC address
	// on the access point. Surprisingly, the AP still acknowledges."
	h.ap.Block(h.attacker.MAC)
	res2 := core.ProbeSync(h.attacker, apAddr, core.ProbeNull, 3, 40*eventsim.Millisecond)
	h.sched.RunFor(150 * eventsim.Millisecond)
	out.AckedBlocklist = res2.Responded
	out.BlocklistDrops = h.ap.Stats.BlockedDrops
	return out
}

// Render prints the Figure 3 capture and the blocklist verdict.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: the attacked AP detects something strange, yet still ACKs\n")
	b.WriteString(r.Capture.Table(victimAddr, apAddr))
	fmt.Fprintf(&b, "deauth transmissions to attacker: %d (same SN across burst: %v)\n",
		r.DeauthBursts, r.SameSNBursts)
	fmt.Fprintf(&b, "fake frames ACKed despite deauths: %v\n", r.AckedDespite)
	fmt.Fprintf(&b, "fake frames ACKed with MAC blocklist active: %v (host dropped %d post-ACK)\n",
		r.AckedBlocklist, r.BlocklistDrops)
	return b.String()
}
