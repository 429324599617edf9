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

// Figure2Result reproduces the paper's Figure 2: the raw capture of
// the attacker/victim exchange showing a Null function frame from the
// fake MAC answered by an Acknowledgement to the fake MAC.
type Figure2Result struct {
	// Capture is the sniffer's view of the exchange.
	Capture *trace.Capture
	// Acked reports whether the victim acknowledged the fake frame.
	Acked bool
	// GapMicros is the frame-end→ACK-start gap (expected: one SIFS).
	GapMicros float64
	// Probe carries the full probe statistics.
	Probe core.ProbeResult
}

// Figure2 runs E1: the attacker — never authenticated, holding no
// keys — sends one unencrypted null frame to the WPA2-protected
// victim and the victim's PHY acknowledges it to the fake MAC.
func Figure2(seed int64) *Figure2Result {
	h := newHomeNetwork(seed, homePSK(), mac.ProfileGenericAP, mac.ProfileGenericClient)
	cap := &trace.Capture{}
	cap.Attach(h.sniffer)

	res := core.ProbeSync(h.attacker, victimAddr, core.ProbeNull, 1, 2*eventsim.Millisecond)
	h.sched.RunFor(5 * eventsim.Millisecond)

	// Keep only the exchange frames (drop beacons) for the figure.
	exchange := &trace.Capture{}
	for _, r := range cap.Records {
		f := r.Frame()
		if f == nil {
			continue
		}
		switch f.(type) {
		case *dot11.Data, *dot11.Ack:
			exchange.Records = append(exchange.Records, r)
		}
	}
	return &Figure2Result{
		Capture:   exchange,
		Acked:     res.Responded,
		GapMicros: res.FirstGap.Micros(),
		Probe:     res,
	}
}

// Render prints the Wireshark-style table of Figure 2.
func (r *Figure2Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2: frames exchanged between attacker and victim\n")
	b.WriteString(r.Capture.Table(victimAddr, apAddr))
	fmt.Fprintf(&b, "victim acknowledged fake frame: %v (ACK after %.1f µs ≈ SIFS)\n",
		r.Acked, r.GapMicros)
	return b.String()
}
