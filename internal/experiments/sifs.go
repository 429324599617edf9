package experiments

import (
	"fmt"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
)

// SIFSResult is the §2.2 analysis: why Polite WiFi cannot be
// prevented.
type SIFSResult struct {
	// Rows compare WPA2 decode latency against the SIFS deadline for
	// every band and decoder class.
	Rows []core.FeasibilityRow

	// Ablation: a hypothetical validating station.
	ValidatingLateAcks  uint64 // ACKs it sent after the deadline
	ValidatingTxRetries uint64 // retries its legitimate peer suffered
	ValidatingTxFailed  uint64 // peer frames lost outright
	ValidatingAcksFakes bool   // did it ack fake frames? (no)

	// Even the validator answers fake RTS with CTS.
	RTSElicitedCTS bool
	CTSResponses   int
}

// SIFSAnalysis runs E4.
func SIFSAnalysis(seed int64) *SIFSResult {
	out := &SIFSResult{Rows: core.FeasibilityStudy(500)}

	// Ablation: validating victim. Its own AP sends it legitimate
	// traffic; every ACK misses the deadline so the AP retries and
	// fails.
	h := newHomeNetwork(seed, homePSK(), mac.ProfileGenericAP, mac.ProfileValidating)
	for i := 0; i < 5; i++ {
		h.ap.SendData(victimAddr, []byte("legitimate protected traffic"))
		h.sched.RunFor(100 * eventsim.Millisecond)
	}
	out.ValidatingLateAcks = h.victim.Stats.LateAcks
	out.ValidatingTxRetries = h.ap.Stats.TxRetries
	out.ValidatingTxFailed = h.ap.Stats.TxFailed

	fake := core.ProbeSync(h.attacker, victimAddr, core.ProbeNull, 5, 5*eventsim.Millisecond)
	out.ValidatingAcksFakes = fake.Responded

	// RTS/CTS: control frames cannot be protected, so the validator
	// responds anyway.
	rts := core.ProbeSync(h.attacker, victimAddr, core.ProbeRTS, 5, 5*eventsim.Millisecond)
	out.RTSElicitedCTS = rts.Responded
	out.CTSResponses = rts.Responses
	return out
}

// Render prints the feasibility table and the ablation verdicts.
func (r *SIFSResult) Render() string {
	var b strings.Builder
	b.WriteString("§2.2: can a receiver validate a frame before the ACK deadline?\n")
	b.WriteString(core.RenderFeasibility(r.Rows))
	b.WriteString("\nAblation — hypothetical decrypt-then-ACK station:\n")
	fmt.Fprintf(&b, "  late ACKs (missed SIFS): %d\n", r.ValidatingLateAcks)
	fmt.Fprintf(&b, "  peer retransmissions caused: %d, peer frames lost: %d\n",
		r.ValidatingTxRetries, r.ValidatingTxFailed)
	fmt.Fprintf(&b, "  fake data frames acknowledged: %v\n", r.ValidatingAcksFakes)
	fmt.Fprintf(&b, "  fake RTS answered with CTS anyway: %v (%d responses)\n",
		r.RTSElicitedCTS, r.CTSResponses)
	b.WriteString("conclusion: data-frame validation breaks the link; control frames are\n")
	b.WriteString("unencryptable, so Polite WiFi remains exploitable either way.\n")
	return b.String()
}
