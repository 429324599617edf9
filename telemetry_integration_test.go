// Cross-checks the two independent observers of the same simulated
// air: the pcap-style sniffer capture (package trace) and the
// telemetry registry the layers stamp directly. On a quiet medium
// every frame the sniffer records was also counted by the medium and
// the MAC, so the two views must agree exactly.
package politewifi_test

import (
	"testing"

	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/telemetry"
	"politewifi/internal/trace"
)

func TestCaptureAgreesWithTelemetry(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(42)
	medium := radio.NewMedium(sched, rng.Fork(), radio.DefaultConfig())

	reg := telemetry.NewRegistry(sched.ObservedNow)
	telemetry.AttachScheduler(reg, sched, false)
	medium.SetMetrics(radio.NewMetrics(reg))
	macMx := mac.NewMetrics(reg)

	apMAC := dot11.MustMAC("f2:6e:0b:00:00:01")
	tabletMAC := dot11.MustMAC("f2:6e:0b:12:34:56")
	psk := crypto80211.NewPSK("correct horse battery staple")
	ap := mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apMAC, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	ap.SetMetrics(macMx)
	tablet := mac.New(medium, rng.Fork(), mac.Config{
		Name: "tablet", Addr: tabletMAC, Role: mac.RoleClient, Profile: mac.ProfileMarvell88W8897,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	tablet.SetMetrics(macMx)
	tablet.Associate(apMAC, nil)
	sched.RunFor(300 * eventsim.Millisecond)
	if !tablet.Associated() {
		t.Fatal("tablet failed to associate")
	}

	attacker := core.NewAttacker(medium, radio.Position{X: 12}, phy.Band2GHz, 6, core.DefaultFakeMAC)
	attacker.InstrumentInto(reg)
	capture := &trace.Capture{}
	sniffer := medium.NewRadio("sniffer", radio.Position{X: 8}, phy.Band2GHz, 6)
	capture.Attach(sniffer)
	capture.CountsInto(reg)

	const probes = 10
	res := core.ProbeSync(attacker, tabletMAC, core.ProbeNull, probes, 3*eventsim.Millisecond)
	sched.RunFor(5 * eventsim.Millisecond)
	if !res.Responded {
		t.Fatalf("probe round failed: %+v", res)
	}

	rep := reg.Snapshot()

	// The sniffer was attached after association, so on the quiet
	// medium it saw exactly the probe round: N nulls + N ACKs.
	sum := capture.Summary()
	if sum["Null function (No data)"] != probes {
		t.Fatalf("capture nulls = %d, want %d (summary %v)", sum["Null function (No data)"], probes, sum)
	}
	if c := rep.Counter("capture.frames.acknowledgement"); c == nil || c.Value != uint64(sum["Acknowledgement"]) {
		t.Fatalf("capture.frames.acknowledgement = %+v vs Summary %d", c, sum["Acknowledgement"])
	}
	if c := rep.Counter("capture.frames_total"); c == nil || int(c.Value) != capture.Len() {
		t.Fatalf("capture.frames_total = %+v vs Len %d", c, capture.Len())
	}

	// ACKs the sniffer saw during the probe round == ACKs the tablet's
	// MAC counted for the attacker's data-class nulls plus what the
	// attacker itself tallied.
	acksSniffed := uint64(sum["Acknowledgement"])
	if got := rep.Counter("core.acks_to_me").Value; got != acksSniffed {
		t.Fatalf("attacker saw %d ACKs, sniffer saw %d", got, acksSniffed)
	}
	// mac.acks.* accumulates since station creation (association
	// handshake ACKs included), so the probe round's contribution is
	// the data-class ACK count minus the association-era data ACKs —
	// on this quiet network the nulls are the only data-class frames
	// ACKed after warm-up. Cross-check totals rather than deltas: the
	// sniffed ACK count can never exceed what the MACs sent.
	macAcks := rep.Counter("mac.acks.data").Value + rep.Counter("mac.acks.mgmt").Value +
		rep.Counter("mac.acks.other").Value
	if acksSniffed > macAcks {
		t.Fatalf("sniffer saw %d ACKs but MACs only sent %d", acksSniffed, macAcks)
	}
	if rep.Counter("mac.acks.data").Value < uint64(probes) {
		t.Fatalf("mac.acks.data = %d, want ≥%d (one per probe)", rep.Counter("mac.acks.data").Value, probes)
	}

	// Medium-level accounting: every delivery the sniffer logged is a
	// subset of the medium's deliveries (sniffer is one of several
	// receivers), and the probe round's transmissions are included.
	if med := rep.Counter("medium.deliveries"); med == nil || int(med.Value) < capture.Len() {
		t.Fatalf("medium.deliveries = %+v < capture %d", rep.Counter("medium.deliveries"), capture.Len())
	}
	if tx := rep.Counter("medium.transmissions"); tx == nil || tx.Value < 2*probes {
		t.Fatalf("medium.transmissions = %+v, want ≥%d", tx, 2*probes)
	}
}
