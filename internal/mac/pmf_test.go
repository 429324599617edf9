package mac

import (
	"testing"

	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// newPMFNet builds a WPA2+PMF network.
func newPMFNet(t *testing.T, pmf bool) *testNet {
	t.Helper()
	m := quietMedium()
	rng := eventsim.NewRNG(42)
	n := &testNet{m: m, sched: m.Sched}
	psk := crypto80211.NewPSK("hunter2 hunter2")
	n.ap = New(m, rng, Config{
		Name: "ap", Addr: apAddr, Role: RoleAP, Profile: ProfileGenericAP,
		SSID: "HomeNet", PSK: psk, PMF: pmf,
		Position: radio.Position{X: 0}, Band: phy.Band2GHz, Channel: 6,
	})
	n.client = New(m, rng, Config{
		Name: "client", Addr: clientAddr, Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "HomeNet", PSK: psk, PMF: pmf,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	n.attacker = m.NewRadio("attacker", radio.Position{X: 10}, phy.Band2GHz, 6)
	n.attacker.SetHandler(func(rx radio.Reception) {
		if !rx.FCSOK {
			return
		}
		if f, err := dot11.Decode(rx.Data); err == nil {
			n.captured = append(n.captured, f)
		}
	})
	return n
}

func forgedDeauth(victim, from dot11.MAC, seq uint16) *dot11.Deauth {
	return &dot11.Deauth{
		Header: dot11.Header{
			FC:    dot11.FrameControl{FromDS: true},
			Addr1: victim, Addr2: from, Addr3: from,
			Seq: dot11.SequenceControl{Number: seq},
		},
		Reason: dot11.ReasonDeauthLeaving,
	}
}

// TestDeauthAttackWithoutPMF: the classic attack works on a
// pre-802.11w network — one forged frame disconnects the victim.
func TestDeauthAttackWithoutPMF(t *testing.T) {
	n := newPMFNet(t, false)
	n.associate(t)
	if n.client.PMFEnabled() {
		t.Fatal("PMF unexpectedly enabled")
	}
	n.inject(t, forgedDeauth(clientAddr, apAddr, 99), phy.Rate24)
	n.sched.RunFor(20 * eventsim.Millisecond)
	if n.client.Associated() {
		t.Fatal("forged deauth did not disconnect an unprotected client")
	}
}

// TestDeauthAttackDefeatedByPMF: with 802.11w the forgery is dropped
// at the host — but its PHY ACK still goes out (footnote 2: PMF does
// not and cannot stop Polite WiFi).
func TestDeauthAttackDefeatedByPMF(t *testing.T) {
	n := newPMFNet(t, true)
	n.associate(t)
	if !n.client.PMFEnabled() {
		t.Fatal("PMF not enabled")
	}
	n.captured = nil
	n.inject(t, forgedDeauth(clientAddr, apAddr, 99), phy.Rate24)
	n.sched.RunFor(20 * eventsim.Millisecond)

	if !n.client.Associated() {
		t.Fatal("PMF client disconnected by a forged deauth")
	}
	if n.client.Stats.ForgedMgmtDropped == 0 {
		t.Fatal("forgery not counted")
	}
	// The deauth — a unicast management frame — was still ACKed. The
	// forged frame's TA is the AP, so the ACK flows to the AP's MAC.
	acks := 0
	for _, f := range n.captured {
		if a, ok := f.(*dot11.Ack); ok && a.RA == apAddr {
			acks++
		}
	}
	if acks == 0 {
		t.Fatal("PMF suppressed the PHY ACK — it must not")
	}
}

// TestPMFLegitimateDeauthStillWorks: the AP's own (protected) deauth
// is honoured by the PMF client.
func TestPMFLegitimateDeauthStillWorks(t *testing.T) {
	n := newPMFNet(t, true)
	n.associate(t)
	// AP deauths its own client (e.g. admin kick).
	n.ap.sendDeauth(clientAddr, dot11.ReasonDeauthLeaving)
	n.sched.RunFor(50 * eventsim.Millisecond)
	if n.client.Associated() {
		t.Fatal("protected deauth from the real AP ignored")
	}
	if n.client.Stats.ForgedMgmtDropped != 0 {
		t.Fatal("legitimate protected deauth misclassified as forgery")
	}
}

// TestPMFFakeNullStillAcked: PMF changes nothing about the core
// Polite WiFi behaviour.
func TestPMFFakeNullStillAcked(t *testing.T) {
	n := newPMFNet(t, true)
	n.associate(t)
	n.captured = nil
	n.inject(t, dot11.NewNullFrame(clientAddr, fakeAddr, fakeAddr, 5), phy.Rate24)
	n.sched.RunFor(5 * eventsim.Millisecond)
	if n.acksTo(fakeAddr) != 1 {
		t.Fatal("PMF client stopped ACKing fake data frames")
	}
	// And fake RTS still elicits CTS (control frames unprotectable).
	n.inject(t, &dot11.RTS{RA: clientAddr, TA: fakeAddr, Duration: 100}, phy.Rate24)
	n.sched.RunFor(5 * eventsim.Millisecond)
	if n.client.Stats.CTSSent != 1 {
		t.Fatal("PMF client stopped responding to RTS")
	}
}

// TestPMFRequiresKeys: PMF silently disables on open networks.
func TestPMFRequiresKeys(t *testing.T) {
	m := quietMedium()
	rng := eventsim.NewRNG(1)
	st := New(m, rng, Config{
		Name: "open", Addr: clientAddr, Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "open", PMF: true,
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 1,
	})
	if st.PMFEnabled() {
		t.Fatal("PMF enabled without a passphrase")
	}
}

// --- Power-save buffering (TIM + PS-Poll) ---------------------------

// TestAPBuffersForDozingClient: data sent to a dozing PS client is
// held at the AP, announced in the beacon TIM, retrieved with a
// PS-Poll, and delivered.
func TestAPBuffersForDozingClient(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileESP8266)
	n.associate(t)
	n.client.EnablePowerSave()
	n.sched.RunFor(400 * eventsim.Millisecond) // settle into doze
	if !n.client.Radio.Asleep() {
		t.Fatal("client not dozing")
	}

	var got []byte
	n.client.OnDeliver = func(f dot11.Frame, rx radio.Reception) {
		if d, ok := f.(*dot11.Data); ok {
			got = d.Payload
		}
	}
	if err := n.ap.SendData(clientAddr, []byte("buffered while you slept")); err != nil {
		t.Fatal(err)
	}
	// The frame must not arrive before the next beacon+poll cycle.
	n.sched.RunFor(2 * eventsim.Millisecond)
	if got != nil {
		t.Fatal("frame delivered while the client slept")
	}
	n.sched.RunFor(300 * eventsim.Millisecond) // ≥1 beacon: TIM → PS-Poll → data
	if string(got) != "buffered while you slept" {
		t.Fatalf("delivered = %q", got)
	}
	if n.client.Stats.PSPollsSent == 0 {
		t.Fatal("client never polled")
	}
}

// TestDisablePowerSaveFlushes: leaving PS mode flushes the buffer
// without waiting for a beacon.
func TestDisablePowerSaveFlushes(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileESP8266)
	n.associate(t)
	n.client.EnablePowerSave()
	n.sched.RunFor(400 * eventsim.Millisecond)

	var got []byte
	n.client.OnDeliver = func(f dot11.Frame, rx radio.Reception) {
		if d, ok := f.(*dot11.Data); ok {
			got = d.Payload
		}
	}
	n.ap.SendData(clientAddr, []byte("flush me"))
	n.sched.RunFor(2 * eventsim.Millisecond)
	n.client.DisablePowerSave()
	n.sched.RunFor(60 * eventsim.Millisecond)
	if string(got) != "flush me" {
		t.Fatalf("delivered = %q", got)
	}
}
