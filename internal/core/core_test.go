package core

import (
	"strings"
	"testing"

	"politewifi/internal/crypto80211"
	"politewifi/internal/csi"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

var (
	apAddr     = dot11.MustMAC("f2:6e:0b:00:00:01")
	clientAddr = dot11.MustMAC("f2:6e:0b:12:34:56")
)

// world is a single WPA2 home network with an attacker outside it.
type world struct {
	m        *radio.Medium
	sched    *eventsim.Scheduler
	ap       *mac.Station
	client   *mac.Station
	attacker *Attacker
}

func newWorld(t *testing.T) *world {
	t.Helper()
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(11)
	m := radio.NewMedium(sched, rng, radio.Config{
		PathLoss:        radio.LogDistance{Exponent: 2.0},
		CaptureMarginDB: 10,
	})
	w := &world{m: m, sched: sched}
	psk := crypto80211.NewPSK("secret passphrase")
	w.ap = mac.New(m, rng, mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 0}, Band: phy.Band2GHz, Channel: 6,
	})
	w.client = mac.New(m, rng, mac.Config{
		Name: "client", Addr: clientAddr, Role: mac.RoleClient, Profile: mac.ProfileGenericClient,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	ok := false
	w.client.Associate(apAddr, func(v bool) { ok = v })
	sched.RunFor(300 * eventsim.Millisecond)
	if !ok {
		t.Fatal("association failed")
	}
	w.attacker = NewAttacker(m, radio.Position{X: 12}, phy.Band2GHz, 6, DefaultFakeMAC)
	return w
}

func TestProbeNullGetsAck(t *testing.T) {
	w := newWorld(t)
	res := ProbeSync(w.attacker, clientAddr, ProbeNull, 5, 5*eventsim.Millisecond)
	if !res.Responded {
		t.Fatal("victim did not respond — Polite WiFi broken")
	}
	if res.Sent != 5 || res.Responses != 5 {
		t.Fatalf("sent=%d responses=%d, want 5/5", res.Sent, res.Responses)
	}
	if res.ResponseRate() != 1 {
		t.Fatalf("response rate = %v", res.ResponseRate())
	}
	// Gap ≈ SIFS (10 µs) + sub-µs propagation.
	if res.FirstGap < 10*eventsim.Microsecond || res.FirstGap > 12*eventsim.Microsecond {
		t.Fatalf("first gap = %v, want ~SIFS", res.FirstGap)
	}
	if w.attacker.AcksToMe != 5 {
		t.Fatalf("attacker saw %d ACKs", w.attacker.AcksToMe)
	}
}

func TestProbeAbsentDeviceNoResponse(t *testing.T) {
	w := newWorld(t)
	ghost := dot11.MustMAC("00:00:5e:00:53:01")
	res := ProbeSync(w.attacker, ghost, ProbeNull, 3, 5*eventsim.Millisecond)
	if res.Responded || res.Responses != 0 {
		t.Fatalf("ghost responded: %+v", res)
	}
}

func TestProbeRTSGetsCTS(t *testing.T) {
	w := newWorld(t)
	res := ProbeSync(w.attacker, clientAddr, ProbeRTS, 4, 5*eventsim.Millisecond)
	if !res.Responded {
		t.Fatal("no CTS elicited")
	}
	if res.Responses != 4 {
		t.Fatalf("CTS responses = %d, want 4", res.Responses)
	}
	if w.attacker.CTSToMe != 4 {
		t.Fatalf("attacker CTS counter = %d", w.attacker.CTSToMe)
	}
	if res.Mode.String() != "rts/cts" || ProbeNull.String() != "null/ack" {
		t.Fatal("mode strings wrong")
	}
}

func TestProbeAPAlsoResponds(t *testing.T) {
	w := newWorld(t)
	res := ProbeSync(w.attacker, apAddr, ProbeNull, 3, 5*eventsim.Millisecond)
	if !res.Responded || res.Responses != 3 {
		t.Fatalf("AP result: %+v", res)
	}
}

func TestProberStop(t *testing.T) {
	w := newWorld(t)
	p := NewProber(w.attacker, ProbeNull)
	var got *ProbeResult
	p.Run(clientAddr, 100, eventsim.Millisecond, func(r ProbeResult) { got = &r })
	w.sched.RunFor(3 * eventsim.Millisecond)
	p.Stop()
	w.sched.RunFor(10 * eventsim.Millisecond)
	if got == nil {
		t.Fatal("completion callback never fired after Stop")
	}
	if got.Sent >= 100 {
		t.Fatalf("Stop did not abort (sent=%d)", got.Sent)
	}
}

func TestScannerDiscoversAndVerifies(t *testing.T) {
	w := newWorld(t)
	sc := NewScanner(w.attacker)
	sc.Start()
	// The client chats with the AP so the scanner can discover it.
	chat := w.sched.Every(50*eventsim.Millisecond, func() {
		w.client.SendData(apAddr, []byte("background traffic"))
	})
	w.sched.RunFor(2 * eventsim.Second)
	chat.Stop()
	sc.Stop()

	tally := sc.Tally()
	if tally.Total < 2 {
		t.Fatalf("discovered %d devices, want ≥2", tally.Total)
	}
	if tally.TotalResponded != tally.Total {
		t.Fatalf("responded %d of %d — all devices must be polite", tally.TotalResponded, tally.Total)
	}
	if tally.APs < 1 || tally.Clients < 1 {
		t.Fatalf("tally = %+v", tally)
	}
	var foundAP, foundClient bool
	for _, d := range sc.Devices() {
		switch d.MAC {
		case apAddr:
			foundAP = true
			if d.Kind != KindAP {
				t.Fatalf("AP classified as %v", d.Kind)
			}
			if d.SSID != "HomeNet" {
				t.Fatalf("AP SSID = %q", d.SSID)
			}
		case clientAddr:
			foundClient = true
			if d.Kind != KindClient {
				t.Fatalf("client classified as %v", d.Kind)
			}
		}
		if !d.Responded || d.Acks == 0 {
			t.Fatalf("device %v not verified: %+v", d.MAC, d)
		}
	}
	if !foundAP || !foundClient {
		t.Fatalf("missing devices (ap=%v client=%v)", foundAP, foundClient)
	}
	if sc.Pending() != 0 {
		t.Fatalf("pending = %d", sc.Pending())
	}
	if KindAP.String() != "AP" || KindClient.String() != "client" {
		t.Fatal("kind strings")
	}
}

func TestScannerIgnoresOwnFrames(t *testing.T) {
	w := newWorld(t)
	sc := NewScanner(w.attacker)
	sc.Start()
	w.sched.RunFor(500 * eventsim.Millisecond)
	sc.Stop()
	for _, d := range sc.Devices() {
		if d.MAC == w.attacker.MAC {
			t.Fatal("scanner listed its own spoofed MAC")
		}
	}
}

func TestDrainerRate(t *testing.T) {
	w := newWorld(t)
	d := NewDrainer(w.attacker, clientAddr)
	acksBefore := w.client.Stats.AcksSent
	d.RunFor(100, eventsim.Second)
	if d.Sent < 95 || d.Sent > 105 {
		t.Fatalf("sent = %d at 100 fps for 1 s", d.Sent)
	}
	acked := w.client.Stats.AcksSent - acksBefore
	if acked < d.Sent*9/10 {
		t.Fatalf("victim acked %d of %d", acked, d.Sent)
	}
}

func TestDrainerZeroRate(t *testing.T) {
	w := newWorld(t)
	d := NewDrainer(w.attacker, clientAddr)
	d.RunFor(0, 100*eventsim.Millisecond)
	if d.Sent != 0 {
		t.Fatalf("zero-rate drainer sent %d", d.Sent)
	}
}

func TestCSISensorCollects(t *testing.T) {
	w := newWorld(t)
	rng := eventsim.NewRNG(31)
	scene := csi.NewScene(rng.Fork())
	tl := (&csi.Timeline{}).Add(0, 10, csi.Hold(rng.Fork()))
	sensor := NewCSISensor(w.attacker, clientAddr, scene, tl)
	series := sensor.RunFor(150, 2*eventsim.Second)

	want := int(150 * 2)
	if len(series) < want*9/10 {
		t.Fatalf("samples = %d, want ≈%d", len(series), want)
	}
	if sensor.LossRate() > 0.1 {
		t.Fatalf("loss rate = %v", sensor.LossRate())
	}
	// Timestamps advance with the virtual clock.
	if series[10].T <= series[0].T {
		t.Fatal("sample times not increasing")
	}
	// Amplitudes look like a real channel.
	amp := series.Amplitudes(17)
	for _, a := range amp {
		if a <= 0 {
			t.Fatal("nonpositive CSI amplitude")
		}
	}
}

func TestCSISensorHighLossOnDozingVictim(t *testing.T) {
	w := newWorld(t)
	w.client.EnablePowerSave()
	w.sched.RunFor(500 * eventsim.Millisecond)

	rng := eventsim.NewRNG(37)
	scene := csi.NewScene(rng.Fork())
	tl := &csi.Timeline{}
	sensor := NewCSISensor(w.attacker, clientAddr, scene, tl)
	// 2 fps: below the pin-awake threshold, most probes are missed.
	series := sensor.RunFor(2, 5*eventsim.Second)
	if sensor.LossRate() < 0.3 {
		t.Fatalf("loss rate vs dozing victim = %v, want high", sensor.LossRate())
	}
	_ = series
}

func TestFeasibilityStudy(t *testing.T) {
	rows := FeasibilityStudy(500)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeetsSIFS {
			t.Fatalf("%s/%s claims to meet SIFS", r.Band, r.Profile)
		}
		if r.Ratio < 10 {
			t.Fatalf("ratio = %v", r.Ratio)
		}
	}
	out := RenderFeasibility(rows)
	if !strings.Contains(out, "2.4 GHz") || !strings.Contains(out, "false") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAttackerInjectCountsDrops(t *testing.T) {
	w := newWorld(t)
	// Two immediate injections: the second hits a busy transmitter.
	if _, err := w.attacker.InjectNull(clientAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := w.attacker.InjectNull(clientAddr); err == nil {
		t.Fatal("second immediate inject should fail (tx busy)")
	}
	if w.attacker.Injected != 1 || w.attacker.InjectDrops != 1 {
		t.Fatalf("inject stats: %d/%d", w.attacker.Injected, w.attacker.InjectDrops)
	}
}

func TestAttackerSeesDeauths(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(13)
	m := radio.NewMedium(sched, rng, radio.Config{PathLoss: radio.LogDistance{Exponent: 2.0}})
	mac.New(m, rng, mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileQualcommIPQ4019,
		SSID: "HomeNet", PSK: crypto80211.NewPSK("secret passphrase"),
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	attacker := NewAttacker(m, radio.Position{X: 8}, phy.Band2GHz, 6, DefaultFakeMAC)
	res := ProbeSync(attacker, apAddr, ProbeNull, 1, eventsim.Millisecond)
	sched.RunFor(100 * eventsim.Millisecond)
	if !res.Responded {
		t.Fatal("deauthing AP must still ACK")
	}
	if attacker.DeauthsForMe == 0 {
		t.Fatal("attacker never saw the deauth burst")
	}
}

func BenchmarkProbe(b *testing.B) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(1)
	m := radio.NewMedium(sched, rng, radio.Config{PathLoss: radio.LogDistance{Exponent: 2.0}})
	mac.New(m, rng, mac.Config{
		Name: "victim", Addr: clientAddr, Role: mac.RoleClient,
		Profile: mac.ProfileGenericClient, SSID: "n",
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	attacker := NewAttacker(m, radio.Position{X: 10}, phy.Band2GHz, 6, DefaultFakeMAC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProbeSync(attacker, clientAddr, ProbeNull, 1, eventsim.Millisecond)
	}
}

func TestRangeFromGaps(t *testing.T) {
	sifs := phy.Band2GHz.SIFS()
	// 10 m round trip = 20 m of flight ≈ 66.7 ns.
	gap := sifs + 67*eventsim.Nanosecond
	got := RangeFromGaps(phy.Band2GHz, []eventsim.Time{gap, gap, gap})
	if got < 9 || got > 11 {
		t.Fatalf("RangeFromGaps = %.2f m, want ~10", got)
	}
	// Median picks the middle observation.
	mid := RangeFromGaps(phy.Band2GHz, []eventsim.Time{sifs, gap, sifs + 10*eventsim.Microsecond})
	if mid < 9 || mid > 11 {
		t.Fatalf("median gap estimate = %.2f m", mid)
	}
	if RangeFromGaps(phy.Band2GHz, nil) != 0 {
		t.Fatal("empty gaps should give 0")
	}
	// Gap below SIFS clamps to zero distance.
	if RangeFromGaps(phy.Band2GHz, []eventsim.Time{sifs - eventsim.Microsecond}) != 0 {
		t.Fatal("sub-SIFS gap should clamp to 0")
	}
}

func TestProbeToFRanging(t *testing.T) {
	// End-to-end: victim at 30 m, ToF from real probe gaps.
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(3)
	m := radio.NewMedium(sched, rng, radio.Config{PathLoss: radio.LogDistance{Exponent: 2.2}})
	mac.New(m, rng, mac.Config{
		Name: "victim", Addr: clientAddr, Role: mac.RoleClient,
		Profile: mac.ProfileGenericClient, SSID: "n",
		Position: radio.Position{X: 30}, Band: phy.Band2GHz, Channel: 6,
	})
	attacker := NewAttacker(m, radio.Position{}, phy.Band2GHz, 6, DefaultFakeMAC)
	res := ProbeSync(attacker, clientAddr, ProbeNull, 10, 2*eventsim.Millisecond)
	if !res.Responded || len(res.Gaps) == 0 {
		t.Fatal("no gaps collected")
	}
	got := RangeFromGaps(phy.Band2GHz, res.Gaps)
	if got < 28 || got > 32 {
		t.Fatalf("ToF range = %.2f m, want ~30", got)
	}
}

func TestAttackerInjectDeauthSeen(t *testing.T) {
	w := newWorld(t)
	if _, err := w.attacker.InjectDeauth(clientAddr, apAddr); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(20 * eventsim.Millisecond)
	// Victim (no PMF here) disassociates and the forged frame is ACKed.
	if w.client.Associated() {
		t.Fatal("forged deauth ignored on a non-PMF network")
	}
	if w.attacker.Sched() != w.sched {
		t.Fatal("Sched accessor broken")
	}
}

// TestScannerActiveScan: broadcast probe requests surface an AP well
// before its next beacon.
func TestScannerActiveScan(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(8)
	m := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.0}, CaptureMarginDB: 10,
	})
	// AP with a long beacon interval (≈0.8 s) so passive discovery is
	// slow.
	mac.New(m, rng.Fork(), mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "SlowBeacon", BeaconIntervalTU: 800,
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	attacker := NewAttacker(m, radio.Position{X: 10}, phy.Band2GHz, 6, DefaultFakeMAC)
	sc := NewScanner(attacker)
	sc.ActiveScanInterval = 30 * eventsim.Millisecond
	sc.Start()
	sched.RunFor(300 * eventsim.Millisecond) // well inside the first beacon gap
	sc.Stop()

	tally := sc.Tally()
	if tally.APs != 1 || tally.APsResponded != 1 {
		t.Fatalf("active scan tally = %+v", tally)
	}
	for _, d := range sc.Devices() {
		if d.MAC == apAddr && d.SSID != "SlowBeacon" {
			t.Fatalf("SSID from probe response = %q", d.SSID)
		}
	}
}
