// The whole paper in one test: a single simulated world in which every
// headline claim is exercised end to end, in the order the paper makes
// them. Complements bench_test.go (which runs each experiment harness
// in isolation).
package politewifi_test

import (
	"testing"

	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/csi"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/power"
	"politewifi/internal/radio"
	"politewifi/internal/trace"
)

func TestPaperEndToEnd(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(4242)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})

	apAddr := dot11.MustMAC("f2:6e:0b:00:00:01")
	tabletAddr := dot11.MustMAC("f2:6e:0b:12:34:56")
	iotAddr := dot11.MustMAC("ec:fa:bc:00:00:02")

	// A WPA2 home network: deauthing AP, a tablet, and a power-saving
	// IoT module.
	psk := crypto80211.NewPSK("correct horse battery staple")
	ap := mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileQualcommIPQ4019,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	tablet := mac.New(medium, rng.Fork(), mac.Config{
		Name: "tablet", Addr: tabletAddr, Role: mac.RoleClient, Profile: mac.ProfileMarvell88W8897,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	iot := mac.New(medium, rng.Fork(), mac.Config{
		Name: "iot", Addr: iotAddr, Role: mac.RoleClient, Profile: mac.ProfileESP8266,
		SSID: "HomeNet", PSK: psk,
		Position: radio.Position{X: -4}, Band: phy.Band2GHz, Channel: 6,
	})
	tablet.Associate(apAddr, nil)
	iot.Associate(apAddr, nil)
	sched.RunFor(400 * eventsim.Millisecond)
	if !tablet.Associated() || !iot.Associated() {
		t.Fatal("setup: association failed")
	}

	// The attacker: outside the network, no keys, plus a Wireshark.
	attacker := core.NewAttacker(medium, radio.Position{X: 12}, phy.Band2GHz, 6, core.DefaultFakeMAC)
	capture := &trace.Capture{}
	capture.Attach(medium.NewRadio("sniffer", radio.Position{X: 8}, phy.Band2GHz, 6))

	// §2 / Figure 2: one fake frame → one ACK to the fake MAC at SIFS.
	probe := core.ProbeSync(attacker, tabletAddr, core.ProbeNull, 1, eventsim.Millisecond)
	if !probe.Responded {
		t.Fatal("§2: tablet did not ACK the fake frame")
	}
	if gap := probe.FirstGap.Micros(); gap < 10 || gap > 11 {
		t.Fatalf("§2: ACK gap %.2f µs, want SIFS", gap)
	}

	// §2.1 / Figure 3: the AP deauths the stranger yet still ACKs; a
	// blocklist changes nothing.
	apProbe := core.ProbeSync(attacker, apAddr, core.ProbeNull, 1, eventsim.Millisecond)
	sched.RunFor(100 * eventsim.Millisecond)
	if !apProbe.Responded || attacker.DeauthsForMe == 0 {
		t.Fatalf("§2.1: acked=%v deauths=%d", apProbe.Responded, attacker.DeauthsForMe)
	}
	ap.Block(attacker.MAC)
	if r := core.ProbeSync(attacker, apAddr, core.ProbeNull, 2, eventsim.Millisecond); !r.Responded {
		t.Fatal("§2.1: blocklist suppressed the ACK")
	}

	// §2.2: RTS → CTS, the unpreventable variant.
	if r := core.ProbeSync(attacker, tabletAddr, core.ProbeRTS, 2, eventsim.Millisecond); !r.Responded {
		t.Fatal("§2.2: no CTS for fake RTS")
	}
	for _, row := range core.FeasibilityStudy(500) {
		if row.MeetsSIFS {
			t.Fatal("§2.2: a decoder claims to meet SIFS")
		}
	}

	// §4.1 / Figure 5: CSI of forced ACKs separates user activity.
	scene := csi.NewScene(rng.Fork())
	tl := (&csi.Timeline{}).Add(5, 10, csi.Typing(rng.Fork()))
	sensor := core.NewCSISensor(attacker, tabletAddr, scene, tl)
	series := sensor.RunFor(150, 12*eventsim.Second)
	amp := csi.Hampel(series.Amplitudes(17), 5, 3)
	quiet := amp[:4*150]
	typing := amp[6*150 : 9*150]
	if csi.Std(typing)/csi.Mean(typing) < 3*csi.Std(quiet)/csi.Mean(quiet) {
		t.Fatal("§4.1: typing not separable from quiet in ACK CSI")
	}

	// §4.2 / Figure 6 (single point): 900 fps pins the IoT module
	// awake at ~35× its idle draw.
	iot.EnablePowerSave()
	sched.RunFor(500 * eventsim.Millisecond)
	meter := power.Attach(iot, power.ESP8266)
	meter.Reset()
	sched.RunFor(5 * eventsim.Second)
	baseline := meter.MeanPowerMW()
	drainer := core.NewDrainer(attacker, iotAddr)
	drainer.Start(900)
	sched.RunFor(2 * eventsim.Second)
	meter.Reset()
	sched.RunFor(5 * eventsim.Second)
	drainer.Stop()
	attacked := meter.MeanPowerMW()
	if amp := attacked / baseline; amp < 20 || amp > 60 {
		t.Fatalf("§4.2: amplification %.0fx (%.1f → %.1f mW), want ~35x", amp, baseline, attacked)
	}
	if h := power.LogitechCircle2.LifetimeHours(attacked); h < 5 || h > 9 {
		t.Fatalf("§4.2: Circle 2 lifetime %.1f h, want ~6.7", h)
	}

	// Wi-Peep direction: range the tablet from ACK timing.
	sched.RunFor(200 * eventsim.Millisecond)
	tof := core.ProbeSync(attacker, tabletAddr, core.ProbeNull, 10, 2*eventsim.Millisecond)
	if d := core.RangeFromGaps(phy.Band2GHz, tof.Gaps); d < 5 || d > 9 {
		t.Fatalf("localization: estimated %.1f m, true 7 m", d)
	}

	// The capture holds the whole story, Wireshark-readable.
	sum := capture.Summary()
	if sum["Acknowledgement"] == 0 || sum["Deauthentication"] == 0 ||
		sum["Null function (No data)"] == 0 || sum["Clear-to-send"] == 0 {
		t.Fatalf("capture summary incomplete: %v", sum)
	}
}
