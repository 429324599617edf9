package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"politewifi/internal/eventsim"
	"politewifi/internal/telemetry"
	"politewifi/internal/world"
)

const seed = 20201104

func TestFigure2(t *testing.T) {
	r := Figure2(seed)
	if !r.Acked {
		t.Fatal("E1: fake frame not acknowledged")
	}
	if r.GapMicros < 10 || r.GapMicros > 11 {
		t.Fatalf("ACK gap = %.2f µs, want ~SIFS", r.GapMicros)
	}
	out := r.Render()
	for _, want := range []string{
		"Null function (No data)",
		"Acknowledgement",
		"aa:bb:bb:bb:bb:bb",
		"f2:6e:0b:…",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 2 table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	r := Table1(seed)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	if !r.AllPolite {
		t.Fatalf("E2: not all devices polite: %+v", r.Rows)
	}
	for _, row := range r.Rows {
		if row.Acks < row.Probes*8/10 {
			t.Fatalf("%s acked only %d of %d", row.Device, row.Acks, row.Probes)
		}
	}
	out := r.Render()
	for _, want := range []string{"MSI GE62 laptop", "Intel AC 3160", "Google Wifi AP", "11ac"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q", want)
		}
	}
}

func TestFigure3(t *testing.T) {
	r := Figure3(seed)
	if !r.AckedDespite {
		t.Fatal("E3: AP stopped ACKing after deauths")
	}
	if r.DeauthBursts < 3 {
		t.Fatalf("deauth transmissions = %d, want ≥3", r.DeauthBursts)
	}
	if !r.SameSNBursts {
		t.Fatalf("deauth burst SNs differ: %v", r.DeauthFrameSNs)
	}
	if !r.AckedBlocklist {
		t.Fatal("E3: blocklist suppressed the ACK — contradicts the paper")
	}
	if r.BlocklistDrops == 0 {
		t.Fatal("blocklist never dropped anything at the host")
	}
	out := r.Render()
	if !strings.Contains(out, "Deauthentication") || !strings.Contains(out, "Acknowledgement") {
		t.Fatalf("Figure 3 render:\n%s", out)
	}
}

func TestSIFSAnalysis(t *testing.T) {
	r := SIFSAnalysis(seed)
	if len(r.Rows) != 6 {
		t.Fatalf("feasibility rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MeetsSIFS {
			t.Fatal("E4: some decoder claims to meet SIFS")
		}
		if row.Ratio < 10 || row.Ratio > 80 {
			t.Fatalf("decode/SIFS ratio %.1f outside the paper's 20–70x ballpark", row.Ratio)
		}
	}
	if r.ValidatingLateAcks == 0 {
		t.Fatal("validating station produced no late ACKs")
	}
	if r.ValidatingTxRetries == 0 || r.ValidatingTxFailed == 0 {
		t.Fatal("validating station did not break its own link")
	}
	if r.ValidatingAcksFakes {
		t.Fatal("validating station acked fakes (it exists to not do that)")
	}
	if !r.RTSElicitedCTS || r.CTSResponses == 0 {
		t.Fatal("E4: fake RTS did not elicit CTS from the validator")
	}
	if !strings.Contains(r.Render(), "unencryptable") {
		t.Fatal("render missing conclusion")
	}
}

func TestTable2Scaled(t *testing.T) {
	r := Table2(seed, 0.02)
	if r.ResponseRate != 1.0 {
		t.Fatalf("E5: response rate = %.3f, want 1.0; non-responders %d",
			r.ResponseRate, len(r.Run.NonResponders))
	}
	if r.Run.Total() < 80 {
		t.Fatalf("discovered only %d devices at 2%% scale", r.Run.Total())
	}
	out := r.Render()
	for _, want := range []string{"Client vendor", "AP vendor", "Total", "responded to fake frames"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 render missing %q", want)
		}
	}
}

// TestTable2FullScale pins the paper's full 5,328-device census at
// the default seed on every core with a telemetry registry attached:
// the responder count, the scheduler's event total, the medium's
// delivery total and the rendered Table 2 bytes. Any change to what
// the drive computes, rather than how fast it computes it, moves one
// of them.
func TestTable2FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full census in -short mode")
	}
	cfg := world.DefaultConfig()
	reg := telemetry.NewRegistry(nil)
	cfg.Metrics = reg
	r := Table2WithConfig(cfg)
	if got := r.Run.TotalResponded(); got != 5320 {
		t.Errorf("responded = %d, want 5320", got)
	}
	snap := reg.Snapshot()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"sched.events_fired", 8067731},
		{"medium.deliveries", 1412011},
	} {
		if got := snap.Counter(c.name); got == nil || got.Value != c.want {
			t.Errorf("%s = %+v, want %d", c.name, got, c.want)
		}
	}
	sum := sha256.Sum256([]byte(r.Render()))
	if got, want := hex.EncodeToString(sum[:8]), "a695e5dc321881d5"; got != want {
		t.Errorf("Table 2 render sha256 prefix = %s, want %s:\n%s", got, want, r.Render())
	}
}

func TestFigure5(t *testing.T) {
	r := Figure5(seed)
	if !r.Separable {
		t.Fatalf("E6: phases not separable: %+v", r.Phases)
	}
	if len(r.Phases) != 4 {
		t.Fatalf("phases = %d", len(r.Phases))
	}
	ground, pickup := r.Phases[0], r.Phases[1]
	if pickup.NormStd < 5*ground.NormStd {
		t.Fatalf("pickup fluctuation %.4f not ≫ ground %.4f", pickup.NormStd, ground.NormStd)
	}
	if r.LossRate > 0.05 {
		t.Fatalf("CSI sample loss = %.2f", r.LossRate)
	}
	if r.ClassifierAccuracy < 0.75 {
		t.Fatalf("activity classifier accuracy = %.2f", r.ClassifierAccuracy)
	}
	if len(r.Series) < 6000 {
		t.Fatalf("series = %d samples, want ~6750", len(r.Series))
	}
	out := r.Render()
	if !strings.Contains(out, "typing") || !strings.Contains(out, "on-ground") {
		t.Fatalf("render:\n%s", out)
	}
	if r.Sparkline(60) == "" {
		t.Fatal("sparkline empty")
	}
	if r.KeystrokeBursts < 3 {
		t.Fatalf("keystroke bursts localised = %d, want several", r.KeystrokeBursts)
	}
}

func TestFigure6(t *testing.T) {
	r := Figure6(seed, 10*eventsim.Second)
	if !r.ShapeHolds {
		t.Fatalf("E7: power curve shape broken: %+v", r.Points)
	}
	// Paper anchors (shape, generous tolerances).
	if r.BaselineMW < 3 || r.BaselineMW > 25 {
		t.Fatalf("baseline = %.1f mW, want ~10", r.BaselineMW)
	}
	if r.StepMW < 150 || r.StepMW > 300 {
		t.Fatalf("10 fps power = %.1f mW, want ~230", r.StepMW)
	}
	if r.PeakMW < 280 || r.PeakMW > 450 {
		t.Fatalf("900 fps power = %.1f mW, want ~360", r.PeakMW)
	}
	if r.Amplification < 20 || r.Amplification > 60 {
		t.Fatalf("amplification = %.0fx, want ~35x", r.Amplification)
	}
	// Monotone above the step.
	var prev float64
	for _, p := range r.Points {
		if p.RateHz >= 10 {
			if p.PowerMW < prev*0.97 {
				t.Fatalf("power not monotone above the step: %+v", r.Points)
			}
			prev = p.PowerMW
		}
	}
	// Below the step the device still dozes.
	for _, p := range r.Points {
		if p.RateHz > 0 && p.RateHz < 10 && !p.Dozed {
			t.Fatalf("victim never dozed at %v fps", p.RateHz)
		}
	}
	if !strings.Contains(r.Render(), "amplification") {
		t.Fatal("render missing headline")
	}
}

func TestBatteryLife(t *testing.T) {
	r := BatteryLife(360)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if math.Abs(r.Rows[0].LifetimeHours-6.67) > 0.05 {
		t.Fatalf("Circle 2 = %.2f h, want ~6.7", r.Rows[0].LifetimeHours)
	}
	if math.Abs(r.Rows[1].LifetimeHours-16.67) > 0.05 {
		t.Fatalf("Blink XT2 = %.2f h, want ~16.7", r.Rows[1].LifetimeHours)
	}
	if !strings.Contains(r.Render(), "Circle 2") {
		t.Fatal("render missing device")
	}
}

func TestSensing(t *testing.T) {
	r := Sensing(seed)
	if !r.Localized {
		t.Fatalf("E9: motion not localised (detected %d, want %d): %+v",
			r.DetectedDevice, r.MotionDevice, r.Devices)
	}
	for i, d := range r.Devices {
		if d.AchievedRate < 35 {
			t.Fatalf("device %d CSI rate = %.1f/s, want ~50", i, d.AchievedRate)
		}
		if i != r.MotionDevice && d.MotionSeen {
			t.Fatalf("false motion at device %d: %+v", i, d)
		}
	}
	if r.NaturalTrafficRate >= r.RequiredRate {
		t.Fatal("natural traffic should be far below the sensing requirement")
	}
	if r.ModifiedDevices != 1 || r.ClassicModifiedDevices <= 1 {
		t.Fatalf("modification counts: %d vs %d", r.ModifiedDevices, r.ClassicModifiedDevices)
	}
	if !strings.Contains(r.Render(), "one device only") {
		t.Fatal("render missing headline")
	}
}

func TestPMFStudy(t *testing.T) {
	r := PMFStudy(seed)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	plain, pmf := r.Rows[0], r.Rows[1]
	if !plain.DeauthAttackWorks {
		t.Fatal("deauth attack failed on the unprotected network")
	}
	if pmf.DeauthAttackWorks {
		t.Fatal("deauth attack succeeded despite PMF")
	}
	for _, row := range r.Rows {
		if !row.ForgeryAcked {
			t.Fatalf("%s: forged deauth not ACKed — the PHY must ACK regardless", row.Config)
		}
		if !row.FakeNullAcked || !row.RTSAnswered {
			t.Fatalf("%s: Polite WiFi behaviours changed: %+v", row.Config, row)
		}
	}
	if !strings.Contains(r.Render(), "802.11w") {
		t.Fatal("render missing headline")
	}
}

func TestVitalSigns(t *testing.T) {
	r := VitalSigns(seed)
	if !r.Recovered {
		t.Fatalf("breathing rates not recovered: %+v", r.Rows)
	}
	if r.MeanError > 1.5 {
		t.Fatalf("mean error = %.2f BPM", r.MeanError)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.Render(), "breathing rate") {
		t.Fatal("render missing headline")
	}
}

func TestLocalization(t *testing.T) {
	r := Localization(seed)
	if !r.Localized {
		t.Fatalf("localization failed: %+v", r.Rows)
	}
	if r.ToFMeanErr > 2 {
		t.Fatalf("ToF mean error = %.2f m", r.ToFMeanErr)
	}
	if r.CSIMeanErr > 4 {
		t.Fatalf("CSI mean error = %.2f m", r.CSIMeanErr)
	}
	if !strings.Contains(r.Render(), "Wi-Peep") {
		t.Fatal("render missing headline")
	}
}

func TestOccupancy(t *testing.T) {
	r := Occupancy(seed)
	if r.Accuracy != 1.0 {
		t.Fatalf("occupancy accuracy = %.2f: %+v", r.Accuracy, r.Rows)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.Render(), "occupancy") {
		t.Fatal("render missing headline")
	}
}

// TestDeterministicRenders replays the two figure experiments with
// the same seed and demands byte-identical rendered output — the
// whole stack (scheduler, medium, MAC, CSI, power) must be
// reproducible end to end.
func TestDeterministicRenders(t *testing.T) {
	if Figure2(seed).Render() != Figure2(seed).Render() {
		t.Fatal("Figure2 render not deterministic")
	}
	if Figure3(seed).Render() != Figure3(seed).Render() {
		t.Fatal("Figure3 render not deterministic")
	}
	a := Figure5(seed)
	b := Figure5(seed)
	if a.Render() != b.Render() {
		t.Fatal("Figure5 render not deterministic")
	}
	if len(a.Series) != len(b.Series) || a.Series[100].H != b.Series[100].H {
		t.Fatal("Figure5 CSI series diverged between replays")
	}
}

func TestSensingRateSweep(t *testing.T) {
	r := SensingRateSweep(seed)
	if len(r.Points) != 7 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// High rates must outperform the slowest rate, and accuracy at
	// ≥100 Hz must be strong.
	lowest, best := r.Points[0].Accuracy, 0.0
	for _, p := range r.Points {
		if p.Accuracy > best {
			best = p.Accuracy
		}
	}
	if best < 0.9 {
		t.Fatalf("best accuracy = %.2f", best)
	}
	if lowest >= best {
		t.Fatalf("5 Hz sampling should not match the best (%.2f vs %.2f)", lowest, best)
	}
	for _, p := range r.Points {
		if p.RateHz >= 100 && p.Accuracy < best-0.1 {
			t.Fatalf("accuracy at %.0f Hz = %.2f, should be near saturation", p.RateHz, p.Accuracy)
		}
	}
	if r.SaturationHz == 0 || r.SaturationHz > 300 {
		t.Fatalf("saturation = %v", r.SaturationHz)
	}
	if !strings.Contains(r.Render(), "saturate") {
		t.Fatal("render missing conclusion")
	}
}

func TestDeviceSweep(t *testing.T) {
	r := DeviceSweep(seed)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Amplification < 5 {
			t.Fatalf("%s: amplification = %.1fx, want large", row.Device, row.Amplification)
		}
		if row.LifetimeH >= row.AdvertisedH/5 {
			t.Fatalf("%s: attacked lifetime %.1fh not ≪ nominal %.0fh", row.Device, row.LifetimeH, row.AdvertisedH)
		}
	}
	if !strings.Contains(r.Render(), "device classes") {
		t.Fatal("render missing headline")
	}
}

// TestOnePMKPerCall: an experiment that builds a network per rate or
// per device shares one key handle across them, so PBKDF2 runs once
// per call — not once per network (14 for Figure 6, 5 for Table 1).
func TestOnePMKPerCall(t *testing.T) {
	psk := homePSK()
	figure6(seed, eventsim.Second, psk)
	if n := psk.Derivations(); n != 1 {
		t.Errorf("Figure 6 ran PBKDF2 %d times, want 1", n)
	}
	psk = homePSK()
	table1(seed, psk)
	if n := psk.Derivations(); n != 1 {
		t.Errorf("Table 1 ran PBKDF2 %d times, want 1", n)
	}
}
