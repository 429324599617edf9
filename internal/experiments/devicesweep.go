package experiments

import (
	"fmt"
	"strings"

	"politewifi/internal/core"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/power"
)

// DeviceSweepRow is one device class under the drain attack.
type DeviceSweepRow struct {
	Device        string
	BaselineMW    float64
	AttackMW      float64
	Amplification float64
	BatteryMWh    float64
	LifetimeH     float64 // under attack
	AdvertisedH   float64 // nominal lifetime at the baseline draw
}

// DeviceSweepResult is the paper's §4.2 closing question — "a
// detailed study of the impact of this attack on the battery life of
// different IoT and medical devices is an interesting topic for
// future research" — executed across four device classes.
type DeviceSweepResult struct {
	Rows []DeviceSweepRow
}

// deviceClasses pairs power profiles with representative batteries.
var deviceClasses = []struct {
	name    string
	profile power.Profile
	battery float64 // mWh
}{
	{"IoT sensor (ESP8266)", power.ESP8266, 2400},
	{"Security camera", power.ESP8266, 6000},
	{"Medical wearable", power.Profile{
		Name: "wearable", SleepMW: 0.9, IdleMW: 120, RxMW: 150, TxMW: 320, FrameOverheadUJ: 90,
	}, 1100},
	{"Smart lock", power.Profile{
		Name: "smart-lock", SleepMW: 2.5, IdleMW: 260, RxMW: 300, TxMW: 640, FrameOverheadUJ: 150,
	}, 4000},
}

// DeviceSweep runs EX5: a 900 fps drain attack against each device
// class, measuring baseline and under-attack draw and the resulting
// battery lifetimes.
func DeviceSweep(seed int64) *DeviceSweepResult {
	out := &DeviceSweepResult{}
	psk := homePSK()
	for i, dc := range deviceClasses {
		measure := func(rate float64) float64 {
			h := newHomeNetwork(seed+int64(i)*17, psk, mac.ProfileGenericAP, mac.ProfileESP8266)
			h.victim.EnablePowerSave()
			h.sched.RunFor(500 * eventsim.Millisecond)
			meter := power.Attach(h.victim, dc.profile)
			dr := core.NewDrainer(h.attacker, victimAddr)
			dr.Start(rate)
			h.sched.RunFor(2 * eventsim.Second)
			meter.Reset()
			h.sched.RunFor(12 * eventsim.Second)
			dr.Stop()
			return meter.MeanPowerMW()
		}
		base := measure(0)
		attack := measure(900)
		b := power.Battery{Name: dc.name, CapacityMWh: dc.battery}
		row := DeviceSweepRow{
			Device:        dc.name,
			BaselineMW:    base,
			AttackMW:      attack,
			Amplification: attack / base,
			BatteryMWh:    dc.battery,
			LifetimeH:     b.LifetimeHours(attack),
			AdvertisedH:   b.LifetimeHours(base),
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render prints the device sweep table.
func (r *DeviceSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("§4.2 future work: drain impact across device classes (900 fps attack)\n")
	fmt.Fprintf(&b, "%-24s %10s %10s %8s %12s %12s\n",
		"Device", "idle (mW)", "attack", "amp", "nominal (h)", "attacked (h)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %10.1f %10.1f %7.0fx %12.0f %12.1f\n",
			row.Device, row.BaselineMW, row.AttackMW, row.Amplification,
			row.AdvertisedH, row.LifetimeH)
	}
	b.WriteString("every power-saving device class collapses from weeks/months to hours.\n")
	return b.String()
}
