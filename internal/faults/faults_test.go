package faults

import (
	"math"
	"reflect"
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("loss=0.3,ack=0.5,jam=0.2,jam-period=100ms,deaf=0.25,deaf-period=200ms")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Enabled() || !c.geEnabled() {
		t.Fatal("parsed spec should enable faults")
	}
	if c.ACKLoss != 0.5 || c.JamDuty != 0.2 || c.DeafDuty != 0.25 {
		t.Fatalf("parsed config = %+v", c)
	}
	if c.JamPeriod != 100*eventsim.Millisecond || c.DeafPeriod != 200*eventsim.Millisecond {
		t.Fatalf("parsed periods = %s / %s", c.JamPeriod, c.DeafPeriod)
	}
	// The loss key expands to the BurstyLoss preset.
	want := BurstyLoss(0.3)
	if c.PGoodBad != want.PGoodBad || c.PBadGood != want.PBadGood || c.LossBad != want.LossBad {
		t.Fatalf("loss=0.3 chain = %+v, want %+v", c, want)
	}

	if c, err := ParseSpec(""); err != nil || c.Enabled() {
		t.Fatalf("empty spec = %+v, %v", c, err)
	}
	for _, bad := range []string{"loss", "loss=x", "loss=-1", "jam-period=0s", "bogus=1",
		"loss=NaN", "ack=Inf", "jam=+Inf", "deaf=nan"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// payload is a wire frame that is not an ACK/CTS control response.
var payload = []byte{0x48, 0x01, 0, 0} // null data frame FC

func TestBurstyLossStationaryRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		in := New(eventsim.NewRNG(42), BurstyLoss(rate))
		const n = 200_000
		drops := 0
		for i := 0; i < n; i++ {
			if in.CorruptRx(nil, nil, payload, eventsim.Time(i)) {
				drops++
			}
		}
		got := float64(drops) / n
		if got < rate-0.02 || got > rate+0.02 {
			t.Errorf("BurstyLoss(%.1f): empirical rate %.3f", rate, got)
		}
	}
	// rate ≥ 1 pins the chain in Bad: total, deterministic loss.
	in := New(eventsim.NewRNG(1), BurstyLoss(1))
	for i := 0; i < 100; i++ {
		if !in.CorruptRx(nil, nil, payload, eventsim.Time(i)) {
			t.Fatal("BurstyLoss(1) let a delivery through")
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	cfg := BurstyLoss(0.25)
	cfg.ACKLoss = 0.4
	a := New(eventsim.NewRNG(7), cfg)
	b := New(eventsim.NewRNG(7), cfg)
	ackWire, err := dot11.Serialize(&dot11.Ack{RA: dot11.MustMAC("aa:bb:bb:bb:bb:bb")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		data := payload
		if i%3 == 0 {
			data = ackWire
		}
		now := eventsim.Time(i) * eventsim.Microsecond
		if a.CorruptRx(nil, nil, data, now) != b.CorruptRx(nil, nil, data, now) {
			t.Fatalf("same-seed injectors diverged at delivery %d", i)
		}
	}
	if a.LossDrops != b.LossDrops || a.ACKDrops != b.ACKDrops {
		t.Fatalf("stats diverged: %d/%d vs %d/%d", a.LossDrops, a.ACKDrops, b.LossDrops, b.ACKDrops)
	}
}

func TestACKOnlyDrop(t *testing.T) {
	in := New(eventsim.NewRNG(3), Config{ACKLoss: 1})
	ra := dot11.MustMAC("aa:bb:bb:bb:bb:bb")
	ackWire, _ := dot11.Serialize(&dot11.Ack{RA: ra})
	ctsWire, _ := dot11.Serialize(&dot11.CTS{RA: ra})
	if !in.CorruptRx(nil, nil, ackWire, 0) {
		t.Fatal("ACKLoss=1 must drop ACKs")
	}
	if !in.CorruptRx(nil, nil, ctsWire, 0) {
		t.Fatal("ACKLoss=1 must drop CTSs")
	}
	if in.CorruptRx(nil, nil, payload, 0) {
		t.Fatal("ACK-only loss must leave soliciting frames intact")
	}
	if in.ACKDrops != 2 || in.Consulted != 3 {
		t.Fatalf("stats = %d drops / %d consulted, want 2/3", in.ACKDrops, in.Consulted)
	}
}

func TestJamWindows(t *testing.T) {
	in := New(eventsim.NewRNG(1), Config{JamDuty: 0.5, JamPeriod: 100 * eventsim.Microsecond})
	inside := 37 * eventsim.Microsecond
	outside := 73 * eventsim.Microsecond
	if !in.NoiseAt(phy.Band2GHz, 6, inside) || in.NoiseAt(phy.Band2GHz, 6, outside) {
		t.Fatal("jam window placement wrong")
	}
	// Wideband: the other band sees the same noise.
	if !in.NoiseAt(phy.Band5GHz, 36, inside) {
		t.Fatal("jam noise should be wideband")
	}
	if !in.CorruptRx(nil, nil, payload, inside) {
		t.Fatal("delivery inside a jam window must be corrupted")
	}
	if in.CorruptRx(nil, nil, payload, outside) {
		t.Fatal("delivery outside a jam window survived=false")
	}
	if in.JamDrops != 1 {
		t.Fatalf("JamDrops = %d, want 1", in.JamDrops)
	}
	// A jam-only injector never touches the RNG: window membership is
	// pure clock arithmetic, so the stream stays untouched for replay.
	if in.rng.Int63() != eventsim.NewRNG(1).Int63() {
		t.Fatal("jam-only injector advanced its RNG")
	}
}

func TestDeafness(t *testing.T) {
	in := New(eventsim.NewRNG(1), Config{DeafDuty: 1})
	victim := &radio.Radio{Name: "cl-aa:bb:cc:dd:ee:ff"}
	rig := &radio.Radio{Name: "attacker-aa:bb:bb:bb:bb:bb"}
	for _, now := range []eventsim.Time{0, 50 * eventsim.Millisecond, 3 * eventsim.Second} {
		if !in.CorruptRx(nil, victim, payload, now) {
			t.Fatalf("DeafDuty=1 victim heard a delivery at %s", now)
		}
		if in.CorruptRx(nil, rig, payload, now) {
			t.Fatal("the attacker's mains-powered rig must never doze")
		}
	}
	// Partial duty: the phase is a stable per-name hash, so the same
	// station is deaf at the same instants in every run.
	half := New(eventsim.NewRNG(1), Config{DeafDuty: 0.5, DeafPeriod: 100 * eventsim.Microsecond})
	again := New(eventsim.NewRNG(99), Config{DeafDuty: 0.5, DeafPeriod: 100 * eventsim.Microsecond})
	deaf := 0
	for i := 0; i < 1000; i++ {
		now := eventsim.Time(i) * eventsim.Microsecond
		a := half.CorruptRx(nil, victim, payload, now)
		b := again.CorruptRx(nil, victim, payload, now)
		if a != b {
			t.Fatal("deafness must not depend on the RNG seed")
		}
		if a {
			deaf++
		}
	}
	if deaf < 400 || deaf > 600 {
		t.Fatalf("deaf %d/1000 deliveries at 0.5 duty", deaf)
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	for _, c := range []Config{
		{LossBad: 0.1}, {LossGood: 0.1}, {ACKLoss: 0.1}, {JamDuty: 0.1}, {DeafDuty: 0.1},
	} {
		if !c.Enabled() {
			t.Fatalf("%+v should be enabled", c)
		}
	}
}

// FuzzParseSpec holds the `-faults` grammar to its contract on
// arbitrary input: it never panics, and every field of a Config it
// accepts is finite and non-negative — an impairment a drive can run.
// testdata/fuzz/FuzzParseSpec holds the NaN and Inf rates it once let
// through.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", "loss=0.3,ack=0.5,jam=0.2,jam-period=100ms,deaf=0.25,deaf-period=200ms",
		"loss=1", "loss=0.9999999999999999", "deaf=-0", "jam-period=-1s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil {
			return
		}
		v := reflect.ValueOf(c)
		for i := 0; i < v.NumField(); i++ {
			var x float64
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Float64:
				x = fv.Float()
			case reflect.Int64:
				x = float64(fv.Int())
			default:
				t.Fatalf("Config.%s has unchecked kind %s", v.Type().Field(i).Name, fv.Kind())
			}
			if !(x >= 0) || math.IsInf(x, 0) {
				t.Fatalf("ParseSpec(%q) accepted Config.%s = %g", spec, v.Type().Field(i).Name, x)
			}
		}
	})
}
