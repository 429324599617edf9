package phy

import (
	"math"
	"testing"

	"politewifi/internal/eventsim"
)

func TestSIFS(t *testing.T) {
	// The paper: "10 µs and 16 µs for the 2.4 GHz and 5 GHz bands".
	if Band2GHz.SIFS() != 10*eventsim.Microsecond {
		t.Fatalf("2.4 GHz SIFS = %v, want 10µs", Band2GHz.SIFS())
	}
	if Band5GHz.SIFS() != 16*eventsim.Microsecond {
		t.Fatalf("5 GHz SIFS = %v, want 16µs", Band5GHz.SIFS())
	}
}

func TestDIFS(t *testing.T) {
	if got := Band5GHz.DIFS(); got != 34*eventsim.Microsecond {
		t.Fatalf("5 GHz DIFS = %v, want 34µs", got)
	}
	if got := Band2GHz.DIFS(); got != 50*eventsim.Microsecond {
		t.Fatalf("2.4 GHz DIFS = %v, want 50µs", got)
	}
}

func TestChannelFreq(t *testing.T) {
	cases := []struct {
		band Band
		ch   int
		want float64
	}{
		{Band2GHz, 1, 2412},
		{Band2GHz, 6, 2437},
		{Band2GHz, 11, 2462},
		{Band2GHz, 14, 2484},
		{Band5GHz, 36, 5180},
		{Band5GHz, 149, 5745},
	}
	for _, c := range cases {
		if got := ChannelFreqMHz(c.band, c.ch); got != c.want {
			t.Errorf("ChannelFreqMHz(%v,%d) = %v, want %v", c.band, c.ch, got, c.want)
		}
	}
}

func TestAirtimeOFDM(t *testing.T) {
	// 14-byte ACK at 24 Mbps: 16+8*14+6 = 134 bits, ceil(134/96)=2
	// symbols → 20 + 8 = 28 µs.
	if got := Airtime(Rate24, 14); got != 28*eventsim.Microsecond {
		t.Fatalf("ACK airtime at 24 Mbps = %v, want 28µs", got)
	}
	// Same ACK at 6 Mbps: ceil(134/24)=6 symbols → 20+24 = 44 µs.
	if got := Airtime(Rate6, 14); got != 44*eventsim.Microsecond {
		t.Fatalf("ACK airtime at 6 Mbps = %v, want 44µs", got)
	}
	// 1500-byte frame at 54 Mbps: 16+12000+6=12022 bits,
	// ceil(12022/216)=56 symbols → 20+224 = 244 µs.
	if got := Airtime(Rate54, 1500); got != 244*eventsim.Microsecond {
		t.Fatalf("1500B at 54 Mbps = %v, want 244µs", got)
	}
}

func TestAirtimeDSSS(t *testing.T) {
	// 14-byte ACK at 1 Mbps: 192 + 112 = 304 µs.
	if got := Airtime(Rate1, 14); got != 304*eventsim.Microsecond {
		t.Fatalf("DSSS ACK airtime = %v, want 304µs", got)
	}
	if got := Airtime(Rate11, 11); got != (192+8)*eventsim.Microsecond {
		t.Fatalf("11 Mbps airtime = %v", got)
	}
}

func TestAirtimeMonotonicInLength(t *testing.T) {
	for _, r := range OFDMRates {
		prev := eventsim.Time(0)
		for n := 0; n <= 2000; n += 100 {
			a := Airtime(r, n)
			if a < prev {
				t.Fatalf("airtime not monotonic for %v at %d bytes", r, n)
			}
			prev = a
		}
	}
}

func TestControlRate(t *testing.T) {
	cases := []struct {
		in, want Rate
	}{
		{Rate54, Rate24},
		{Rate48, Rate24},
		{Rate36, Rate24},
		{Rate24, Rate24},
		{Rate18, Rate12},
		{Rate12, Rate12},
		{Rate9, Rate6},
		{Rate6, Rate6},
		{Rate11, Rate2},
		{Rate1, Rate1},
	}
	for _, c := range cases {
		if got := ControlRate(c.in); got.Mbps != c.want.Mbps {
			t.Errorf("ControlRate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNAV(t *testing.T) {
	// NAV for a 24 Mbps data frame on 2.4 GHz: SIFS(10) + ACK(28) = 38.
	if got := NAV(Band2GHz, Rate24); got != 38 {
		t.Fatalf("NAV = %d, want 38", got)
	}
	// RTS NAV covers CTS + data + ACK + 3 SIFS.
	nav := RTSNAV(Band2GHz, Rate24, 1500)
	want := uint16((3*10*eventsim.Microsecond + 28*eventsim.Microsecond + Airtime(Rate24, 1500) + 28*eventsim.Microsecond) / eventsim.Microsecond) //politevet:allow durwrap(expected-value fixture; every term is a small positive airtime, sum ≪ 65535µs)
	if nav != want {
		t.Fatalf("RTSNAV = %d, want %d", nav, want)
	}
}

func TestSubcarrierLayout(t *testing.T) {
	if SubcarrierIndex(0) != -26 {
		t.Fatalf("slot 0 index = %d, want -26", SubcarrierIndex(0))
	}
	if SubcarrierIndex(25) != -1 {
		t.Fatalf("slot 25 index = %d, want -1", SubcarrierIndex(25))
	}
	if SubcarrierIndex(26) != 1 {
		t.Fatalf("slot 26 index = %d, want +1 (DC skipped)", SubcarrierIndex(26))
	}
	if SubcarrierIndex(51) != 26 {
		t.Fatalf("slot 51 index = %d, want +26", SubcarrierIndex(51))
	}
	// All 52 indices distinct, none zero.
	seen := map[int]bool{}
	pilots := 0
	for s := 0; s < NumSubcarriers; s++ {
		idx := SubcarrierIndex(s)
		if idx == 0 {
			t.Fatal("DC subcarrier reported as occupied")
		}
		if seen[idx] {
			t.Fatalf("duplicate subcarrier index %d", idx)
		}
		seen[idx] = true
		if IsPilot(s) {
			pilots++
		}
	}
	if pilots != 4 {
		t.Fatalf("pilot count = %d, want 4", pilots)
	}
	if got := SubcarrierOffsetHz(26); got != 312500 {
		t.Fatalf("offset of +1 = %v", got)
	}
}

func TestSubcarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slot did not panic")
		}
	}()
	SubcarrierIndex(52)
}

func TestBERMonotonicInSNR(t *testing.T) {
	for _, r := range OFDMRates {
		prev := 1.0
		for snr := -5.0; snr <= 40; snr += 1 {
			b := BER(r, snr)
			if b > prev+1e-12 {
				t.Fatalf("BER not nonincreasing for %v at %v dB", r, snr)
			}
			if b < 0 || b > 0.5+1e-9 {
				t.Fatalf("BER out of range: %v", b)
			}
			prev = b
		}
	}
}

func TestFERBounds(t *testing.T) {
	for _, r := range OFDMRates {
		for snr := -10.0; snr <= 50; snr += 5 {
			f := FER(r, snr, 1500)
			if f < 0 || f > 1 {
				t.Fatalf("FER out of [0,1]: %v", f)
			}
		}
		if FER(r, 50, 1500) > 1e-6 {
			t.Fatalf("FER at 50 dB should be ~0 for %v", r)
		}
		if FER(r, -10, 1500) < 0.99 {
			t.Fatalf("FER at -10 dB should be ~1 for %v", r)
		}
	}
}

func TestFERIncreasesWithLength(t *testing.T) {
	snr := MinSNR(Rate24)
	if FER(Rate24, snr, 100) > FER(Rate24, snr, 1500) {
		t.Fatal("FER should grow with frame length")
	}
}

func TestMinSNROrdering(t *testing.T) {
	// Faster rates need more SNR.
	prev := -math.MaxFloat64
	for _, r := range OFDMRates {
		m := MinSNR(r)
		if m < prev {
			t.Fatalf("MinSNR(%v) = %v < previous %v", r, m, prev)
		}
		prev = m
	}
}

func TestPickRate(t *testing.T) {
	if got := PickRate(50); got.Mbps != 54 {
		t.Fatalf("PickRate(50 dB) = %v, want 54", got)
	}
	if got := PickRate(-5); got.Mbps != 6 {
		t.Fatalf("PickRate(-5 dB) = %v, want 6", got)
	}
	// Monotone: more SNR never picks a slower rate.
	prev := 0.0
	for snr := -5.0; snr <= 45; snr++ {
		r := PickRate(snr)
		if r.Mbps < prev {
			t.Fatalf("PickRate not monotone at %v dB", snr)
		}
		prev = r.Mbps
	}
}

// pickRateLoop is PickRate as it was before the threshold table: the
// MinSNR bisection re-run for every rate on every call.
func pickRateLoop(snrDB float64) Rate {
	best := Rate6
	for _, r := range OFDMRates {
		if snrDB >= MinSNR(r)+3 {
			best = r
		}
	}
	return best
}

// TestPickRateTableExact pins the rate table to the function it
// caches: every threshold is bit-identical to MinSNR(r)+3, and
// PickRate agrees with the uncached loop across the whole operating
// SNR range and on both sides of every threshold.
func TestPickRateTableExact(t *testing.T) {
	if len(pickRates) != len(OFDMRates) {
		t.Fatalf("rate table has %d rates, OFDMRates %d", len(pickRates), len(OFDMRates))
	}
	for i, r := range pickRates {
		if r != OFDMRates[i] {
			t.Fatalf("pickRates[%d] = %v, OFDMRates[%d] = %v", i, r, i, OFDMRates[i])
		}
		if want := MinSNR(r) + 3; math.Float64bits(pickThresholds[i]) != math.Float64bits(want) {
			t.Fatalf("threshold for %v = %v, want MinSNR+3 = %v", r, pickThresholds[i], want)
		}
	}
	check := func(snr float64) {
		if got, want := PickRate(snr), pickRateLoop(snr); got != want {
			t.Fatalf("PickRate(%v) = %v, uncached loop picks %v", snr, got, want)
		}
	}
	for cdB := -1000; cdB <= 4500; cdB++ {
		check(float64(cdB) / 100)
	}
	for _, th := range pickThresholds {
		check(math.Nextafter(th, math.Inf(-1)))
		check(th)
		check(math.Nextafter(th, math.Inf(1)))
	}
}

func TestSNRFromRSSI(t *testing.T) {
	if got := SNRFromRSSI(-64); got != 30 {
		t.Fatalf("SNRFromRSSI(-64) = %v, want 30", got)
	}
}

func TestBandString(t *testing.T) {
	if Band2GHz.String() != "2.4 GHz" || Band5GHz.String() != "5 GHz" {
		t.Fatal("band strings wrong")
	}
	if Rate54.String() != "54 Mbps" || Rate5x5.String() != "5.5 Mbps" {
		t.Fatal("rate strings wrong")
	}
}

func BenchmarkAirtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Airtime(Rate24, 1500)
	}
}

func BenchmarkFER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FER(Rate54, 25, 1500)
	}
}

// oracleBER and oracleFER are the link curves as written before the
// coding-gain table and the exact-zero threshold: both Pow calls on
// every BER, the full formula on every FER.
func oracleBER(r Rate, snrDB float64) float64 {
	snr := math.Pow(10, snrDB/10)
	var gain float64
	switch r.Mbps {
	case 6, 12, 24:
		gain = 4.0
	case 9, 18, 36, 48:
		gain = 3.0
	case 54:
		gain = 2.5
	default:
		gain = 0
	}
	snr *= math.Pow(10, gain/10)
	switch r.Mod {
	case ModDSSS, ModBPSK:
		return qfunc(math.Sqrt(2 * snr))
	case ModQPSK:
		return qfunc(math.Sqrt(snr))
	case Mod16QAM:
		return 0.75 * qfunc(math.Sqrt(snr/5))
	case Mod64QAM:
		return 7.0 / 12 * qfunc(math.Sqrt(snr/21))
	}
	return 0.5
}

func oracleFER(r Rate, snrDB float64, length int) float64 {
	ber := oracleBER(r, snrDB)
	if ber <= 0 {
		return 0
	}
	if ber >= 0.5 {
		return 1
	}
	fer := 1 - math.Pow(1-ber, float64(8*length))
	if fer < 0 {
		return 0
	}
	if fer > 1 {
		return 1
	}
	return fer
}

// TestFERZeroAboveExact holds BER and FER bit-equal to the original
// formulas for every rate the simulator knows, across −40…120 dB in
// 0.001 dB steps, on both sides of every exact-zero threshold, and at
// NaN and ±Inf: the short-circuit may only skip work, never change a
// result.
func TestFERZeroAboveExact(t *testing.T) {
	rates := append([]Rate{Rate1, Rate2, Rate5x5, Rate11}, OFDMRates...)
	rates = append(rates, htRates...)
	if len(rates) != 20 {
		t.Fatalf("%d rates, want 20", len(rates))
	}
	lengths := []int{0, 1, 14, 100, 1500, 4000}
	check := func(r Rate, snr float64) {
		if got, want := BER(r, snr), oracleBER(r, snr); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BER(%v, %v) = %v, oracle %v", r, snr, got, want)
		}
		for _, n := range lengths {
			if got, want := FER(r, snr, n), oracleFER(r, snr, n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("FER(%v, %v, %d) = %v, oracle %v", r, snr, n, got, want)
			}
		}
	}
	for _, r := range rates {
		for i := 0; i <= 160000; i++ {
			check(r, float64(i)/1000-40)
		}
		th := zeroFERdB[r.Mod][gainClass(r)]
		for _, snr := range []float64{
			math.Nextafter(th, math.Inf(-1)), th, math.Nextafter(th, math.Inf(1)),
			math.NaN(), math.Inf(1), math.Inf(-1),
		} {
			check(r, snr)
		}
	}
	// Unknown modulations take the formula's 0.5 fallback.
	for _, mod := range []Modulation{-1, Mod64QAM + 1} {
		for _, snr := range []float64{-40, 0, 120, math.NaN(), math.Inf(1)} {
			check(Rate{Mbps: 54, Mod: mod}, snr)
		}
	}
	for mod := range zeroFERdB {
		for c, th := range zeroFERdB[mod] {
			if th <= -40 || th > 60 {
				t.Errorf("zeroFERdB[%d][%d] = %v dB, outside the link budget", mod, c, th)
			}
		}
	}
}
