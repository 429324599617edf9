// Package phy models the IEEE 802.11 physical layer as needed by the
// simulator: bands and their interframe spacings, legacy OFDM and
// DSSS rate sets, preamble and airtime computation, the OFDM
// subcarrier layout used for CSI, and SNR→BER→FER link curves.
//
// The timing constants here carry the paper's central argument: an
// ACK must start one SIFS (10 µs at 2.4 GHz, 16 µs at 5 GHz) after
// the soliciting frame ends, while WPA2 frame decoding takes
// 200–700 µs, so a receiver cannot validate a frame before
// acknowledging it.
package phy

import (
	"fmt"
	"math"

	"politewifi/internal/eventsim"
)

// Band is a radio frequency band.
type Band int

// Supported bands.
const (
	Band2GHz Band = iota
	Band5GHz
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case Band2GHz:
		return "2.4 GHz"
	case Band5GHz:
		return "5 GHz"
	}
	return fmt.Sprintf("Band(%d)", int(b))
}

// SIFS returns the short interframe space for the band: the hard
// deadline by which a receiver must begin its ACK (802.11-2016
// Table 17-21 / 19-25).
func (b Band) SIFS() eventsim.Time {
	switch b {
	case Band5GHz:
		return 16 * eventsim.Microsecond
	default:
		return 10 * eventsim.Microsecond
	}
}

// SlotTime returns the band's slot duration.
func (b Band) SlotTime() eventsim.Time {
	switch b {
	case Band5GHz:
		return 9 * eventsim.Microsecond
	default:
		return 20 * eventsim.Microsecond // long slot for 11b compatibility
	}
}

// DIFS is the DCF interframe space: SIFS plus two slots.
func (b Band) DIFS() eventsim.Time {
	return b.SIFS() + 2*b.SlotTime()
}

// ChannelFreqMHz maps a channel number in the band to its center
// frequency in MHz.
func ChannelFreqMHz(b Band, channel int) float64 {
	switch b {
	case Band5GHz:
		return 5000 + 5*float64(channel)
	default:
		if channel == 14 {
			return 2484
		}
		return 2407 + 5*float64(channel)
	}
}

// Modulation identifies the constellation of a rate.
type Modulation int

// Modulations used by legacy 802.11a/g rates.
const (
	ModDSSS Modulation = iota // DBPSK/DQPSK/CCK family
	ModBPSK
	ModQPSK
	Mod16QAM
	Mod64QAM
)

// Rate describes one PHY rate.
type Rate struct {
	Mbps  float64
	Mod   Modulation
	NDBPS int  // data bits per OFDM symbol (0 for DSSS)
	Basic bool // member of the basic (mandatory) rate set
	HT    bool // 802.11n HT (MCS) rate: longer preamble, denser NDBPS
}

// Legacy OFDM rates (802.11a/g). ACKs and CTSs are transmitted from
// this set — the paper uses an ESP32 precisely because ACKs arrive at
// these legacy rates.
var (
	Rate6  = Rate{6, ModBPSK, 24, true, false}
	Rate9  = Rate{9, ModBPSK, 36, false, false}
	Rate12 = Rate{12, ModQPSK, 48, true, false}
	Rate18 = Rate{18, ModQPSK, 72, false, false}
	Rate24 = Rate{24, Mod16QAM, 96, true, false}
	Rate36 = Rate{36, Mod16QAM, 144, false, false}
	Rate48 = Rate{48, Mod64QAM, 192, false, false}
	Rate54 = Rate{54, Mod64QAM, 216, false, false}

	// DSSS rates (802.11b).
	Rate1   = Rate{1, ModDSSS, 0, true, false}
	Rate2   = Rate{2, ModDSSS, 0, true, false}
	Rate5x5 = Rate{5.5, ModDSSS, 0, false, false}
	Rate11  = Rate{11, ModDSSS, 0, false, false}
)

// OFDMRates is the 802.11a/g rate set in increasing order.
var OFDMRates = []Rate{Rate6, Rate9, Rate12, Rate18, Rate24, Rate36, Rate48, Rate54}

// HT (802.11n) single-stream MCS rates, 20 MHz, long guard interval.
// ACKs never use these — control responses drop to the legacy basic
// set, which is why the paper's ESP32 could capture them.
var htRates = []Rate{
	{6.5, ModBPSK, 26, false, true},    // MCS 0
	{13, ModQPSK, 52, false, true},     // MCS 1
	{19.5, ModQPSK, 78, false, true},   // MCS 2
	{26, Mod16QAM, 104, false, true},   // MCS 3
	{39, Mod16QAM, 156, false, true},   // MCS 4
	{52, Mod64QAM, 208, false, true},   // MCS 5
	{58.5, Mod64QAM, 234, false, true}, // MCS 6
	{65, Mod64QAM, 260, false, true},   // MCS 7
}

// HTRate returns the 802.11n single-stream rate for an MCS index
// (0–7).
func HTRate(mcs int) Rate {
	if mcs < 0 || mcs >= len(htRates) {
		panic(fmt.Sprintf("phy: MCS %d out of range", mcs))
	}
	return htRates[mcs]
}

// String implements fmt.Stringer.
func (r Rate) String() string { return fmt.Sprintf("%g Mbps", r.Mbps) }

// IsOFDM reports whether the rate uses the OFDM PHY.
func (r Rate) IsOFDM() bool { return r.Mod != ModDSSS }

// OFDM timing constants (802.11-2016 §17 / §19).
const (
	ofdmPreamble    = 16 * eventsim.Microsecond // short+long training
	ofdmSignal      = 4 * eventsim.Microsecond  // SIGNAL field
	ofdmSymbol      = 4 * eventsim.Microsecond
	ofdmServiceBits = 16
	ofdmTailBits    = 6
	// htPreambleExtra: HT-SIG (8 µs) + HT-STF (4 µs) + one HT-LTF
	// (4 µs) in mixed-mode on top of the legacy preamble.
	htPreambleExtra = 16 * eventsim.Microsecond
)

// Airtime reports the duration of a PPDU carrying length bytes
// (MPDU including FCS) at rate r.
func Airtime(r Rate, length int) eventsim.Time {
	if r.IsOFDM() {
		bits := ofdmServiceBits + 8*length + ofdmTailBits
		symbols := (bits + r.NDBPS - 1) / r.NDBPS
		air := ofdmPreamble + ofdmSignal + eventsim.Time(symbols)*ofdmSymbol
		if r.HT {
			air += htPreambleExtra
		}
		return air
	}
	// DSSS with long preamble: 144 µs preamble + 48 µs PLCP header.
	const dsssPLCP = 192 * eventsim.Microsecond
	us := float64(8*length) / r.Mbps
	return dsssPLCP + eventsim.Time(math.Ceil(us))*eventsim.Microsecond
}

// ControlRate returns the rate at which a control response (ACK/CTS)
// to a frame received at rate r is sent: the highest basic rate not
// exceeding r (802.11-2016 §10.6.6.5). HT frames are answered from
// the legacy basic set.
func ControlRate(r Rate) Rate {
	if r.HT {
		best := Rate6
		for _, c := range OFDMRates {
			if c.Basic && c.Mbps <= r.Mbps {
				best = c
			}
		}
		return best
	}
	if !r.IsOFDM() {
		if r.Mbps >= 2 {
			return Rate2
		}
		return Rate1
	}
	best := Rate6
	for _, c := range OFDMRates {
		if c.Basic && c.Mbps <= r.Mbps {
			best = c
		}
	}
	return best
}

// AckDuration is the airtime of a 14-byte ACK at the control rate for
// a frame sent at rate r.
func AckDuration(r Rate) eventsim.Time {
	return Airtime(ControlRate(r), 14)
}

// NAV computes the Duration/ID value (microseconds, capped at 32767)
// for a data frame at rate r: one SIFS plus the responding ACK.
func NAV(band Band, r Rate) uint16 {
	d := band.SIFS() + AckDuration(r)
	us := d / eventsim.Microsecond
	if us > 32767 {
		us = 32767
	}
	return uint16(us)
}

// RTSNAV computes the Duration value for an RTS protecting a data
// frame of length bytes at rate r: 3×SIFS + CTS + DATA + ACK.
func RTSNAV(band Band, r Rate, length int) uint16 {
	ctl := ControlRate(r)
	d := 3*band.SIFS() + Airtime(ctl, 14) + Airtime(r, length) + Airtime(ctl, 14)
	us := d / eventsim.Microsecond
	if us > 32767 {
		us = 32767
	}
	return uint16(us)
}

// --- OFDM subcarrier layout (for CSI) -------------------------------

// NumSubcarriers is the number of occupied subcarriers in a legacy
// 20 MHz OFDM symbol (52 = 48 data + 4 pilots). ESP32-style CSI
// reports one complex value per occupied subcarrier.
const NumSubcarriers = 52

// SubcarrierSpacingHz is the OFDM subcarrier spacing (20 MHz / 64).
const SubcarrierSpacingHz = 312_500.0

// SubcarrierIndex maps a 0-based CSI slot (0..51) to the signed
// subcarrier index (-26..-1, +1..+26), skipping DC.
func SubcarrierIndex(slot int) int {
	if slot < 0 || slot >= NumSubcarriers {
		panic(fmt.Sprintf("phy: subcarrier slot %d out of range", slot))
	}
	if slot < 26 {
		return slot - 26
	}
	return slot - 25
}

// SubcarrierOffsetHz returns the frequency offset of a CSI slot from
// the channel center.
func SubcarrierOffsetHz(slot int) float64 {
	return float64(SubcarrierIndex(slot)) * SubcarrierSpacingHz
}

// IsPilot reports whether the CSI slot carries a pilot tone
// (subcarriers ±7 and ±21).
func IsPilot(slot int) bool {
	switch SubcarrierIndex(slot) {
	case -21, -7, 7, 21:
		return true
	}
	return false
}

// --- Link curves ------------------------------------------------------

// NoiseFloorDBm is the receiver noise floor for a 20 MHz channel:
// thermal noise (-174 dBm/Hz + 10·log10(20 MHz) ≈ -101 dBm) plus a
// 7 dB receiver noise figure.
const NoiseFloorDBm = -94.0

// SNRFromRSSI converts a received signal strength to an SNR in dB.
func SNRFromRSSI(rssiDBm float64) float64 { return rssiDBm - NoiseFloorDBm }

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BER returns the approximate coded bit error rate at the given SNR
// (dB) for the rate's modulation. The formulas are the standard AWGN
// uncoded expressions with an effective coding gain folded in; they
// produce the familiar waterfall shape that places the 6 Mbps
// sensitivity near -92 dBm and 54 Mbps near -74 dBm.
func BER(r Rate, snrDB float64) float64 {
	snr := math.Pow(10, snrDB/10)
	// Effective coding gain (dB) by code rate.
	var gain float64
	switch r.Mbps {
	case 6, 12, 24:
		gain = 4.0 // rate 1/2
	case 9, 18, 36, 48:
		gain = 3.0 // rate 3/4 (48 uses 2/3)
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

// FER returns the frame error rate for a frame of length bytes at the
// given SNR, assuming independent bit errors.
func FER(r Rate, snrDB float64, length int) float64 {
	ber := BER(r, snrDB)
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

// MinSNR returns the SNR (dB) at which the rate achieves a 10% FER
// for a 1000-byte frame; used for rate selection.
func MinSNR(r Rate) float64 {
	lo, hi := -10.0, 40.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if FER(r, mid, 1000) > 0.1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// pickRates is PickRate's private copy of the OFDM rate set, so that
// a caller mutating the exported OFDMRates slice cannot desynchronise
// it from pickThresholds.
var pickRates = [...]Rate{Rate6, Rate9, Rate12, Rate18, Rate24, Rate36, Rate48, Rate54}

// pickThresholds[i] is the SNR (dB) PickRate requires for pickRates[i]:
// MinSNR plus a 3 dB margin. MinSNR is a per-rate constant, so its
// 50-step bisection runs once here instead of on every PickRate call;
// the values are bit-identical to evaluating MinSNR(r)+3 each time.
var pickThresholds = func() (th [len(pickRates)]float64) {
	for i, r := range pickRates {
		th[i] = MinSNR(r) + 3
	}
	return th
}()

// PickRate selects the fastest OFDM rate whose 10% FER threshold the
// SNR clears with a 3 dB margin, falling back to 6 Mbps.
func PickRate(snrDB float64) Rate {
	best := Rate6
	for i, th := range pickThresholds {
		if snrDB >= th {
			best = pickRates[i]
		}
	}
	return best
}
