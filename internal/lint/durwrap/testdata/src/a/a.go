// Package a is a durwrap fixture: the dot11.CTSFor NAV-underflow bug
// class, reintroduced, alongside the sanctioned guarded shapes.
package a

// Time mirrors eventsim.Time: signed nanoseconds of sim time.
type Time int64

// Microsecond mirrors eventsim.Microsecond.
const Microsecond Time = 1000

// RTS mirrors the wire frame: Duration is a bare uint16 µs count.
type RTS struct {
	Duration uint16
}

// ctsForBuggy is the original CTSFor bug, reintroduced: when the RTS
// carries less duration than the response overhead, the subtraction
// wraps to ~65535 µs before the narrowing conversion ever sees it.
func ctsForBuggy(r *RTS, overheadUS uint16) uint16 {
	return r.Duration - overheadUS // want "unsigned subtraction r.Duration - overheadUS on duration-like operands wraps below zero"
}

// ctsForNarrow reintroduces the same bug one layer up: subtract in
// signed sim time but narrow the possibly-negative result straight
// into the uint16 wire field.
func ctsForNarrow(r *RTS, elapsed Time) uint16 {
	return uint16((Time(r.Duration)*Microsecond - elapsed) / Microsecond) // want "uint16\\(\\.\\.\\.\\) narrows duration-typed"
}

// ctsForFixed is the sanctioned shape from dot11.CTSFor: subtract in
// signed time, clamp at zero, then narrow.
func ctsForFixed(r *RTS, elapsed Time) uint16 {
	remaining := Time(r.Duration)*Microsecond - elapsed
	if remaining < 0 {
		remaining = 0
	}
	return uint16(remaining / Microsecond)
}

// guardedEarlyExit bails out before the subtraction can wrap.
func guardedEarlyExit(deadline, now uint32) uint32 {
	if now > deadline {
		return 0
	}
	return deadline - now
}

// enclosingCond is guarded by the surrounding if condition.
func enclosingCond(timeout, elapsed uint16) uint16 {
	if timeout > elapsed {
		return timeout - elapsed
	}
	return 0
}

// unguarded wraps when elapsed exceeds timeout.
func unguarded(timeout, elapsed uint16) uint16 {
	return timeout - elapsed // want "unsigned subtraction timeout - elapsed on duration-like operands wraps below zero"
}

// narrowUnguarded narrows a signed duration with no dominating guard.
func narrowUnguarded(d Time) uint32 {
	return uint32(d / Microsecond) // want "uint32\\(\\.\\.\\.\\) narrows duration-typed"
}

// narrowClamped narrows through the builtin max, which floors at zero.
func narrowClamped(d Time) uint32 {
	return uint32(max(d, 0) / Microsecond)
}

// narrowConst narrows a compile-time constant; the compiler range-checks it.
func narrowConst() uint16 {
	return uint16(32 * Microsecond / Microsecond)
}

// seqDelta is modular sequence arithmetic: the mask makes wraparound
// intentional, not a hazard. (seqDuration is duration-like by name.)
func seqDelta(a, seqDuration uint16) uint16 {
	return (a - seqDuration) & 0x0fff
}

// counters is unsigned subtraction of non-duration quantities; out of
// scope for this analyzer.
func counters(sent, acked uint32) uint32 {
	return sent - acked
}

// sanctioned carries a reasoned directive.
func sanctioned(nav uint16) uint16 {
	return nav - 1 //politevet:allow durwrap(fixture for a sanctioned wire-field decrement)
}

// SequenceControl mirrors the dot11 wire field for the pack cases.
type SequenceControl struct {
	Fragment uint8
	Number   uint16
}

// packBuggy is the dot11.SequenceControl.Uint16 bug class: the shift
// drops Number's bits above 12 without the protocol's modulo-4096
// wrap ever being spelled out.
func packBuggy(sc SequenceControl) uint16 {
	return uint16(sc.Fragment&0xf) | sc.Number<<4 // want "sc.Number << 4 packs an unmasked value into a 16-bit field"
}

// packFixed masks to the field width before shifting.
func packFixed(sc SequenceControl) uint16 {
	return uint16(sc.Fragment&0xf) | (sc.Number&0xfff)<<4
}

// packBuggyWide loses the TID's high nibble through a widening
// conversion: uint16(tid) can carry 8 bits but only 4 fit above the
// shift.
func packBuggyWide(tid uint8) uint16 {
	return uint16(tid) << 12 // want "uint16\\(tid\\) << 12 packs an unmasked value into a 16-bit field"
}

// packBuggyNoWrap reintroduces the exact shape the repo fixed: no
// mask, full-width operand.
func packBuggyNoWrap(startSeq uint16) uint16 {
	return startSeq << 4 // want "startSeq << 4 packs an unmasked value into a 16-bit field"
}

// packNarrowEnough widens a byte into the room above the shift; no
// bits can fall off.
func packNarrowEnough(flags uint8) uint16 {
	return uint16(flags) << 8
}

// packMaskedResult truncates the result explicitly, so the wrap is
// spelled out.
func packMaskedResult(n uint16) uint16 {
	return (n << 4) & 0xfff0
}

// packConstBit is the idiomatic flag shape: a constant shiftee.
func packConstBit(aid uint16) uint16 {
	return 1 << (aid % 8)
}

// packModBounded is bounded by the modulo before the shift.
func packModBounded(n uint16) uint16 {
	return (n % 4096) << 4
}

// packGuarded has a dominating range guard.
func packGuarded(n uint16) uint16 {
	if n > 0xfff {
		return 0
	}
	return n << 4
}

// maxNAV is the widest value a 15-bit NAV field carries.
const maxNAV Time = 32767

// clampNAV bounds d to [0, maxNAV]. Its clamp* name is the sanction:
// durwrap reads the call site, not the helper's body.
func clampNAV(d Time) Time {
	return min(max(d, 0), maxNAV)
}

// capNAV bounds d exactly as clampNAV does, but its name carries no
// sanction, so narrowing its result is still a finding.
func capNAV(d Time) Time {
	if d < 0 {
		return 0
	}
	if d > maxNAV {
		return maxNAV
	}
	return d
}

func packClamped(d Time) uint16 {
	return uint16(clampNAV(d))
}

func packCapped(d Time) uint16 {
	return uint16(capNAV(d)) // want "narrows duration-typed"
}
