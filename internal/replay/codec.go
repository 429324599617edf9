package replay

// The record codec: a hand-written encoder and decoder for the one
// fixed shape every framelog/v1 line after the head has. The encoder
// writes exactly the bytes json.Marshal writes for a Record; the
// decoder accepts exactly the grammar the encoder writes (the keys in
// struct order, no whitespace, one record per line) and rejects
// everything else with a position. Neither goes near reflection.

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// appendRecord appends r as json.Marshal would encode it, without the
// trailing newline. The only failure is a NaN or infinite float, which
// JSON cannot represent.
func appendRecord(b []byte, r *Record) ([]byte, error) {
	b = append(b, `{"stop":`...)
	b = strconv.AppendInt(b, int64(r.Stop), 10)
	var err error
	if tx := r.TX; tx != nil {
		b = append(b, `,"tx":{"src":`...)
		b = appendString(b, tx.Src)
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, int64(tx.Start), 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, int64(tx.End), 10)
		b = append(b, `,"rate":{"Mbps":`...)
		if b, err = appendFloat(b, tx.Rate.Mbps); err != nil {
			return b, err
		}
		b = append(b, `,"Mod":`...)
		b = strconv.AppendInt(b, int64(tx.Rate.Mod), 10)
		b = append(b, `,"NDBPS":`...)
		b = strconv.AppendInt(b, int64(tx.Rate.NDBPS), 10)
		b = append(b, `,"Basic":`...)
		b = strconv.AppendBool(b, tx.Rate.Basic)
		b = append(b, `,"HT":`...)
		b = strconv.AppendBool(b, tx.Rate.HT)
		b = append(b, `},"data":`...)
		if tx.Data == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '"')
			b = base64.StdEncoding.AppendEncode(b, tx.Data)
			b = append(b, '"')
		}
		if tx.Label != "" {
			b = append(b, `,"label":`...)
			b = appendString(b, tx.Label)
		}
		if tx.Exchange != 0 {
			b = append(b, `,"exchange":`...)
			b = strconv.AppendUint(b, tx.Exchange, 10)
		}
		if tx.BelowSens != 0 {
			b = append(b, `,"below_sens":`...)
			b = strconv.AppendInt(b, int64(tx.BelowSens), 10)
		}
		if len(tx.Rx) > 0 {
			b = append(b, `,"rx":[`...)
			for i := range tx.Rx {
				if i > 0 {
					b = append(b, ',')
				}
				if b, err = appendRx(b, &tx.Rx[i]); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if cca := r.CCA; cca != nil {
		b = append(b, `,"cca":{"src":`...)
		b = appendString(b, cca.Src)
		b = append(b, `,"at":`...)
		b = strconv.AppendInt(b, int64(cca.At), 10)
		if cca.Busy {
			b = append(b, `,"busy":true`...)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendRx(b []byte, rx *radio.FrameRx) ([]byte, error) {
	b = append(b, `{"dst":`...)
	b = appendString(b, rx.Dst)
	b = append(b, `,"begin":`...)
	b = strconv.AppendInt(b, int64(rx.Begin), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(rx.End), 10)
	b = append(b, `,"rssi":`...)
	b, err := appendFloat(b, rx.RSSI)
	if err != nil {
		return b, err
	}
	if rx.Fx != "" {
		b = append(b, `,"fx":`...)
		b = appendString(b, rx.Fx)
	}
	if rx.Out != "" {
		b = append(b, `,"out":`...)
		b = appendString(b, rx.Out)
	}
	if rx.FCSOK {
		b = append(b, `,"fcs":true`...)
	}
	if rx.Drop != "" {
		b = append(b, `,"drop":`...)
		b = appendString(b, rx.Drop)
	}
	if rx.Consulted {
		b = append(b, `,"consulted":true`...)
	}
	return append(b, '}'), nil
}

// appendFloat formats f by encoding/json's rule (ES6 number-to-string):
// 'f' format, except 'e' below 1e-6 and from 1e21 up, with the
// exponent's leading zero dropped.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("framelog: unsupported float value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hex = "0123456789abcdef"

// appendString quotes s with encoding/json's HTML-safe escaping: <, >
// and & as \u00XX, control characters as short or \u00XX escapes,
// invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decoder parses record lines. The first error latches with its
// position in the line; every parse step after it is a no-op, so the
// grammar below reads straight through and the caller checks once.
type decoder struct {
	line  []byte
	pos   int
	err   error
	errAt int // column of the latched error

	// names interns radio names and the fx/out/drop/label constants:
	// a log repeats a few hundred distinct strings millions of times.
	names map[string]string
	// scratch holds the unescaped contents of the last string that
	// needed unescaping.
	scratch []byte
	rx      []radio.FrameRx // the record being decoded's receivers
}

// fail latches an error found at column at of the line.
func (d *decoder) fail(at int, format string, args ...any) {
	if d.err == nil {
		d.err, d.errAt = fmt.Errorf(format, args...), at
	}
}

// lit consumes s if the line continues with it.
func (d *decoder) lit(s string) bool {
	if d.err != nil || len(d.line)-d.pos < len(s) || string(d.line[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// expect consumes s or fails.
func (d *decoder) expect(s string) {
	if !d.lit(s) && d.err == nil {
		d.fail(d.pos, "want %s", s)
	}
}

// record parses one whole line into rec.
func (d *decoder) record(line []byte) (rec Record, err error) {
	d.line, d.pos, d.err = line, 0, nil
	d.expect(`{"stop":`)
	rec.Stop = int(d.int())
	if d.lit(`,"tx":`) {
		rec.TX = d.tx()
	}
	if d.lit(`,"cca":{"src":`) {
		cca := new(radio.CCACheck)
		cca.Src = d.name()
		d.expect(`,"at":`)
		cca.At = eventsim.Time(d.int())
		cca.Busy = d.lit(`,"busy":true`)
		d.expect("}")
		rec.CCA = cca
	}
	d.expect("}")
	if d.err == nil && d.pos != len(line) {
		d.fail(d.pos, "trailing bytes after the record")
	}
	return rec, d.err
}

func (d *decoder) tx() *radio.FrameTx {
	tx := new(radio.FrameTx)
	d.expect(`{"src":`)
	tx.Src = d.name()
	d.expect(`,"start":`)
	tx.Start = eventsim.Time(d.int())
	d.expect(`,"end":`)
	tx.End = eventsim.Time(d.int())
	d.expect(`,"rate":{"Mbps":`)
	tx.Rate.Mbps = d.float()
	d.expect(`,"Mod":`)
	tx.Rate.Mod = phy.Modulation(d.int())
	d.expect(`,"NDBPS":`)
	tx.Rate.NDBPS = int(d.int())
	d.expect(`,"Basic":`)
	tx.Rate.Basic = d.bool()
	d.expect(`,"HT":`)
	tx.Rate.HT = d.bool()
	d.expect(`},"data":`)
	if !d.lit("null") {
		tx.Data = d.base64()
	}
	if d.lit(`,"label":`) {
		tx.Label = d.name()
	}
	if d.lit(`,"exchange":`) {
		tx.Exchange = d.uint()
	}
	if d.lit(`,"below_sens":`) {
		tx.BelowSens = int(d.int())
	}
	if d.lit(`,"rx":[`) {
		d.rx = d.rx[:0]
		for more := true; more; more = d.lit(",") {
			d.rx = append(d.rx, d.frameRx())
		}
		d.expect("]")
		tx.Rx = append([]radio.FrameRx(nil), d.rx...)
	}
	d.expect("}")
	return tx
}

func (d *decoder) frameRx() (rx radio.FrameRx) {
	d.expect(`{"dst":`)
	rx.Dst = d.name()
	d.expect(`,"begin":`)
	rx.Begin = eventsim.Time(d.int())
	d.expect(`,"end":`)
	rx.End = eventsim.Time(d.int())
	d.expect(`,"rssi":`)
	rx.RSSI = d.float()
	if d.lit(`,"fx":`) {
		rx.Fx = d.name()
	}
	if d.lit(`,"out":`) {
		rx.Out = d.name()
	}
	rx.FCSOK = d.lit(`,"fcs":true`)
	if d.lit(`,"drop":`) {
		rx.Drop = d.name()
	}
	rx.Consulted = d.lit(`,"consulted":true`)
	d.expect("}")
	return rx
}

func (d *decoder) bool() bool {
	if d.lit("true") {
		return true
	}
	d.expect("false")
	return false
}

// number consumes one JSON number and returns its text.
func (d *decoder) number() []byte {
	if d.err != nil {
		return nil
	}
	start := d.pos
	d.lit("-")
	if !d.lit("0") && d.digits() == 0 {
		d.fail(start, "want a number")
		return nil
	}
	if d.lit(".") && d.digits() == 0 {
		d.fail(d.pos, "want a fraction digit")
	}
	if d.lit("e") || d.lit("E") {
		if !d.lit("+") {
			d.lit("-")
		}
		if d.digits() == 0 {
			d.fail(d.pos, "want an exponent digit")
		}
	}
	return d.line[start:d.pos]
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.line) && '0' <= d.line[d.pos] && d.line[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

func (d *decoder) int() int64 {
	at, tok := d.pos, d.number()
	v, err := strconv.ParseInt(string(tok), 10, 64)
	d.check(at, err)
	return v
}

func (d *decoder) uint() uint64 {
	at, tok := d.pos, d.number()
	v, err := strconv.ParseUint(string(tok), 10, 64)
	d.check(at, err)
	return v
}

func (d *decoder) float() float64 {
	at, tok := d.pos, d.number()
	v, err := strconv.ParseFloat(string(tok), 64)
	d.check(at, err)
	return v
}

// check latches a number's conversion error (out of range, or a
// fraction or exponent where an integer belongs).
func (d *decoder) check(at int, err error) {
	if err != nil {
		d.fail(at, "%v", err)
	}
}

// name consumes a string and returns it interned.
func (d *decoder) name() string {
	b := d.str()
	if s, ok := d.names[string(b)]; ok || d.err != nil {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// base64 consumes a string of std-base64 frame bytes and returns them
// decoded.
func (d *decoder) base64() []byte {
	start := d.pos
	s := d.str()
	if d.err != nil {
		return nil
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(out, s)
	if err != nil {
		d.fail(start, "bad base64 frame data: %v", err)
	}
	return out[:n]
}

// str consumes a JSON string and returns its contents. The result
// aliases the line, or d.scratch when the string has escapes or
// non-ASCII bytes; it is valid until the next str.
func (d *decoder) str() []byte {
	if !d.lit(`"`) {
		if d.err == nil {
			d.fail(d.pos, `want a string`)
		}
		return nil
	}
	start := d.pos
	for d.pos < len(d.line) {
		switch c := d.line[d.pos]; {
		case c == '"':
			d.pos++
			return d.line[start : d.pos-1]
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.strSlow(start)
		}
		d.pos++
	}
	d.fail(start-1, "unterminated string")
	return nil
}

// strSlow finishes a string that needs unescaping or UTF-8 checks,
// accepting exactly JSON's escapes and valid UTF-8.
func (d *decoder) strSlow(start int) []byte {
	b := append(d.scratch[:0], d.line[start:d.pos]...)
	for d.pos < len(d.line) {
		c := d.line[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = b
			return b
		case c < 0x20:
			d.fail(d.pos, "control character in string")
			return nil
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.line[d.pos:])
			if r == utf8.RuneError && size == 1 {
				d.fail(d.pos, "invalid UTF-8 in string")
				return nil
			}
			b = append(b, d.line[d.pos:d.pos+size]...)
			d.pos += size
		case c != '\\':
			b = append(b, c)
			d.pos++
		default:
			r, ok := d.escape()
			if !ok {
				return nil
			}
			b = utf8.AppendRune(b, r)
		}
	}
	d.fail(start-1, "unterminated string")
	return nil
}

// escape consumes one backslash escape and returns the rune it names;
// a \u escape of a UTF-16 surrogate must be a complete pair.
func (d *decoder) escape() (rune, bool) {
	at := d.pos
	if d.pos+1 < len(d.line) {
		d.pos += 2
		switch d.line[d.pos-1] {
		case '"', '\\', '/':
			return rune(d.line[d.pos-1]), true
		case 'b':
			return '\b', true
		case 'f':
			return '\f', true
		case 'n':
			return '\n', true
		case 'r':
			return '\r', true
		case 't':
			return '\t', true
		case 'u':
			r := d.hex4()
			if 0xD800 <= r && r < 0xDC00 && d.lit(`\u`) {
				if lo := d.hex4(); 0xDC00 <= lo && lo < 0xE000 {
					return 0x10000 + (r-0xD800)<<10 + (lo - 0xDC00), true
				}
			}
			if r >= 0 && (r < 0xD800 || r >= 0xE000) {
				return r, true
			}
		}
	}
	d.fail(at, "bad escape in string")
	return 0, false
}

// hex4 consumes four hex digits; -1 if they are not there.
func (d *decoder) hex4() rune {
	if len(d.line)-d.pos < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(d.line[d.pos:d.pos+4]), 16, 16)
	if err != nil {
		return -1
	}
	d.pos += 4
	return rune(v)
}
