package replay_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"politewifi/internal/eventsim"
	"politewifi/internal/jobspec"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/replay"
	"politewifi/internal/telemetry"
	"politewifi/internal/world"
)

// FuzzAppendRecord holds the record encoder to json.Marshal, the
// encoder it replaced: for any record the bytes are identical, and it
// fails exactly when json.Marshal fails (a NaN or infinite float).
// The seeds cover encoding/json's escaping and float-format edges.
func FuzzAppendRecord(f *testing.F) {
	type seed struct {
		str   string
		num   float64
		data  []byte
		flags uint8
	}
	for _, s := range []seed{
		{"ap-68:8f:2e:94:de:f6", -43.85122405962922, []byte{0xb0, 0, 0x2c}, 0},
		{"<a&b>", 1e-6, nil, 1},
		{"ctl\x00\x01\b\f\n\r\t\x1f\x7f\"\\", 9.999999999999999e-7, []byte{}, 2},
		{"bad\xffutf8\xc3", 1e21, []byte("x"), 3},
		{"sep\u2028\u2029é\ufffd", 9.999999999999999e20, nil, 0xff},
		{"", math.Copysign(0, -1), nil, 0x10},
		{"", 0, nil, 0x20},
		{"nan", math.NaN(), nil, 0x40},
		{"inf", math.Inf(1), nil, 0x80},
		{"-inf", math.Inf(-1), []byte("y"), 0x0f},
		{"tiny", 5e-324, nil, 0xf0},
		{"huge", -math.MaxFloat64, nil, 0x55},
	} {
		f.Add(s.str, s.num, s.data, s.flags, int64(142000), uint64(0))
	}
	f.Fuzz(func(t *testing.T, str string, num float64, data []byte, flags uint8, at int64, exchange uint64) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		pick := func(i uint, s string) string {
			if bit(i) {
				return s
			}
			return ""
		}
		if bit(0) && data == nil {
			data = []byte{}
		}
		rx := radio.FrameRx{
			Dst: str, Begin: eventsim.Time(at), End: eventsim.Time(-at), RSSI: num,
			Fx: pick(1, str), Out: pick(2, radio.OutDeliver), FCSOK: bit(3),
			Drop: pick(4, str), Consulted: bit(5),
		}
		tx := &radio.FrameTx{
			Src: str, Start: eventsim.Time(at), End: eventsim.Time(at + 1),
			Rate: phy.Rate{Mbps: num, Mod: phy.Modulation(flags), NDBPS: int(at), Basic: bit(6), HT: bit(7)},
			Data: data, Label: pick(2, str), Exchange: exchange, BelowSens: int(flags) - 100,
			Rx: []radio.FrameRx{rx, {Dst: pick(0, str), RSSI: -num}}[:flags%3],
		}
		cca := &radio.CCACheck{Src: str, At: eventsim.Time(at), Busy: bit(1)}
		rec := replay.Record{Stop: int(at)}
		switch flags % 4 {
		case 0:
			rec.TX = tx
		case 1:
			rec.CCA = cca
		case 2:
			rec.TX, rec.CCA = tx, cca
		}
		want, wantErr := json.Marshal(&rec)
		got, err := replay.AppendRecord([]byte("prefix"), &rec)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendRecord error %v, json.Marshal error %v", err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendRecord differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	})
}

// hostile is the channel the frame-log tests and benchmarks record on:
// the faults make records carry drop, consulted and busy keys.
const hostile = "loss=0.3,ack=0.1,jam=0.2,deaf=0.1"

// recordDrive records a faulted drive with the CLI's defaults, seed 7
// and the given scale, and returns its frame log; trace attaches a
// tracer so TX records carry labels and exchange IDs.
func recordDrive(tb testing.TB, scale float64, trace bool) []byte {
	tb.Helper()
	spec := jobspec.Drive()
	spec.Seed, spec.Scale, spec.Faults = 7, scale, hostile
	cfg, err := spec.WorldConfig()
	if err != nil {
		tb.Fatal(err)
	}
	if trace {
		cfg.Trace = telemetry.NewTracer()
	}
	var buf bytes.Buffer
	rec := replay.NewRecorder(&buf)
	cfg.Record = rec
	world.Run(cfg)
	if err := rec.Err(); err != nil {
		tb.Fatalf("recorder error: %v", err)
	}
	return buf.Bytes()
}

// TestRecordedLinesMatchMarshal checks the encoder on a real traced,
// faulted drive, large enough that its receivers see every begin
// effect (win, steal and clash included): every record line the
// Recorder wrote is byte-identical to json.Marshal of the record Load
// reads back from it.
func TestRecordedLinesMatchMarshal(t *testing.T) {
	logBytes := recordDrive(t, 0.01, true)
	for _, fx := range []string{radio.FxLock, radio.FxSteal, radio.FxWin, radio.FxClash} {
		if !bytes.Contains(logBytes, []byte(`"fx":"`+fx+`"`)) {
			t.Errorf("drive log has no fx %q receiver", fx)
		}
	}
	log, err := replay.Load(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(logBytes, []byte("\n")), []byte("\n"))
	_, stops := replay.Contents(log)
	n := 0
	for _, entries := range stops {
		for _, e := range entries {
			want, err := json.Marshal(&e.Rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lines[e.Index], want) {
				t.Fatalf("record %d differs from json.Marshal:\n got %s\nwant %s", e.Index, lines[e.Index], want)
			}
			n++
		}
	}
	if n != len(lines)-1 {
		t.Fatalf("checked %d records, log has %d", n, len(lines)-1)
	}
}

// BenchmarkLoad measures Load on the frame log of a scale-0.02 faulted
// drive (recorded once, in memory).
func BenchmarkLoad(b *testing.B) {
	logBytes := recordDrive(b, 0.02, false)
	b.SetBytes(int64(len(logBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Load(bytes.NewReader(logBytes)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteStop measures the Recorder writing every stop of the
// same scale-0.02 faulted drive to io.Discard.
func BenchmarkWriteStop(b *testing.B) {
	logBytes := recordDrive(b, 0.02, false)
	log, err := replay.Load(bytes.NewReader(logBytes))
	if err != nil {
		b.Fatal(err)
	}
	_, stops := replay.Contents(log)
	sls := make([]*replay.StopLog, log.Stops())
	for stop := range sls {
		sls[stop] = stopLog(stop, stops[stop])
	}
	b.SetBytes(int64(len(logBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := replay.NewRecorder(io.Discard)
		rec.Begin(len(sls))
		for _, sl := range sls {
			rec.WriteStop(sl)
		}
		if err := rec.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadLongLine round-trips a record longer than Load's read
// buffer, so the line reader has to assemble it from several reads.
func TestLoadLongLine(t *testing.T) {
	data := bytes.Repeat([]byte{0xa5, 0x5a, 0x00}, 100_000)
	sl := replay.NewStopLog(0)
	sl.RecordTx(&radio.FrameTx{Src: "ap", Start: 1, End: 2, Rate: phy.Rate6, Data: data})
	sl.RecordCCA("ap", 3, true)
	var buf bytes.Buffer
	rec := replay.NewRecorder(&buf)
	rec.Begin(1)
	rec.WriteStop(sl)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	log, err := replay.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, stops := replay.Contents(log)
	if got := stops[0]; len(got) != 2 || !bytes.Equal(got[0].Rec.TX.Data, data) || got[1].Rec.CCA == nil {
		t.Fatalf("long record did not round-trip: %d records", len(got))
	}
}

// TestRecordDecoderRoundTrip: RecordDecoder reads every record line of
// both committed frame logs, AppendRecord writes each back to the same
// bytes, and a line outside the grammar is refused with its offset.
func TestRecordDecoderRoundTrip(t *testing.T) {
	for _, name := range []string{"framelog_golden.ndjson", "framelog_faulted_golden.ndjson"} {
		data, err := os.ReadFile("../world/testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		dec := replay.NewRecordDecoder()
		for i, line := range lines[1:] {
			rec, err := dec.Decode(line)
			if err != nil {
				t.Fatalf("%s record %d: %v", name, i+1, err)
			}
			got, err := replay.AppendRecord(nil, &rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, line) {
				t.Fatalf("%s record %d re-encodes differently:\n got %s\nwant %s", name, i+1, got, line)
			}
		}
	}
	_, err := replay.NewRecordDecoder().Decode([]byte(`{"stop": 0}`))
	if err == nil || !strings.Contains(err.Error(), "byte 8") {
		t.Fatalf("Decode of a spaced record: %v, want an error at byte 8", err)
	}
}
