package replay_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"politewifi/internal/replay"
)

// FuzzLoad holds the frame-log loader to its contract on arbitrary
// bytes: Load never panics, and every rejection is a *PosError whose
// byte offset lies inside the input. It is also differential against
// refLoad, the encoding/json loader Load replaced: whatever Load
// accepts, refLoad accepts with the same head, records, line indexes
// and offsets; and whatever refLoad accepts, re-encoded through a
// Recorder, Load reads back as the same records. Seeds are the world
// package's golden frame logs plus truncated, line-swapped and
// reformatted variants of them; inputs the fuzzer found interesting
// live in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	golden, err := os.ReadFile("../world/testdata/framelog_golden.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	f.Add(golden)
	// Truncations: whole-line prefixes, a cut inside a record, and a
	// log missing only its final byte.
	for _, n := range []int{1, 2, 5} {
		f.Add(bytes.Join(lines[:n], nil))
	}
	f.Add(golden[:len(lines[0])+len(lines[1])/2])
	f.Add(golden[:len(golden)-1])
	// Swaps: a record ahead of the head, and two records of different
	// stops traded so stop order breaks.
	f.Add(bytes.Join(swap(lines[:5], 0, 1), nil))
	last := len(lines) - 2 // lines ends with an empty element after the final newline
	f.Add(bytes.Join(swap(lines, 1, last), nil))

	// Grammar edges of the hand-written record decoder.
	faulted, err := os.ReadFile("../world/testdata/framelog_faulted_golden.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(faulted)
	head := `{"schema":"politewifi.framelog/v1","stops":2}` + "\n"
	for _, rec := range []string{
		// Escaped strings: short escapes, \u escapes, a surrogate pair,
		// HTML-escaped bytes and raw multi-byte UTF-8.
		`{"stop":0,"cca":{"src":"a\"b\\c\/d\b\f\n\r\t\u0041\ud83d\ude00\u003c\u003e\u0026é","at":5,"busy":true}}`,
		`{"stop":1,"tx":{"src":"s","start":1,"end":2,"rate":{"Mbps":6,"Mod":1,"NDBPS":24,"Basic":true,"HT":false},"data":null}}`,
		`{"stop":1,"tx":{"src":"s","start":1,"end":2,"rate":{"Mbps":6.5e0,"Mod":1,"NDBPS":24,"Basic":false,"HT":true},"data":"","label":"ACK","exchange":9,"below_sens":2,"rx":[{"dst":"d","begin":3,"end":4,"rssi":-1.5E-7,"fx":"clash","out":"deliver","fcs":true,"drop":"jam","consulted":true},{"dst":"e","begin":3,"end":4,"rssi":1e21}]}}`,
		`{"stop":0,"cca":{"src":"s","at":5},"extra":1}`,
		`{"stop":0,"cca":{"at":5,"src":"s"}}`,
		`{"cca":{"src":"s","at":5},"stop":0}`,
		`{"stop":0, "cca":{"src":"s","at":5}}`,
		`{"stop":0,"cca":{"src":"s","at":5}}` + "\r",
		`{"stop":0,"cca":{"src":"\ud800","at":5}}`,
		`{"stop":0,"tx":{"src":"s","start":1,"end":2,"rate":{"Mbps":1e400,"Mod":1,"NDBPS":24,"Basic":true,"HT":false},"data":null}}`,
		`{"stop":0,"tx":{"src":"s","start":1,"end":2,"rate":{"Mbps":1,"Mod":1,"NDBPS":24,"Basic":true,"HT":false},"data":"AA\r\nAA"}}`,
		`{"stop":0,"cca":{"src":"s","at":5e0}}`,
	} {
		f.Add([]byte(head + rec + "\n"))
	}
	// CRLF line ends throughout, and a head spread over two lines.
	f.Add(bytes.ReplaceAll(bytes.Join(lines[:4], nil), []byte("\n"), []byte("\r\n")))
	f.Add(append([]byte("{\"schema\":\"politewifi.framelog/v1\",\n\"stops\":3}\n"), bytes.Join(lines[1:4], nil)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := replay.Load(bytes.NewReader(data))
		refHead, refStops, refErr := refLoad(data)
		if err != nil {
			var pe *replay.PosError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, not a *replay.PosError: %v", err, err)
			}
			if pe.Offset < 0 || pe.Offset > int64(len(data)) {
				t.Fatalf("error offset %d outside the %d-byte input: %v", pe.Offset, len(data), err)
			}
		} else {
			if log.Stops() < 0 || log.Records() > bytes.Count(data, []byte("}")) {
				t.Fatalf("accepted log claims %d stops and %d records from %d bytes", log.Stops(), log.Records(), len(data))
			}
			if refErr != nil {
				t.Fatalf("Load accepted a log the encoding/json loader rejects: %v", refErr)
			}
			head, stops := replay.Contents(log)
			if !reflect.DeepEqual(head, refHead) {
				t.Fatalf("head differs from the encoding/json loader's:\n got %+v\nwant %+v", head, refHead)
			}
			if !reflect.DeepEqual(stops, refStops) {
				t.Fatalf("records differ from the encoding/json loader's:\n got %s\nwant %s", dump(stops), dump(refStops))
			}
		}
		if refErr == nil {
			roundTrip(t, refHead.Stops, refStops)
		}
	})
}

// refLoad is the frame-log loader as it stood on encoding/json, kept
// as the reference Load is differentially fuzzed against.
func refLoad(data []byte) (replay.Head, map[int][]replay.Entry, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var head replay.Head
	if err := dec.Decode(&head); err != nil {
		return head, nil, err
	}
	if head.Schema != replay.Schema || head.Stops < 0 {
		return head, nil, fmt.Errorf("bad head %+v", head)
	}
	stops := make(map[int][]replay.Entry)
	for n := 1; ; n++ {
		var rec replay.Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return head, stops, nil
			}
			return head, nil, err
		}
		if rec.Stop < 0 || rec.Stop >= head.Stops {
			return head, nil, fmt.Errorf("stop index %d out of range", rec.Stop)
		}
		if (rec.TX == nil) == (rec.CCA == nil) {
			return head, nil, errors.New("record must carry exactly one of tx/cca")
		}
		stops[rec.Stop] = append(stops[rec.Stop], replay.Entry{Rec: rec, Index: n, Offset: dec.InputOffset()})
	}
}

// roundTrip re-encodes records through a Recorder, stop by stop, and
// requires Load to read back the same records.
func roundTrip(t *testing.T, nstops int, stops map[int][]replay.Entry) {
	t.Helper()
	var buf bytes.Buffer
	rec := replay.NewRecorder(&buf)
	rec.Begin(nstops)
	order := make([]int, 0, len(stops))
	for stop := range stops {
		order = append(order, stop)
	}
	sort.Ints(order)
	for _, stop := range order {
		rec.WriteStop(stopLog(stop, stops[stop]))
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("re-encoding the encoding/json loader's records: %v", err)
	}
	log, err := replay.Load(&buf)
	if err != nil {
		t.Fatalf("Load rejects the Recorder's own re-encoding: %v", err)
	}
	_, got := replay.Contents(log)
	for _, stop := range order {
		if len(got[stop]) != len(stops[stop]) {
			t.Fatalf("stop %d: %d records round-tripped, want %d", stop, len(got[stop]), len(stops[stop]))
		}
		for i, e := range stops[stop] {
			if !reflect.DeepEqual(got[stop][i].Rec, e.Rec) {
				t.Fatalf("stop %d record %d: round trip changed it:\n got %s\nwant %s",
					stop, i, dump(got[stop][i].Rec), dump(e.Rec))
			}
		}
	}
}

// stopLog rebuilds a stop's shard from loaded records.
func stopLog(stop int, entries []replay.Entry) *replay.StopLog {
	sl := replay.NewStopLog(stop)
	for _, e := range entries {
		if e.Rec.TX != nil {
			sl.RecordTx(e.Rec.TX)
		} else {
			sl.RecordCCA(e.Rec.CCA.Src, e.Rec.CCA.At, e.Rec.CCA.Busy)
		}
	}
	return sl
}

// dump renders v as JSON for a failure message.
func dump(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}

// swap returns a copy of lines with elements i and j exchanged.
func swap(lines [][]byte, i, j int) [][]byte {
	out := append([][]byte(nil), lines...)
	out[i], out[j] = out[j], out[i]
	return out
}
