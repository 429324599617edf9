package replay_test

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"politewifi/internal/replay"
)

// FuzzLoad holds the frame-log loader to its contract on arbitrary
// bytes: Load never panics, and every rejection is a *PosError whose
// byte offset lies inside the input. Seeds are the world package's
// golden frame log plus truncated and line-swapped variants of it;
// inputs the fuzzer found interesting live in testdata/fuzz/FuzzLoad.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := replay.Load(bytes.NewReader(data))
		if err != nil {
			var pe *replay.PosError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, not a *replay.PosError: %v", err, err)
			}
			if pe.Offset < 0 || pe.Offset > int64(len(data)) {
				t.Fatalf("error offset %d outside the %d-byte input: %v", pe.Offset, len(data), err)
			}
			return
		}
		if log.Stops() < 0 || log.Records() > bytes.Count(data, []byte("}")) {
			t.Fatalf("accepted log claims %d stops and %d records from %d bytes", log.Stops(), log.Records(), len(data))
		}
	})
}

// swap returns a copy of lines with elements i and j exchanged.
func swap(lines [][]byte, i, j int) [][]byte {
	out := append([][]byte(nil), lines...)
	out[i], out[j] = out[j], out[i]
	return out
}
