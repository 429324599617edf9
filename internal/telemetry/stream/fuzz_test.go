package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFold holds the stream fold to its contract on arbitrary input:
// it never panics, and every failure is a *PosError positioning the
// damage. Seeds are the committed golden streams — the world's drive
// stream and this package's fold fixture — whole, line by line,
// truncated and with corrupted bytes; testdata/fuzz/FuzzFold holds
// the inputs that once escaped the contract.
func FuzzFold(f *testing.F) {
	for _, name := range []string{
		filepath.Join("..", "..", "world", "testdata", "stream_golden.ndjson"),
		filepath.Join("testdata", "fold_golden.ndjson"),
	} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			f.Add(line)
		}
		for _, cut := range []int{1, len(data) / 3, len(data) / 2, len(data) - 2} {
			f.Add(data[:cut])
		}
		for _, at := range []int{10, len(data) / 4, len(data) / 2} {
			bad := bytes.Clone(data)
			bad[at] ^= 0x20
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := Fold(bytes.NewReader(data))
		var pe *PosError
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("Fold error %T (%v), want *PosError", err, err)
		}
	})
}
