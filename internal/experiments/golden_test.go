package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"politewifi/internal/eventsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// labGoldenSeeds are the seeds TestLabGolden pins.
var labGoldenSeeds = []int64{seed, 7}

// bits prints a float at full precision, as its IEEE-754 bits.
func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// labGolden renders the lab experiments for one seed: each render as
// text, plus the full-precision values the renders round away — the
// Figure 6 power readings, the Figure 5 classifier accuracy and a
// hash over every bit of the Figure 5 CSI series.
func labGolden(b *strings.Builder, s int64) {
	f6 := Figure6(s, eventsim.Second)
	fmt.Fprintf(b, "== seed %d Figure6\n%s", s, f6.Render())
	b.WriteString("PowerMW")
	for _, p := range f6.Points {
		b.WriteString(" " + bits(p.PowerMW))
	}
	b.WriteString("\n")

	f5 := Figure5(s)
	fmt.Fprintf(b, "== seed %d Figure5\n%s", s, f5.Render())
	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, smp := range f5.Series {
		put(smp.T)
		for _, v := range smp.H {
			put(real(v))
			put(imag(v))
		}
	}
	fmt.Fprintf(b, "Series n=%d sha256=%x\n", len(f5.Series), h.Sum(nil))
	fmt.Fprintf(b, "ClassifierAccuracy %s\n", bits(f5.ClassifierAccuracy))

	fmt.Fprintf(b, "== seed %d Table1\n%s", s, Table1(s).Render())
	fmt.Fprintf(b, "== seed %d Figure2\n%s", s, Figure2(s).Render())
	fmt.Fprintf(b, "== seed %d Figure3\n%s", s, Figure3(s).Render())
}

// TestLabGolden pins the lab workload's experiments bit for bit at two
// seeds. Regenerate with -update only when an experiment is meant to
// change what it computes.
func TestLabGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("lab golden in -short mode")
	}
	var b strings.Builder
	for _, s := range labGoldenSeeds {
		labGolden(&b, s)
	}
	got := b.String()
	path := filepath.Join("testdata", "lab_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("lab golden line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
