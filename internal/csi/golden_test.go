package csi

import (
	"bytes"
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

// seriesDigest hashes every bit of a series: each sample's time and
// the real and imaginary parts of every subcarrier, as IEEE-754 bits.
// Rounded renders cannot see a one-ulp change; this can.
func seriesDigest(s Series) string {
	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, smp := range s {
		put(smp.T)
		for _, v := range smp.H {
			put(real(v))
			put(imag(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenCases builds one timeline per activity, each from its own
// seeded RNG so the cases stay independent of one another.
func goldenCases() []struct {
	name string
	tl   func(*eventsim.RNG) *Timeline
	secs float64
} {
	single := func(act func(*eventsim.RNG) Activity, secs float64) func(*eventsim.RNG) *Timeline {
		return func(rng *eventsim.RNG) *Timeline { return (&Timeline{}).Add(0, secs, act(rng)) }
	}
	return []struct {
		name string
		tl   func(*eventsim.RNG) *Timeline
		secs float64
	}{
		{"on-ground", single(func(*eventsim.RNG) Activity { return OnGround() }, 6), 6},
		{"approach", single(func(r *eventsim.RNG) Activity { return Approach(r, 4, 4, 0.5) }, 6), 6},
		{"pick-up", single(func(r *eventsim.RNG) Activity { return PickUp(r, 9) }, 10), 10},
		{"hold", single(func(r *eventsim.RNG) Activity { return Hold(r) }, 6), 6},
		{"typing", single(func(r *eventsim.RNG) Activity { return Typing(r) }, 6), 6},
		{"walking", single(func(r *eventsim.RNG) Activity { return Walking(r, 2, 1.2) }, 6), 6},
		{"breathing", single(func(*eventsim.RNG) Activity { return Breathing(15) }, 6), 6},
		{"figure5", Figure5Timeline, 45},
	}
}

// TestMeasureGolden pins the exact bits of Scene.Collect for every
// activity, with and without measurement noise. Regenerate with
// -update only when the channel model is meant to change.
func TestMeasureGolden(t *testing.T) {
	var got bytes.Buffer
	for i, c := range goldenCases() {
		for _, sigma := range []float64{0.02, 0} {
			rng := eventsim.NewRNG(int64(100 + i))
			sc := NewScene(rng.Fork())
			sc.NoiseSigma = sigma
			series := sc.Collect(c.tl(rng.Fork()), 100, c.secs)
			fmt.Fprintf(&got, "%s sigma=%g n=%d %s\n", c.name, sigma, len(series), seriesDigest(series))
		}
	}
	path := filepath.Join("testdata", "measure_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("golden line %d:\n got %s\nwant %s", i+1, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
}
