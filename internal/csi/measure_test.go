package csi

import (
	"math"
	"math/cmplx"
	"testing"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
)

// refMeasure is the channel model written the plain way: every path
// summed afresh on every call through cmplx.Exp, with no cache. It
// reads the scene's exported geometry and draws noise from rng.
func refMeasure(sc *Scene, rng *eventsim.RNG, t float64, st State) Sample {
	dev := sc.DeviceRest.Add(st.DeviceOffset)
	type refPath struct{ delay, gain float64 }
	var paths []refPath
	dLOS := sc.Attacker.Dist(dev)
	if dLOS < 0.1 {
		dLOS = 0.1
	}
	paths = append(paths, refPath{dLOS / speedOfLight, 1 / dLOS})
	addBounce := func(p Vec3, refl float64) {
		d1 := sc.Attacker.Dist(p)
		d2 := p.Dist(dev)
		if d1 < 0.1 {
			d1 = 0.1
		}
		if d2 < 0.1 {
			d2 = 0.1
		}
		paths = append(paths, refPath{(d1 + d2) / speedOfLight, refl / (d1 * d2)})
	}
	for _, w := range sc.Walls {
		addBounce(w.Pos, w.Reflectivity)
	}
	for _, b := range st.Bodies {
		addBounce(sc.DeviceRest.Add(b.Pos), b.Reflectivity)
	}
	var s Sample
	s.T = t
	for slot := 0; slot < phy.NumSubcarriers; slot++ {
		f := sc.CenterHz + phy.SubcarrierOffsetHz(slot)
		var h complex128
		for _, p := range paths {
			phase := -2 * math.Pi * f * p.delay
			h += complex(p.gain, 0) * cmplx.Exp(complex(0, phase))
		}
		if sc.NoiseSigma > 0 && rng != nil {
			h += complex(rng.Normal(0, sc.NoiseSigma*cmplx.Abs(h)),
				rng.Normal(0, sc.NoiseSigma*cmplx.Abs(h)))
		}
		s.H[slot] = h
	}
	return s
}

// sameBits fails unless got and want agree in every bit.
func sameBits(t *testing.T, step string, got, want Sample) {
	t.Helper()
	if math.Float64bits(got.T) != math.Float64bits(want.T) {
		t.Fatalf("%s: T = %v, want %v", step, got.T, want.T)
	}
	for k := range got.H {
		g, w := got.H[k], want.H[k]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: subcarrier %d = %v, reference %v", step, k, g, w)
		}
	}
}

// twinScenes returns a scene whose noise comes from a seeded RNG and a
// second RNG in the same state for the reference to draw from. A zero
// seed returns nil RNGs: a scene without noise.
func twinScenes(seed int64) (*Scene, *eventsim.RNG) {
	if seed == 0 {
		return NewScene(nil), nil
	}
	return NewScene(eventsim.NewRNG(seed)), eventsim.NewRNG(seed)
}

// TestMeasureMatchesReference holds Measure to the uncached cmplx.Exp
// formula bit for bit while every input of the static-path cache
// changes between calls: the device moves and rests, the attacker and
// the device's rest position move, the channel changes, a wall moves
// in place, and the wall slice is resliced and grown.
func TestMeasureMatchesReference(t *testing.T) {
	body := []Scatterer{{Pos: Vec3{-1, 0.2, 0.9}, Reflectivity: 0.8}}
	type step struct {
		name string
		st   State
		edit func(sc *Scene)
	}
	steps := []step{
		{name: "rest", st: State{}},
		{name: "rest again", st: State{}},
		{name: "rest with body", st: State{Bodies: body}},
		{name: "moved", st: State{DeviceOffset: Vec3{0.1, 0, 0.3}, Bodies: body}},
		{name: "moved again", st: State{DeviceOffset: Vec3{0.1, 0.02, 0.31}}},
		{name: "back at rest", st: State{Bodies: body}},
		{name: "attacker moves", st: State{}, edit: func(sc *Scene) { sc.Attacker.Y = 0.5 }},
		{name: "rest moves", st: State{Bodies: body}, edit: func(sc *Scene) { sc.DeviceRest.X = 7.5 }},
		{name: "channel 11", st: State{}, edit: func(sc *Scene) {
			sc.CenterHz = phy.ChannelFreqMHz(phy.Band2GHz, 11) * 1e6
		}},
		{name: "wall moves in place", st: State{}, edit: func(sc *Scene) { sc.Walls[0].Pos.X += 0.25 }},
		{name: "wall reflectivity in place", st: State{Bodies: body}, edit: func(sc *Scene) {
			sc.Walls[3].Reflectivity = 0.5
		}},
		{name: "walls resliced", st: State{}, edit: func(sc *Scene) { sc.Walls = sc.Walls[:2] }},
		{name: "walls resliced back", st: State{}, edit: func(sc *Scene) { sc.Walls = sc.Walls[:4] }},
		{name: "wall appended", st: State{Bodies: body}, edit: func(sc *Scene) {
			sc.Walls = append(sc.Walls, Scatterer{Pos: Vec3{2, -2, 2}, Reflectivity: 0.2})
		}},
		{name: "walls dropped", st: State{}, edit: func(sc *Scene) { sc.Walls = nil }},
		{name: "device on the attacker", st: State{DeviceOffset: Vec3{-8, 0, 0.5}}},
	}
	for _, seed := range []int64{0, 42} {
		sc, rng := twinScenes(seed)
		for i, s := range steps {
			if s.edit != nil {
				s.edit(sc)
			}
			t0 := float64(i) / 100
			sameBits(t, s.name, sc.Measure(t0, s.st), refMeasure(sc, rng, t0, s.st))
		}
	}
}

// TestMeasureDoesNotAllocate: with the scene's scratch warmed up, a
// sample costs no allocation whether the device rests or moves.
func TestMeasureDoesNotAllocate(t *testing.T) {
	sc := NewScene(eventsim.NewRNG(1))
	rest := State{Bodies: []Scatterer{{Pos: Vec3{-1, 0, 1}, Reflectivity: 0.8}}}
	moving := State{Bodies: rest.Bodies}
	sc.Measure(0, rest)
	for name, f := range map[string]func(){
		"rest": func() { sc.Measure(0, rest) },
		"moving": func() {
			moving.DeviceOffset.Z += 0.001
			sc.Measure(0, moving)
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per Measure", name, n)
		}
	}
}

// FuzzMeasure drives the same oracle with fuzzed device offsets, body
// positions and wall edits, alternating resting and moving samples.
func FuzzMeasure(f *testing.F) {
	f.Add(int64(0), 0.1, 0.0, 0.3, -1.0, 0.2, 0.9, uint8(0), 0.25, 0.0, 0.0, 0.5, uint8(4))
	f.Add(int64(7), 0.0, 0.0, 0.0, -0.05, 0.0, 0.62, uint8(3), 9.0, 2.0, 2.0, 0.35, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, dx, dy, dz, bx, by, bz float64,
		wall uint8, wx, wy, wz, refl float64, keep uint8) {
		sc, rng := twinScenes(seed)
		body := []Scatterer{{Pos: Vec3{bx, by, bz}, Reflectivity: 0.8}}
		moved := State{DeviceOffset: Vec3{dx, dy, dz}, Bodies: body}
		check := func(step string, st State) {
			sameBits(t, step, sc.Measure(1, st), refMeasure(sc, rng, 1, st))
		}
		check("rest", State{})
		check("rest with body", State{Bodies: body})
		check("moved", moved)
		check("moved again", moved)
		w := &sc.Walls[int(wall)%len(sc.Walls)]
		w.Pos = w.Pos.Add(Vec3{wx, wy, wz})
		w.Reflectivity = refl
		check("wall edited", moved)
		check("rest after edit", State{Bodies: body})
		sc.Walls = sc.Walls[:int(keep)%(len(sc.Walls)+1)]
		check("walls resliced", State{})
		check("moved after reslice", moved)
	})
}
