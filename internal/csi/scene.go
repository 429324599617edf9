// Package csi models channel state information the way the paper's
// keystroke-inference experiment measures it: the attacker injects
// fake frames, the victim's ACKs traverse a multipath channel, and
// the attacker extracts one complex value per OFDM subcarrier from
// each ACK. Human activity near the victim device perturbs the
// multipath geometry, which shows up as amplitude fluctuations —
// the signal of Figure 5.
//
// The package is pure computation: geometry → per-subcarrier channel
// response → time series → DSP → activity classification. The
// simulator's attack driver (package core) decides *when* samples are
// taken (one per received ACK).
package csi

import (
	"math"
	"math/cmplx"
	"slices"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
)

// speedOfLight in m/s.
const speedOfLight = 299_792_458.0

// Vec3 is a point or displacement in meters.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Dist returns the distance to w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Scatterer is a point reflector with a reflectivity coefficient.
type Scatterer struct {
	Pos          Vec3 // relative to the device's rest position
	Reflectivity float64
}

// Sample is one CSI measurement: the complex channel response per
// occupied subcarrier at measurement time T (seconds).
type Sample struct {
	T float64
	H [phy.NumSubcarriers]complex128
}

// Amplitude returns |H| for one CSI slot.
func (s Sample) Amplitude(slot int) float64 { return cmplx.Abs(s.H[slot]) }

// Phase returns arg(H) for one CSI slot.
func (s Sample) Phase(slot int) float64 { return cmplx.Phase(s.H[slot]) }

// Series is a CSI time series (one Sample per received ACK).
type Series []Sample

// Amplitudes extracts the amplitude track of one subcarrier.
func (s Series) Amplitudes(slot int) []float64 {
	out := make([]float64, len(s))
	for i, smp := range s {
		out[i] = smp.Amplitude(slot)
	}
	return out
}

// Times extracts the sample timestamps.
func (s Series) Times() []float64 {
	out := make([]float64, len(s))
	for i, smp := range s {
		out[i] = smp.T
	}
	return out
}

// MeanRate reports the average sampling rate in Hz.
func (s Series) MeanRate() float64 {
	if len(s) < 2 {
		return 0
	}
	span := s[len(s)-1].T - s[0].T
	if span <= 0 {
		return 0
	}
	return float64(len(s)-1) / span
}

// Scene is the physical environment between the attacker (Tx, which
// receives the ACKs — radio channels are reciprocal) and the victim
// device. Measure keeps scratch and a cache on the Scene, so a Scene
// must not be copied after its first Measure.
type Scene struct {
	// Attacker is the sensing radio's position.
	Attacker Vec3
	// DeviceRest is the victim device's rest position.
	DeviceRest Vec3
	// Walls are static virtual scatter points (room reflections).
	Walls []Scatterer
	// CenterHz is the channel center frequency.
	CenterHz float64
	// NoiseSigma is the relative measurement noise per subcarrier.
	NoiseSigma float64

	rng *eventsim.RNG

	// static is the line-of-sight and wall paths' per-subcarrier sum
	// for the geometry staticKey encodes (see staticSum).
	static     [phy.NumSubcarriers]complex128
	staticKey  []uint64
	keyScratch []uint64
	paths      []path // Measure's scratch
}

// NewScene builds the default through-the-wall sensing scene used by
// the Figure 5 experiment: attacker 8 m from the device on channel 6,
// four wall reflections, 2% measurement noise.
func NewScene(rng *eventsim.RNG) *Scene {
	return &Scene{
		Attacker:   Vec3{0, 0, 1},
		DeviceRest: Vec3{8, 0, 0.5},
		Walls: []Scatterer{
			{Pos: Vec3{4, 3, 1.5}, Reflectivity: 0.45},
			{Pos: Vec3{4, -3, 1.5}, Reflectivity: 0.4},
			{Pos: Vec3{-1, 1, 1}, Reflectivity: 0.3},
			{Pos: Vec3{9, 2, 2}, Reflectivity: 0.35},
		},
		CenterHz:   phy.ChannelFreqMHz(phy.Band2GHz, 6) * 1e6,
		NoiseSigma: 0.02,
		rng:        rng,
	}
}

// State is the instantaneous physical configuration produced by an
// activity: where the device is, and which body scatterers exist.
type State struct {
	// DeviceOffset displaces the device from its rest position
	// (picking the tablet up moves every propagation path at once).
	DeviceOffset Vec3
	// Bodies are body-part scatterers, positioned relative to the
	// device rest position.
	Bodies []Scatterer
}

// path is one propagation path: its delay in seconds and its gain.
type path struct {
	delay float64
	gain  float64
}

// bounce is the path that leaves the attacker, reflects off a
// scatterer at p with reflectivity refl, and reaches the device.
func (sc *Scene) bounce(p, dev Vec3, refl float64) path {
	d1 := sc.Attacker.Dist(p)
	d2 := p.Dist(dev)
	if d1 < 0.1 {
		d1 = 0.1
	}
	if d2 < 0.1 {
		d2 = 0.1
	}
	return path{(d1 + d2) / speedOfLight, refl / (d1 * d2)}
}

// addPaths adds each path's a·exp(−j·2π·f·τ) to h, in order. The
// exponent is purely imaginary, so exp is computed as cos + j·sin:
// cmplx.Exp would scale both by exp(0), which is exactly 1.
func addPaths(h complex128, f float64, paths []path) complex128 {
	for _, p := range paths {
		sn, cs := math.Sincos(-2 * math.Pi * f * p.delay)
		h += complex(p.gain, 0) * complex(cs, sn)
	}
	return h
}

// staticSum returns the per-subcarrier sum of the line-of-sight and
// wall paths to a device at dev. Those paths do not move while a
// device sits still, so the sum is kept for the last geometry seen,
// keyed bit for bit on everything it depends on: dev, Attacker,
// CenterHz and an element-wise copy of Walls (which callers may edit
// in place).
func (sc *Scene) staticSum(dev Vec3) *[phy.NumSubcarriers]complex128 {
	key := append(sc.keyScratch[:0],
		math.Float64bits(dev.X), math.Float64bits(dev.Y), math.Float64bits(dev.Z),
		math.Float64bits(sc.Attacker.X), math.Float64bits(sc.Attacker.Y), math.Float64bits(sc.Attacker.Z),
		math.Float64bits(sc.CenterHz))
	for _, w := range sc.Walls {
		key = append(key,
			math.Float64bits(w.Pos.X), math.Float64bits(w.Pos.Y), math.Float64bits(w.Pos.Z),
			math.Float64bits(w.Reflectivity))
	}
	if slices.Equal(key, sc.staticKey) {
		sc.keyScratch = key
		return &sc.static
	}
	sc.keyScratch, sc.staticKey = sc.staticKey, key

	// Line of sight, then one bounce per wall.
	dLOS := sc.Attacker.Dist(dev)
	if dLOS < 0.1 {
		dLOS = 0.1
	}
	paths := append(sc.paths[:0], path{dLOS / speedOfLight, 1 / dLOS})
	for _, w := range sc.Walls {
		paths = append(paths, sc.bounce(w.Pos, dev, w.Reflectivity))
	}
	sc.paths = paths
	for slot := range sc.static {
		sc.static[slot] = addPaths(0, sc.CenterHz+phy.SubcarrierOffsetHz(slot), paths)
	}
	return &sc.static
}

// Measure computes the CSI sample for the given physical state at
// time t. Channel response per subcarrier k:
//
//	H(f_k) = Σ_paths a_p · exp(−j·2π·f_k·τ_p)
//
// with the line-of-sight path, one path per wall scatterer, and one
// per body scatterer; amplitudes follow 1/d spreading with a
// reflectivity factor for bounced paths. The body paths are added
// onto the cached sum of the static paths, after them as always, so
// the result is bit-identical to summing every path afresh.
func (sc *Scene) Measure(t float64, st State) Sample {
	dev := sc.DeviceRest.Add(st.DeviceOffset)
	static := sc.staticSum(dev)

	bodies := sc.paths[:0]
	for _, b := range st.Bodies {
		bodies = append(bodies, sc.bounce(sc.DeviceRest.Add(b.Pos), dev, b.Reflectivity))
	}
	sc.paths = bodies

	var s Sample
	s.T = t
	for slot := 0; slot < phy.NumSubcarriers; slot++ {
		h := addPaths(static[slot], sc.CenterHz+phy.SubcarrierOffsetHz(slot), bodies)
		if sc.NoiseSigma > 0 && sc.rng != nil {
			sigma := sc.NoiseSigma * cmplx.Abs(h)
			re := sc.rng.Normal(0, sigma)
			h += complex(re, sc.rng.Normal(0, sigma))
		}
		s.H[slot] = h
	}
	return s
}

// Timeline schedules activities over wall-clock seconds.
type Timeline struct {
	entries []timelineEntry
}

type timelineEntry struct {
	start, end float64
	act        Activity
}

// Add appends an activity active during [start, end).
func (tl *Timeline) Add(start, end float64, act Activity) *Timeline {
	tl.entries = append(tl.entries, timelineEntry{start, end, act})
	return tl
}

// At returns the active activity and its local time, defaulting to
// OnGround outside every window.
func (tl *Timeline) At(t float64) (Activity, float64) {
	for _, e := range tl.entries {
		if t >= e.start && t < e.end {
			return e.act, t - e.start
		}
	}
	return OnGround(), 0
}

// Label returns the name of the activity active at t.
func (tl *Timeline) Label(t float64) string {
	act, _ := tl.At(t)
	return act.Name()
}

// MeasureAt samples the scene under the timeline's activity at time t.
func (sc *Scene) MeasureAt(tl *Timeline, t float64) Sample {
	act, local := tl.At(t)
	return sc.Measure(t, act.State(local))
}

// Collect samples the scene at the given rate over [0, duration),
// producing the full CSI series for a scripted experiment.
func (sc *Scene) Collect(tl *Timeline, rateHz, duration float64) Series {
	n := int(duration * rateHz)
	out := make(Series, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) / rateHz
		out = append(out, sc.MeasureAt(tl, t))
	}
	return out
}
