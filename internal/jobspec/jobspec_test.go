package jobspec

import (
	"encoding/json"
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"politewifi/internal/eventsim"
)

// TestJSONRoundTrip pins the wire format: a fully populated spec
// survives marshal→unmarshal bit for bit.
func TestJSONRoundTrip(t *testing.T) {
	in := Spec{
		Kind: KindDrive, Seed: 7, Scale: 0.02, StopSize: 8, DwellMS: 400,
		Workers: 4, Faults: "loss=0.2,ack=0.1",
	}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the spec:\nin:  %+v\nout: %+v", in, out)
	}
}

// TestDecodeDefaults: an empty JSON object decodes to the same spec
// the untouched CLI flags produce.
func TestDecodeDefaults(t *testing.T) {
	got, err := Decode(strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if want := Drive(); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty object decoded to %+v, want CLI defaults %+v", got, want)
	}
	got, err = Decode(strings.NewReader(`{"kind":"losssweep"}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := LossSweep(); !reflect.DeepEqual(got, want) {
		t.Fatalf("losssweep object decoded to %+v, want CLI defaults %+v", got, want)
	}
}

// TestDecodeRejects: unknown fields, bad kinds, bad fault specs and
// out-of-range values fail loudly at decode time.
func TestDecodeRejects(t *testing.T) {
	for _, bad := range []string{
		`{"sede":7}`,             // typoed key
		`{"kind":"csi"}`,         // unknown kind
		`{"scale":2}`,            // scale > 1
		`{"scale":-0.5}`,         // negative scale
		`{"stop_size":-1}`,       // negative stop size
		`{"workers":-2}`,         // negative workers
		`{"faults":"loss=nope"}`, // malformed fault spec
		`{"faults":"zorp=1"}`,    // unknown fault key
		`{"kind":"losssweep","faults":"loss=0.1"}`, // faults on a sweep
		`{"rates":[0.5]}`,                          // rates on a drive
		`{"kind":"losssweep","rates":[1.5]}`,       // rate out of range
		`{"probe_interval_us":-1}`,                 // negative probe cadence
		`{"scan_interval_ms":-5}`,                  // negative scan cadence
		`{"faults":"ack=NaN"}`,                     // non-finite fault rate
		`{"dwell_ms":9223372036855}`,               // dwell overflows simulated time
		`{"dwell_ms":3600001}`,                     // dwell past one simulated hour
		`{"probe_interval_us":9223372036854776}`,   // probe cadence overflows simulated time
		`{"probe_interval_us":3600000001}`,         // probe cadence past one simulated hour
		`{"scan_interval_ms":9223372036855}`,       // scan cadence overflows simulated time
		`{"scan_interval_ms":3600001}`,             // scan cadence past one simulated hour
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Errorf("Decode(%s) succeeded, want error", bad)
		}
	}
}

// TestValidateRejectsNaN: JSON cannot carry NaN, but a flag-parsed or
// hand-built spec can, and every NaN comparison is false — so each
// range check must be written to fail on NaN, not to pass it.
func TestValidateRejectsNaN(t *testing.T) {
	nanScale := Drive()
	nanScale.Scale = math.NaN()
	nanRate := LossSweep()
	nanRate.Rates = []float64{0.1, math.NaN()}
	for _, s := range []Spec{nanScale, nanRate} {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted a NaN", s)
		}
	}
}

// TestFlagsMatchJSONDefaults: parsing zero CLI flags and decoding an
// empty JSON body must build the identical spec — the guarantee that
// a daemon job and a CLI run are parameterised the same way.
func TestFlagsMatchJSONDefaults(t *testing.T) {
	spec := Drive()
	fs := flag.NewFlagSet("wardrive", flag.ContinueOnError)
	spec.RegisterDriveFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Decode(strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, fromJSON) {
		t.Fatalf("flag defaults %+v != JSON defaults %+v", spec, fromJSON)
	}
}

// TestFlagsParse: the canonical flag names bind to the spec fields.
func TestFlagsParse(t *testing.T) {
	spec := Drive()
	fs := flag.NewFlagSet("wardrive", flag.ContinueOnError)
	spec.RegisterDriveFlags(fs)
	err := fs.Parse([]string{
		"-seed", "9", "-scale", "0.05", "-stop-size", "6",
		"-dwell", "800", "-workers", "3", "-faults", "loss=0.3",
		"-probe-interval", "1500", "-scan-interval", "25",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Kind: KindDrive, Seed: 9, Scale: 0.05, StopSize: 6, DwellMS: 800, Workers: 3, Faults: "loss=0.3",
		ProbeIntervalUS: 1500, ScanIntervalMS: 25}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWorldConfig: the built world.Config carries every spec field,
// with the fault spec parsed through the real grammar.
func TestWorldConfig(t *testing.T) {
	spec := Spec{Kind: KindDrive, Seed: 11, Scale: 0.1, StopSize: 5, DwellMS: 700, Workers: 2, Faults: "ack=0.25",
		ProbeIntervalUS: 1500, ScanIntervalMS: 25}
	cfg, err := spec.WorldConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 11 || cfg.Scale != 0.1 || cfg.HouseholdsPerStop != 5 || cfg.Workers != 2 {
		t.Fatalf("config %+v does not carry the spec", cfg)
	}
	if cfg.DwellPerChannel != 700*eventsim.Millisecond {
		t.Fatalf("dwell %v, want 700ms", cfg.DwellPerChannel)
	}
	if cfg.Faults == nil || cfg.Faults.ACKLoss != 0.25 {
		t.Fatalf("faults %+v, want ACKLoss 0.25", cfg.Faults)
	}
	if cfg.ProbeInterval != 1500*eventsim.Microsecond || cfg.ActiveScanInterval != 25*eventsim.Millisecond {
		t.Fatalf("attacker cadence %v/%v, want 1.5ms/25ms", cfg.ProbeInterval, cfg.ActiveScanInterval)
	}

	if _, err := (Spec{Kind: "bogus"}).WorldConfig(); err == nil {
		t.Fatal("WorldConfig accepted an invalid spec")
	}
}

// FuzzDecode holds the daemon's job-submission decoder to its contract
// on arbitrary bodies: it never panics; a spec it accepts validates,
// builds a world.Config whose dwell is positive and whose cadences are
// not negative, and survives a JSON re-encode and decode unchanged.
// testdata/fuzz/FuzzDecode holds the NaN fault rate it once admitted,
// the empty rates list that once failed the round trip, and the
// millisecond and microsecond durations that once overflowed
// simulated time.
func FuzzDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`, `{"kind":"losssweep"}`, `{"kind":"losssweep","rates":[0,0.5,1]}`,
		`{"seed":7,"scale":0.02,"stop_size":8,"dwell_ms":400,"workers":4,"faults":"loss=0.2,ack=0.1"}`,
		`{"probe_interval_us":1500,"scan_interval_ms":25}`,
		`{"dwell_ms":3600000,"probe_interval_us":3600000000,"scan_interval_ms":3600000}`,
		`{"scale":2}`, `{"sede":7}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := Decode(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Decode(%q) accepted a spec Validate rejects: %v", body, err)
		}
		cfg, err := s.WorldConfig()
		if err != nil {
			t.Fatalf("Decode(%q) accepted a spec WorldConfig rejects: %v", body, err)
		}
		if cfg.DwellPerChannel <= 0 || cfg.ProbeInterval < 0 || cfg.ActiveScanInterval < 0 {
			t.Fatalf("Decode(%q) built durations dwell=%d probe=%d scan=%d; want dwell > 0, cadences >= 0",
				body, int64(cfg.DwellPerChannel), int64(cfg.ProbeInterval), int64(cfg.ActiveScanInterval))
		}
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", s, err)
		}
		again, err := Decode(strings.NewReader(string(buf)))
		if err != nil {
			t.Fatalf("re-decode %s: %v", buf, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("JSON round trip changed the spec:\nin:  %+v\nout: %+v", s, again)
		}
	})
}
