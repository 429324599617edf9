package telemetry

import (
	"bytes"
	"reflect"
	"testing"

	"politewifi/internal/eventsim"
)

// buildShardRegistry populates a registry the way a per-stop
// simulation would: plain instruments plus a sampled counter func,
// and a registered-but-never-set gauge.
func buildShardRegistry(now eventsim.Time) *Registry {
	clock := func() eventsim.Time { return now }
	r := NewRegistry(clock)
	r.Counter("a.count", "help a").Add(7)
	r.Counter("a.zero", "registered but untouched")
	r.Gauge("b.depth", "set once").SetInt(3)
	r.Gauge("b.unset", "registered but never written")
	h := r.Histogram("c.lat_us", "latencies", TimeBucketsUS)
	h.Observe(4)
	h.Observe(120)
	r.Histogram("c.empty", "no observations", DepthBuckets)
	r.CounterFunc("d.sampled", "resolved at snapshot/merge", func() uint64 { return 42 })
	return r
}

// TestRestoreRegistryRoundTrip is the delta-fold contract: for any
// shard, MergeFrom(RestoreRegistry(shard.Snapshot())) must leave a
// destination registry byte-identical to MergeFrom(shard) — that is
// what makes folding a flight-recorder stream reproduce the live
// merged report exactly.
func TestRestoreRegistryRoundTrip(t *testing.T) {
	shard := buildShardRegistry(1500 * eventsim.Microsecond)

	restored, err := RestoreRegistry(shard.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	live := NewRegistry(nil)
	live.MergeFrom(shard)
	folded := NewRegistry(nil)
	folded.MergeFrom(restored)

	var a, b bytes.Buffer
	if err := live.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := folded.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fold path != live merge path:\nlive:\n%s\nfolded:\n%s", a.String(), b.String())
	}

	// The restored registry's own snapshot must carry the shard's
	// instruments faithfully (sampled funcs resolved to plain
	// counters, the gauge set bit preserved, empty histograms with
	// their bounds).
	rep := restored.Snapshot()
	if c := rep.Counter("d.sampled"); c == nil || c.Value != 42 || c.LastUpdateNS != 1_500_000 {
		t.Fatalf("sampled counter restored as %+v", c)
	}
	for _, g := range rep.Gauges {
		switch g.Name {
		case "b.depth":
			if !g.Set || g.Value != 3 || g.Max != 3 {
				t.Fatalf("b.depth restored as %+v", g)
			}
		case "b.unset":
			if g.Set {
				t.Fatal("never-written gauge came back with the set bit")
			}
		}
	}
}

// TestRestoreRegistryRejectsBadInput pins the error paths: wrong
// schema, malformed or NaN bucket bounds, a missing or repeated
// overflow bucket.
func TestRestoreRegistryRejectsBadInput(t *testing.T) {
	if _, err := RestoreRegistry(Report{Schema: "bogus/v9"}); err == nil {
		t.Fatal("foreign schema accepted")
	}
	bad := Report{Schema: ReportSchema, Histograms: []HistogramSnapshot{{
		Name: "h", Buckets: []HistogramBucket{{LE: "nope", Count: 1}, {LE: "+Inf"}},
	}}}
	if _, err := RestoreRegistry(bad); err == nil {
		t.Fatal("unparseable bound accepted")
	}
	nan := Report{Schema: ReportSchema, Histograms: []HistogramSnapshot{{
		Name: "h", Count: 1, Buckets: []HistogramBucket{{LE: "NaN", Count: 1}, {LE: "+Inf"}},
	}}}
	if _, err := RestoreRegistry(nan); err == nil {
		t.Fatal("NaN bound accepted")
	}
	twoInf := Report{Schema: ReportSchema, Histograms: []HistogramSnapshot{{
		Name: "h", Buckets: []HistogramBucket{{LE: "5", Count: 1}, {LE: "+Inf"}, {LE: "+Inf", Count: 2}},
	}}}
	if _, err := RestoreRegistry(twoInf); err == nil {
		t.Fatal("second +Inf bucket accepted")
	}
	noInf := Report{Schema: ReportSchema, Histograms: []HistogramSnapshot{{
		Name: "h", Buckets: []HistogramBucket{{LE: "5", Count: 1}},
	}}}
	if _, err := RestoreRegistry(noInf); err == nil {
		t.Fatal("histogram without +Inf bucket accepted")
	}
}

// TestHistogramBoundsRoundTrip asserts the standard bucket sets
// survive the LE-string round trip bit-exactly.
func TestHistogramBoundsRoundTrip(t *testing.T) {
	for _, bounds := range [][]float64{TimeBucketsUS, DepthBuckets} {
		src := NewRegistry(nil)
		src.Histogram("h", "", bounds).Observe(3)
		restored, err := RestoreRegistry(src.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		dst := NewRegistry(nil)
		dst.MergeFrom(restored)
		// A second merge from the original must not panic on a bound
		// mismatch — proof the bounds round-tripped exactly.
		dst.MergeFrom(src)
		if got := dst.Snapshot().Histograms[0].Count; got != 2 {
			t.Fatalf("merged count = %d, want 2", got)
		}
		if !reflect.DeepEqual(src.Snapshot().Histograms[0].Buckets[0].LE,
			restored.Snapshot().Histograms[0].Buckets[0].LE) {
			t.Fatal("bucket label changed across restore")
		}
	}
}
