package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the benchmark
// emits in step with the ones BENCHMARK.json declares, unit included.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	r := &report{}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		emitted  map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, r.endToEnd()},
		{"per_layer", spec.PerLayer, r.perLayer()},
	} {
		var want, got []string
		for _, m := range c.declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		for name, m := range c.emitted {
			got = append(got, name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %v, benchmark emits %v", c.what, want, got)
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s: BENCHMARK.json declares %q, benchmark emits %q", c.what, want[i], got[i])
			}
		}
	}
}

func TestDeriveSeedNeverZero(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, -1, 20201104} {
		for k := 0; k < 4; k++ {
			s := deriveSeed(seed, k)
			if s == 0 || seen[s] {
				t.Errorf("deriveSeed(%d, %d) = %d (zero or repeated)", seed, k, s)
			}
			seen[s] = true
		}
	}
}
