package telemetry

import (
	"fmt"
	"math"
	"strconv"

	"politewifi/internal/eventsim"
)

// RestoreRegistry reconstructs a Registry from a Report so that a
// serialized delta snapshot (one stop's worth of telemetry in a
// flight-recorder stream) can be folded back into an aggregate with
// MergeFrom. The restored registry is a faithful stand-in for the one
// the report was taken from:
//
//   - counters carry value and last-update stamp;
//   - gauges carry value, high-water mark, and the set bit, so a
//     registered-but-never-written gauge stays distinguishable from a
//     measured zero and is skipped by gauge merge exactly as the
//     original would be;
//   - histograms rebuild their bounds from the bucket upper-bound
//     labels (the "+Inf" overflow bucket is implicit) and carry
//     bucket counts, sum, count, min/max, and stamp.
//
// Sampled instruments do not round-trip as functions — Snapshot
// already resolved them to plain counters/gauges stamped with the
// report's sim time, which is the same resolution MergeFrom performs,
// so folding restored reports reproduces a live merge byte for byte.
//
// The restored registry's clock is the zero clock; it only matters
// for new observations, which a restored registry does not take.
func RestoreRegistry(rep Report) (*Registry, error) {
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("telemetry: cannot restore registry from schema %q (want %q)", rep.Schema, ReportSchema)
	}
	r := NewRegistry(nil)
	// Snapshot emits each instrument name once; a duplicate means the
	// report was corrupted in flight, and silently letting the second
	// occurrence overwrite the first would fold a wrong aggregate.
	dup := func(kind string, seen map[string]bool, name string) error {
		if seen[name] {
			return fmt.Errorf("telemetry: corrupt report: duplicate %s %q", kind, name)
		}
		seen[name] = true
		return nil
	}
	seenC := make(map[string]bool, len(rep.Counters))
	for _, cs := range rep.Counters {
		if err := dup("counter", seenC, cs.Name); err != nil {
			return nil, err
		}
		c := r.Counter(cs.Name, cs.Help)
		c.v.Store(cs.Value)
		c.lastAt.Store(cs.LastUpdateNS)
	}
	seenG := make(map[string]bool, len(rep.Gauges))
	for _, gs := range rep.Gauges {
		if err := dup("gauge", seenG, gs.Name); err != nil {
			return nil, err
		}
		g := r.Gauge(gs.Name, gs.Help)
		g.mu.Lock()
		g.v = gs.Value
		g.max = gs.Max
		g.set = gs.Set
		g.lastAt = eventsim.Time(gs.LastUpdateNS)
		g.mu.Unlock()
	}
	seenH := make(map[string]bool, len(rep.Histograms))
	for _, hs := range rep.Histograms {
		if err := dup("histogram", seenH, hs.Name); err != nil {
			return nil, err
		}
		bounds := make([]float64, 0, len(hs.Buckets))
		counts := make([]uint64, 0, len(hs.Buckets))
		seenInf := false
		for _, b := range hs.Buckets {
			if seenInf {
				return nil, fmt.Errorf("telemetry: histogram %q has buckets after +Inf", hs.Name)
			}
			if b.LE == "+Inf" {
				seenInf = true
				counts = append(counts, b.Count)
				continue
			}
			bound, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: histogram %q bucket bound %q: %w", hs.Name, b.LE, err)
			}
			// Bounds must ascend strictly: Histogram's bucket search and
			// MergeFrom both assume it, and a mangled bound would
			// otherwise fold silently into the wrong bucket. A NaN
			// bound compares unequal even to itself, which MergeFrom
			// takes for a bounds mismatch and panics on.
			if math.IsNaN(bound) {
				return nil, fmt.Errorf("telemetry: histogram %q bucket bound is NaN", hs.Name)
			}
			if n := len(bounds); n > 0 && bound <= bounds[n-1] {
				return nil, fmt.Errorf("telemetry: histogram %q bucket bounds not ascending (%g after %g)",
					hs.Name, bound, bounds[n-1])
			}
			bounds = append(bounds, bound)
			counts = append(counts, b.Count)
		}
		if !seenInf {
			return nil, fmt.Errorf("telemetry: histogram %q has no +Inf bucket", hs.Name)
		}
		h := r.Histogram(hs.Name, hs.Help, bounds)
		h.mu.Lock()
		copy(h.counts, counts)
		h.sum = hs.Sum
		h.n = hs.Count
		if hs.Count > 0 {
			h.min, h.max = hs.Min, hs.Max
		} else {
			h.min, h.max = math.Inf(1), math.Inf(-1)
		}
		h.lastAt = eventsim.Time(hs.LastUpdateNS)
		h.mu.Unlock()
	}
	return r, nil
}
