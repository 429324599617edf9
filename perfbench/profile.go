package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the CPU profile the benchmark takes of itself and
// folds it by module. It decodes just the parts of the pprof protobuf
// (profile.proto) the fold needs — samples, locations, functions and
// the string table — so the benchmark stays standard-library only.

// modulePrefix marks the frames of this repository's modules.
const modulePrefix = "politewifi/internal/"

// gcFrames are runtime functions that only the garbage collector's
// own workers run (or the profiler's stand-in frame for GC time with
// no goroutine stack). GC assist work done on a simulation goroutine
// sits under a module frame and is charged to that module instead.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// cpuProfile is a decoded CPU profile: each sample's stack as
// function names, leaf first, with inlined frames expanded.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string
	ns    int64
}

// moduleOf names the layer a stack is charged to: the nearest
// politewifi/internal/<module> frame to the leaf, else "gc" for the
// collector's workers, else "other" (the benchmark, net/http, the
// scheduler and everything else outside the simulator).
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	return "other"
}

// fold sums sample CPU time per module.
func (p *cpuProfile) fold() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.samples {
		out[moduleOf(s.stack)] += s.ns
	}
	return out
}

// moduleShare is one row of the per-module table.
type moduleShare struct {
	module string
	ns     int64
	share  float64
}

// shareTable orders folded CPU by descending time (ties by name) and
// gives each module its share of the total.
func shareTable(folded map[string]int64) []moduleShare {
	var total int64
	rows := make([]moduleShare, 0, len(folded))
	for m, ns := range folded {
		total += ns
		rows = append(rows, moduleShare{module: m, ns: ns})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ns != rows[j].ns {
			return rows[i].ns > rows[j].ns
		}
		return rows[i].module < rows[j].module
	})
	for i := range rows {
		if total > 0 {
			rows[i].share = float64(rows[i].ns) / float64(total)
		}
	}
	return rows
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locFuncs    = make(map[uint64][]uint64) // location → function ids, leaf first
		funcNames   = make(map[uint64]uint64)   // function → string index
		strs        []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; use the
	// cpu column, falling back to the last one.
	col := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	p := &cpuProfile{samples: make([]cpuSample, 0, len(samples))}
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("profile: sample has fewer values than sample types")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, cpuSample{stack: stack, ns: s.values[col]})
	}
	return p, nil
}

// appendUints adds a repeated integer field's value(s): one varint,
// or a packed run of them.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited
// bytes. Fixed-width fields are skipped; groups are rejected.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
