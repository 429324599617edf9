package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"

	"politewifi/internal/phy"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) msg(num int, m *pb) *pb { return p.bytes(num, m.b) }

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile builds a CPU profile whose stacks exercise every
// folding rule: nearest module frame wins, an inlined module frame
// counts, runtime leaves under a module go to that module, GC workers
// go to gc, the rest to other.
func syntheticProfile(gz bool) []byte {
	strs := []string{"",
		"samples", "count", "cpu", "nanoseconds", // 1-4
		"math.Exp",                    // 5
		"politewifi/internal/phy.BER", // 6
		"politewifi/internal/mac.(*Station).DataRateFor", // 7
		"crypto/sha1.block",                                    // 8
		"politewifi/internal/crypto80211.PBKDF2",               // 9
		"politewifi/internal/telemetry/stream.(*Writer).Write", // 10
		"runtime.scanobject",                                   // 11
		"runtime.gcBgMarkWorker",                               // 12
		"main.main",                                            // 13
		"runtime.mallocgc",                                     // 14
	}
	p := &pb{}
	p.msg(1, (&pb{}).varint(1, 1).varint(2, 2))
	p.msg(1, (&pb{}).varint(1, 3).varint(2, 4))
	// Functions 1..14 named by string index 1..14 (only 5..14 used).
	for id := uint64(5); id <= 14; id++ {
		p.msg(5, (&pb{}).varint(1, id).varint(2, id))
	}
	loc := func(id uint64, fns ...uint64) {
		m := (&pb{}).varint(1, id)
		for _, f := range fns {
			m.msg(4, (&pb{}).varint(1, f))
		}
		p.msg(4, m)
	}
	loc(1, 5)    // math.Exp
	loc(2, 6, 7) // phy.BER inlined into mac.DataRateFor
	loc(3, 8)    // crypto/sha1.block
	loc(4, 9)    // crypto80211.PBKDF2
	loc(5, 10)   // telemetry/stream
	loc(6, 11)   // runtime.scanobject
	loc(7, 12)   // runtime.gcBgMarkWorker
	loc(8, 13)   // main.main
	loc(9, 14)   // runtime.mallocgc
	loc(10, 7)   // mac.DataRateFor, not inlined
	sample := func(ns uint64, locs ...uint64) {
		p.msg(2, (&pb{}).bytes(1, packed(locs...)).bytes(2, packed(1, ns)))
	}
	sample(100, 1, 2, 8) // math under phy (inlined into mac) → phy
	sample(40, 3, 4, 8)  // sha1 under crypto80211 → crypto80211
	sample(7, 5, 8)      // telemetry/stream → telemetry
	sample(20, 6, 7)     // GC worker → gc
	sample(3, 9, 8)      // runtime outside any module → other
	sample(11, 9, 10, 8) // allocation under mac → mac
	// One sample with unpacked (non-packed) location ids.
	s := (&pb{}).varint(1, 1).varint(1, 2).bytes(2, packed(1, 5))
	p.msg(2, s) // → phy
	for _, str := range strs {
		p.bytes(6, []byte(str))
	}
	if !gz {
		return p.b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	zw.Close()
	return buf.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	for _, gz := range []bool{false, true} {
		prof, err := parseProfile(syntheticProfile(gz))
		if err != nil {
			t.Fatalf("gzip=%v: %v", gz, err)
		}
		got := prof.fold()
		want := map[string]int64{
			"phy": 105, "crypto80211": 40, "telemetry": 7,
			"gc": 20, "other": 3, "mac": 11,
		}
		if len(got) != len(want) {
			t.Errorf("gzip=%v: folded %v, want %v", gz, got, want)
		}
		for m, ns := range want {
			if got[m] != ns {
				t.Errorf("gzip=%v: %s = %d ns, want %d (all: %v)", gz, m, got[m], ns, got)
			}
		}
		rows := shareTable(got)
		if rows[0].module != "phy" || rows[0].share < 0.56 || rows[0].share > 0.57 {
			t.Errorf("top row %+v, want phy at 105/186", rows[0])
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0x0a, 0x05, 0x01}, {0x0b}, {0xff}} {
		if _, err := parseProfile(b); err == nil {
			t.Errorf("parseProfile(% x) accepted garbage", b)
		}
	}
}

// TestFoldRuntimeProfile checks the decoder against the runtime's own
// encoding: a profile of a loop inside phy must fold mostly to phy.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	sink := 0.0
	for start := now(); now().Sub(start) < 400*time.Millisecond; {
		for r := 0; r < 8; r++ {
			sink += phy.BER(phy.HTRate(r), 12)
		}
	}
	pprof.StopCPUProfile()
	_ = sink
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	folded := prof.fold()
	var total int64
	for _, ns := range folded {
		total += ns
	}
	if total == 0 {
		t.Skip("no CPU samples taken")
	}
	if share := float64(folded["phy"]) / float64(total); share < 0.5 {
		t.Errorf("phy share %.2f of %v, want most of it", share, folded)
	}
}
