package eventsim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestBoundaryTieFIFO pins the same-instant FIFO rule across what were
// coarse-level boundaries of the retired timing wheel (1.024 µs ticks,
// 256 slots per level). X is scheduled first for tick 512, far enough
// ahead to sit in a coarse level; an event at tick 400 then schedules Y
// for the same instant from close range. X must still fire first.
func TestBoundaryTieFIFO(t *testing.T) {
	const tick = 1024 * Nanosecond
	for _, c := range []struct{ at, mid Time }{
		{512 * tick, 400 * tick},
		{256 * tick, 200 * tick},
		{65536 * tick, 65500 * tick},
		{512*tick + 7, 400*tick + 3},
	} {
		s := NewScheduler()
		var got []string
		s.Schedule(c.at, func() { got = append(got, "X") })
		s.Schedule(c.mid, func() {
			s.Schedule(c.at, func() { got = append(got, "Y") })
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "X" || got[1] != "Y" {
			t.Fatalf("at=%d mid=%d: fire order %v, want [X Y]", c.at, c.mid, got)
		}
	}
}

// TestFireOrderMatchesSort checks the scheduler against the only
// oracle it needs: every event that was not cancelled fires exactly
// once, at its (clamped) time, in the order of a plain sort by
// (time, scheduling sequence). Delays span same-instant ties through
// sub-µs, SIFS, beacon and multi-hour horizons, plus ties with an
// earlier event's instant scheduled from closer range; firings schedule
// more work and cancel pending handles at random.
func TestFireOrderMatchesSort(t *testing.T) {
	type rec struct {
		at        Time
		seq       int
		cancelled bool
	}
	for trial := 0; trial < 50; trial++ {
		src := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		s := NewScheduler()
		var recs []rec
		var handles []Handle
		var fired []int
		var step func()
		schedule := func() {
			var d Time
			switch src.Intn(7) {
			case 0: // same-instant tie
				d = 0
			case 6: // tie with an earlier event, scheduled from closer range
				if len(recs) > 0 {
					if at := recs[src.Intn(len(recs))].at; at >= s.Now() {
						d = at - s.Now()
					}
				}
			case 1: // sub-µs
				d = Time(src.Intn(int(Microsecond)))
			case 2: // SIFS/slot scale
				d = Time(src.Intn(int(Millisecond)))
			case 3: // beacon/dwell scale
				d = Time(src.Intn(int(Second)))
			case 4: // minutes
				d = Time(src.Int63n(int64(600 * Second)))
			default: // hours ahead
				d = Time(src.Int63n(int64(5 * 3600 * Second)))
			}
			id := len(recs)
			recs = append(recs, rec{at: s.Now() + d, seq: id})
			handles = append(handles, s.After(d, func() {
				if s.Now() != recs[id].at {
					t.Fatalf("trial %d: event %d fired at %v, scheduled for %v", trial, id, s.Now(), recs[id].at)
				}
				fired = append(fired, id)
				step()
			}))
		}
		step = func() {
			for k := src.Intn(4); k > 0 && len(recs) < 4000; k-- {
				schedule()
			}
			if len(handles) > 0 && src.Intn(3) == 0 {
				i := src.Intn(len(handles))
				if handles[i].Valid() {
					recs[i].cancelled = true
				}
				handles[i].Cancel()
			}
		}
		for i := 0; i < 8; i++ {
			schedule()
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var want []rec
		for _, r := range recs {
			if !r.cancelled {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i].seq {
				t.Fatalf("trial %d: fire order diverges at %d: got event %d, want %d", trial, i, fired[i], want[i].seq)
			}
		}
		if s.Len() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, s.Len())
		}
	}
}
