package world

import (
	"bytes"
	"reflect"
	"testing"

	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
)

// TestSchedStatsOptIn pins the SchedStats contract: off (the zero
// value, what every golden artifact is recorded under) must register
// no wall-clock scheduler gauges anywhere — TestStreamGolden then
// guarantees the stream stays bit-exact — while on must surface
// sched.events_per_sec and sched.event_ns in the merged report
// without perturbing the census. The on-mode stream deliberately
// carries the host-dependent gauges (that is the documented trade:
// opting in forfeits byte-reproducible artifacts).
func TestSchedStatsOptIn(t *testing.T) {
	drive := func(stats bool) (*Result, telemetry.Report) {
		cfg := parallelTestConfig()
		cfg.SchedStats = stats
		cfg.Workers = 2
		cfg.Metrics = telemetry.NewRegistry(nil)
		var buf bytes.Buffer
		cfg.Stream = stream.NewWriter(&buf)
		res := Run(cfg)
		return res, cfg.Metrics.Snapshot()
	}

	// The two wall-derived instruments (sched.queue_high_water is
	// sim-deterministic and always present; it is not part of this
	// contract).
	wallGauges := []string{"sched.events_per_sec", "sched.event_ns"}
	gauges := func(rep telemetry.Report) map[string]bool {
		out := make(map[string]bool)
		for _, g := range rep.Gauges {
			for _, w := range wallGauges {
				if g.Name == w {
					out[g.Name] = true
				}
			}
		}
		return out
	}

	offRes, offRep := drive(false)
	onRes, onRep := drive(true)

	if g := gauges(offRep); len(g) != 0 {
		t.Fatalf("SchedStats=false registered scheduler wall-clock gauges: %v", g)
	}
	g := gauges(onRep)
	for _, want := range wallGauges {
		if !g[want] {
			t.Fatalf("SchedStats=true did not register %s (got %v)", want, g)
		}
	}
	// Metering reads the wall clock around the sim loop, never inside
	// it: the census must be untouched by the flag.
	if !reflect.DeepEqual(offRes, onRes) {
		t.Fatalf("SchedStats perturbed the drive:\noff: %+v\non:  %+v", offRes, onRes)
	}
}
