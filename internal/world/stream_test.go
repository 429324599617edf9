package world

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"politewifi/internal/eventsim"
	"politewifi/internal/faults"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// streamTestFaults degrades the channel enough to exercise every
// verdict path and the sampled fault instruments in the stream.
func streamTestFaults() *faults.Config {
	return &faults.Config{
		PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0.02, LossBad: 0.4,
		ACKLoss: 0.2,
	}
}

// TestStreamByteIdenticalAcrossWorkers is the flight recorder's core
// guarantee: the NDJSON byte stream of a fixed seed is identical at
// every worker count, because records are emitted in stop-index order
// no matter which worker finished which stop when. Run under -race in
// CI, this also exercises the ordered merge path for data races.
func TestStreamByteIdenticalAcrossWorkers(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "pristine"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			run := func(workers int) (*Result, []byte, *telemetry.Registry) {
				cfg := parallelTestConfig()
				cfg.Workers = workers
				cfg.Metrics = telemetry.NewRegistry(nil)
				if faulted {
					cfg.Faults = streamTestFaults()
				}
				var buf bytes.Buffer
				cfg.Stream = stream.NewWriter(&buf)
				res := Run(cfg)
				if err := cfg.Stream.Err(); err != nil {
					t.Fatalf("stream writer error: %v", err)
				}
				return res, buf.Bytes(), cfg.Metrics
			}
			resSeq, seq, regSeq := run(1)
			resPar, par, _ := run(4)
			if !reflect.DeepEqual(resSeq, resPar) {
				t.Fatal("census diverged between worker counts")
			}
			if !bytes.Equal(seq, par) {
				t.Fatalf("stream bytes differ between Workers:1 and Workers:4 (%d vs %d bytes)",
					len(seq), len(par))
			}

			// Fold-equals-snapshot: restoring and merging every per-stop
			// delta must rebuild the final registry exactly.
			fold, err := stream.Fold(bytes.NewReader(seq))
			if err != nil {
				t.Fatal(err)
			}
			if fold.Records != resSeq.Stops || fold.Stops != resSeq.Stops {
				t.Fatalf("fold saw %d/%d records, drive had %d stops",
					fold.Records, fold.Stops, resSeq.Stops)
			}
			wantTotals := stream.Census{
				Clients: resSeq.ClientsDiscovered, APs: resSeq.APsDiscovered,
				ClientsResponded: resSeq.ClientsResponded, APsResponded: resSeq.APsResponded,
				Silent:       len(resSeq.NonResponders) - resSeq.Inconclusive,
				Inconclusive: resSeq.Inconclusive,
			}
			if fold.Totals != wantTotals {
				t.Fatalf("folded census %+v != drive census %+v", fold.Totals, wantTotals)
			}
			var folded, final bytes.Buffer
			if err := fold.Registry.Snapshot().WriteJSON(&folded); err != nil {
				t.Fatal(err)
			}
			if err := regSeq.Snapshot().WriteJSON(&final); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(folded.Bytes(), final.Bytes()) {
				t.Fatalf("folded stream deltas != final snapshot:\nfolded:\n%s\nfinal:\n%s",
					folded.String(), final.String())
			}
		})
	}
}

// TestStreamGolden pins the exact NDJSON bytes of a small seeded
// drive. Regenerate with: go test ./internal/world -run StreamGolden -update
func TestStreamGolden(t *testing.T) {
	cfg := Config{
		Seed:              7,
		Scale:             0.008,
		HouseholdsPerStop: 8,
		DwellPerChannel:   400 * eventsim.Millisecond,
		Workers:           2,
	}
	cfg.Metrics = telemetry.NewRegistry(nil)
	var buf bytes.Buffer
	cfg.Stream = stream.NewWriter(&buf)
	Run(cfg)

	golden := filepath.Join("testdata", "stream_golden.ndjson")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream diverged from golden (%d vs %d bytes); if the schema or "+
			"telemetry intentionally changed, regenerate with -update",
			buf.Len(), len(want))
	}
}

// failAfter errors once n bytes have been written — a consumer that
// hangs up mid-stream.
type failAfter struct {
	n       int
	written int
}

var errConsumerGone = errors.New("consumer disconnected")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written >= f.n {
		return 0, errConsumerGone
	}
	f.written += len(p)
	return len(p), nil
}

// TestStreamConsumerDisconnect severs the stream partway through the
// drive and asserts the census is unaffected: the writer latches the
// error and the drive finishes as if untapped.
func TestStreamConsumerDisconnect(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.Workers = 3
	want := Run(cfg)

	cfg2 := parallelTestConfig()
	cfg2.Workers = 3
	sink := &failAfter{n: 4096}
	cfg2.Stream = stream.NewWriter(sink)
	got := Run(cfg2)

	if !errors.Is(cfg2.Stream.Err(), errConsumerGone) {
		t.Fatalf("writer error = %v, want consumer disconnect", cfg2.Stream.Err())
	}
	if cfg2.Stream.Count() == 0 {
		t.Fatal("disconnect fired before any record was written; raise failAfter.n")
	}
	if cfg2.Stream.Count() >= want.Stops {
		t.Fatal("disconnect never fired; lower failAfter.n")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mid-stream disconnect changed the drive result")
	}
}

// TestProgressOrdered asserts the progress hook sees every stop
// exactly once, in order, with a monotone census, at any worker
// count.
func TestProgressOrdered(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.Workers = 4
	var seen []Progress
	cfg.Progress = func(p Progress) { seen = append(seen, p) }
	res := Run(cfg)
	if len(seen) != res.Stops {
		t.Fatalf("progress fired %d times for %d stops", len(seen), res.Stops)
	}
	prevDevices := -1
	for i, p := range seen {
		if p.Stop != i+1 || p.Stops != res.Stops {
			t.Fatalf("progress[%d] = %+v, want Stop=%d Stops=%d", i, p, i+1, res.Stops)
		}
		if p.Devices < prevDevices {
			t.Fatalf("device count went backwards at stop %d", p.Stop)
		}
		prevDevices = p.Devices
	}
	last := seen[len(seen)-1]
	if last.Devices != res.Total() || last.Responded != res.TotalResponded() {
		t.Fatalf("final progress %+v disagrees with result (%d devices, %d responded)",
			last, res.Total(), res.TotalResponded())
	}
}
