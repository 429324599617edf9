// Package stream is the flight recorder: a deterministic NDJSON
// pipeline that emits one record per completed wardrive stop — stop
// index, sim-time window, census delta, and a per-stop telemetry
// delta report — while the drive is still running.
//
// The stream is the incremental counterpart of the end-of-run
// artifacts: records are written in stop-index order regardless of
// worker count (the coordinator reorders shard completions before
// emitting), so the byte stream for a fixed seed is identical at any
// -workers value; and the per-stop telemetry deltas are complete, so
// folding every record's report with telemetry.RestoreRegistry +
// Registry.MergeFrom reproduces the final Snapshot() exactly. Those
// two properties make the stream safe to checkpoint, diff, tail, and
// serve — it is the producer interface a politewifid service tier
// consumes.
package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"politewifi/internal/telemetry"
)

// Schema identifies the stream record encoding; bump on breaking
// changes to the JSON layout.
const Schema = "politewifi.telemetry.stream/v1"

// Census is a verdict-bucketed device count. In a Record it appears
// twice: Census holds this stop's delta, Totals the running
// cumulative sum — so a consumer can render progress without
// replaying the stream from the start.
type Census struct {
	Clients          int `json:"clients"`
	APs              int `json:"aps"`
	ClientsResponded int `json:"clients_responded"`
	APsResponded     int `json:"aps_responded"`
	Silent           int `json:"silent"`
	Inconclusive     int `json:"inconclusive"`
}

// Add folds another census into c.
func (c *Census) Add(o Census) {
	c.Clients += o.Clients
	c.APs += o.APs
	c.ClientsResponded += o.ClientsResponded
	c.APsResponded += o.APsResponded
	c.Silent += o.Silent
	c.Inconclusive += o.Inconclusive
}

// Devices reports the total devices in the census.
func (c Census) Devices() int { return c.Clients + c.APs }

// Record is one NDJSON line of the stream: everything one completed
// stop contributed to the drive.
type Record struct {
	Schema string `json:"schema"`
	// Stop is the 0-based stop index; records are emitted in strictly
	// increasing Stop order with no gaps.
	Stop  int `json:"stop"`
	Stops int `json:"stops"`
	// SimStartNS/SimEndNS bound the stop's own virtual-time window
	// (every stop starts its scheduler at zero).
	SimStartNS int64 `json:"sim_start_ns"`
	SimEndNS   int64 `json:"sim_end_ns"`
	// Census is this stop's delta; Totals is cumulative through this
	// stop.
	Census Census `json:"census"`
	Totals Census `json:"totals"`
	// Telemetry is the stop's delta registry snapshot; nil when the
	// drive runs without metrics. Folding every record's Telemetry
	// with telemetry.RestoreRegistry + MergeFrom reproduces the final
	// merged report exactly.
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
	// Cancelled marks a trailer record: a cooperatively cancelled
	// drive drains its workers and then emits one final record with
	// Cancelled true, a zero Census delta, the final Totals, and Stop
	// equal to the number of stops actually completed — so a consumer
	// can tell a deliberate partial drive from a severed pipe. An
	// uncancelled drive never sets the field, keeping its byte stream
	// identical to one produced before the field existed.
	Cancelled bool `json:"cancelled,omitempty"`
}

// IsTrailer reports whether the record is a cancellation trailer
// rather than a completed stop.
func (r Record) IsTrailer() bool { return r.Cancelled }

// Trailer builds the cancellation trailer for a drive that completed
// stopsDone of stops with the given final totals.
func Trailer(stopsDone, stops int, totals Census) Record {
	return Record{
		Schema:    Schema,
		Stop:      stopsDone,
		Stops:     stops,
		Totals:    totals,
		Cancelled: true,
	}
}

// Writer emits records as NDJSON. A nil *Writer is a valid no-op, so
// the world loop writes unconditionally. The first underlying write
// error latches: subsequent Writes become no-ops and the error is
// reported by Err() — a consumer disconnecting mid-stream must never
// affect the drive result.
type Writer struct {
	mu    sync.Mutex
	w     io.Writer
	err   error
	count int
}

// NewWriter wraps w as a stream writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Write emits one record as a single NDJSON line. Errors latch; the
// caller may ignore the return value and check Err() at drive end.
func (sw *Writer) Write(rec Record) error {
	if sw == nil {
		return nil
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		sw.err = err
		return err
	}
	buf = append(buf, '\n')
	if _, err := sw.w.Write(buf); err != nil {
		sw.err = err
		return err
	}
	sw.count++
	return nil
}

// Err reports the latched write error, if any.
func (sw *Writer) Err() error {
	if sw == nil {
		return nil
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.err
}

// Count reports how many records were successfully written.
func (sw *Writer) Count() int {
	if sw == nil {
		return 0
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.count
}

// PosError is a decode or fold failure pinned to its position in the
// stream: the 0-based index of the record being processed and the
// byte offset the decoder had reached. A consumer recovering a
// truncated flight-recorder file can report — and resume from —
// exactly the damage, instead of panicking or folding a silent
// partial aggregate.
type PosError struct {
	Record int   // 0-based index of the record being decoded
	Offset int64 // byte offset into the stream where decoding stopped
	Err    error
}

func (e *PosError) Error() string {
	return fmt.Sprintf("stream: record %d (byte offset %d): %v", e.Record, e.Offset, e.Err)
}

func (e *PosError) Unwrap() error { return e.Err }

// Decoder reads a stream record-by-record — from a file or a live
// pipe (it returns records as soon as complete lines arrive).
type Decoder struct {
	dec *json.Decoder
	n   int // records decoded so far
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{dec: json.NewDecoder(r)}
}

// Next decodes the next record; io.EOF at clean end of stream. Every
// other failure — a record chopped mid-line, corrupted JSON, a wrong
// schema — is returned as a *PosError carrying the record index and
// byte offset. The record's schema is validated.
func (d *Decoder) Next() (Record, error) {
	var rec Record
	if err := d.dec.Decode(&rec); err != nil {
		if errors.Is(err, io.EOF) {
			// A clean EOF means the stream ended on a record boundary.
			// EOF inside a record means the tail was chopped — report
			// where, rather than pretending the stream ended cleanly.
			return Record{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("truncated record: %w", err)
		}
		return Record{}, &PosError{Record: d.n, Offset: d.dec.InputOffset(), Err: err}
	}
	if rec.Schema != Schema {
		return Record{}, &PosError{
			Record: d.n, Offset: d.dec.InputOffset(),
			Err: fmt.Errorf("record schema %q (want %q)", rec.Schema, Schema),
		}
	}
	d.n++
	return rec, nil
}

// Decoded reports how many records Next has returned successfully.
func (d *Decoder) Decoded() int { return d.n }

// Offset reports the byte offset the decoder has consumed.
func (d *Decoder) Offset() int64 { return d.dec.InputOffset() }

// FoldResult is the aggregate of a full stream: the final census and
// the telemetry registry rebuilt by folding every per-stop delta.
type FoldResult struct {
	Stops   int
	Records int
	Totals  Census
	// Cancelled records whether the stream ended with a cancellation
	// trailer — a deliberately partial drive, as opposed to a severed
	// pipe (Records < Stops with no trailer).
	Cancelled bool
	// Registry is the fold of every record's Telemetry delta; its
	// Snapshot() must equal the drive's final merged report. Nil when
	// the stream carried no telemetry.
	Registry *telemetry.Registry
}

// Folder folds a stream record-by-record. It is the one fold
// implementation — Fold, `politewifi tail -fold`, and the politewifid
// job endpoints all feed records through it — validating the stream's
// integrity as it goes: contiguous 0-based stop indexes, consistent
// stop totals, running Totals matching the summed deltas, no records
// after a cancellation trailer, and per-stop telemetry deltas that
// restore cleanly and merge without conflicting instrument shapes. A
// corrupted record is a positioned error, never a panic or a silent
// partial fold.
type Folder struct {
	res FoldResult
}

// NewFolder returns an empty folder.
func NewFolder() *Folder { return &Folder{} }

// Add folds one record. The error, if any, identifies the offending
// record by stop index; Add must not be called again after an error.
func (f *Folder) Add(rec Record) error {
	res := &f.res
	if res.Cancelled {
		return fmt.Errorf("stream: record after cancellation trailer (stop index %d)", rec.Stop)
	}
	if rec.IsTrailer() {
		if rec.Stop != res.Records {
			return fmt.Errorf("stream: trailer claims %d completed stops but %d records were folded", rec.Stop, res.Records)
		}
		if rec.Totals != res.Totals {
			return fmt.Errorf("stream: trailer totals %+v do not match summed deltas %+v", rec.Totals, res.Totals)
		}
		res.Cancelled = true
		return nil
	}
	if rec.Stop != res.Records {
		return fmt.Errorf("stream: record %d has stop index %d (stream not contiguous)", res.Records, rec.Stop)
	}
	if res.Records == 0 {
		res.Stops = rec.Stops
	} else if rec.Stops != res.Stops {
		return fmt.Errorf("stream: stop %d reports %d total stops (earlier records said %d)", rec.Stop, rec.Stops, res.Stops)
	}
	res.Totals.Add(rec.Census)
	if rec.Totals != res.Totals {
		return fmt.Errorf("stream: stop %d running totals %+v do not match summed deltas %+v", rec.Stop, rec.Totals, res.Totals)
	}
	if rec.Telemetry != nil {
		shard, err := telemetry.RestoreRegistry(*rec.Telemetry)
		if err != nil {
			return fmt.Errorf("stream: stop %d: %w", rec.Stop, err)
		}
		if res.Registry == nil {
			res.Registry = telemetry.NewRegistry(nil)
		}
		// A delta whose instrument shapes conflict with the aggregate
		// (a histogram re-bucketed mid-stream by corruption) would
		// panic inside MergeFrom; surface it as a positioned error.
		if err := res.Registry.MergeableFrom(shard); err != nil {
			return fmt.Errorf("stream: stop %d: %w", rec.Stop, err)
		}
		res.Registry.MergeFrom(shard)
	}
	res.Records++
	return nil
}

// Result returns the fold so far. The pointee is owned by the folder;
// callers read it after the last Add.
func (f *Folder) Result() *FoldResult { return &f.res }

// Fold consumes an entire stream and folds it: census deltas sum, and
// each record's telemetry delta is restored and merged in order —
// the same MergeFrom path the live drive uses, so the folded
// registry's Snapshot() is byte-identical to the final report. A
// truncated or corrupted stream yields a *PosError naming the record
// index and byte offset of the damage.
func Fold(r io.Reader) (*FoldResult, error) {
	d := NewDecoder(r)
	f := NewFolder()
	for {
		rec, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := f.Add(rec); err != nil {
			return nil, &PosError{Record: d.Decoded() - 1, Offset: d.Offset(), Err: err}
		}
	}
	return f.Result(), nil
}
