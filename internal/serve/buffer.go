package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// streamBuffer is a job's flight-recorder tape: an append-only byte
// buffer the drive writes NDJSON records into, with any number of
// concurrent readers replaying it from the start and then tailing
// live appends. The buffer fully decouples the drive from its
// consumers — a reader hanging up mid-stream just stops reading; the
// writer never sees it, so a disconnect can never alter the job's
// census or verdicts.
type streamBuffer struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on append, finish, and reopen
	buf  []byte
	done bool
}

func newStreamBuffer() *streamBuffer {
	b := &streamBuffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Write appends; it never fails, so the drive's stream.Writer never
// latches an error on account of a consumer.
func (b *streamBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.mu.Unlock()
	b.cond.Broadcast()
	return len(p), nil
}

// finish marks the tape complete: tailing readers drain and return.
func (b *streamBuffer) finish() {
	b.mu.Lock()
	b.done = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// reopen readies a cancelled tape for a resumed drive's appends: it
// drops the final NDJSON line — the cancellation trailer — so the
// resumed records append right after the last real stop record and
// the tape converges on the uncancelled drive's bytes, and it marks
// the tape unfinished so readers tail it. Both happen under one lock,
// so no reader sees the trimmed tape as finished.
func (b *streamBuffer) reopen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done = false
	if n := len(b.buf); n > 0 {
		cut := n - 1 // drop the trailing \n, then scan to the previous one
		for cut > 0 && b.buf[cut-1] != '\n' {
			cut--
		}
		b.buf = b.buf[:cut]
	}
	// Wake readers parked past the cut so they fail fast instead of
	// waiting for the resumed drive's first append.
	b.cond.Broadcast()
}

// snapshot copies the current contents.
func (b *streamBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf...)
}

// streamTo replays the tape into w from the beginning and then tails
// it, flushing after every write, until the tape finishes or ctx is
// cancelled (the reader hung up). The writer side is never affected
// by either outcome.
func (b *streamBuffer) streamTo(ctx context.Context, w io.Writer, flush func()) error {
	// A cancelled context must wake a tailing reader out of cond.Wait.
	stop := context.AfterFunc(ctx, b.cond.Broadcast)
	defer stop()
	off := 0
	for {
		b.mu.Lock()
		for off == len(b.buf) && !b.done && ctx.Err() == nil {
			b.cond.Wait()
		}
		if off > len(b.buf) {
			// The tape was trimmed for a resume while this reader was
			// past the cut; its view is no longer a prefix of the tape.
			b.mu.Unlock()
			return fmt.Errorf("stream rewound during resume; reconnect")
		}
		chunk := b.buf[off:len(b.buf):len(b.buf)]
		done := b.done
		b.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			if flush != nil {
				flush()
			}
			off += len(chunk)
			continue
		}
		if done {
			return nil
		}
	}
}
