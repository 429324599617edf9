package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// The benchmark measures host time, which the simulator itself never
// reads; every wall-clock read in the benchmark goes through now.

//politevet:allow wallclock(the benchmark times host work from outside the simulation)
func now() time.Time { return time.Now() }

// cpuTime is the process's user+sys CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the peak-RSS high-water mark, so that each
// workload of a multi-workload run reports its own peak. Linux only;
// elsewhere the peak stays cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// span is one timed call the benchmark made into a module's public
// API. Times are nanoseconds since the tracer started; Parent is 0
// for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced phases pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: now()} }

// start opens a span under parent and returns its ID, for children,
// and the function that ends it.
func (t *tracer) start(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(now().Sub(t.origin))})
	t.mu.Unlock()
	return id, func() {
		end := int64(now().Sub(t.origin))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// named returns the durations, in seconds, of every finished span
// called name.
func (t *tracer) named(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.seconds())
		}
	}
	return out
}

// writeJSON writes every span as one JSON array.
func (t *tracer) writeJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.NewEncoder(w).Encode(t.spans)
}

// stopPool is the span-recording executor handed to world.Config.Submit
// in traced drives: n workers that start tasks in submission order
// (the FIFO contract Submit requires) and record one span per stop,
// under the world.Run span parent. One pool serves one Run.
type stopPool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

func newStopPool(n int, tr *tracer, parent int) *stopPool {
	p := &stopPool{tasks: make(chan func())}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				_, end := tr.start("world.stop", parent)
				task()
				end()
			}
		}()
	}
	return p
}

// Submit blocks until a worker takes the task, so tasks start FIFO.
func (p *stopPool) Submit(task func()) { p.tasks <- task }

// Close stops the workers once they finish their tasks.
func (p *stopPool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
