// Package serve is the politewifid control plane: a deterministic
// job-serving daemon for wardrive campaigns. It accepts the same job
// specs as the one-shot CLIs (internal/jobspec), runs them as
// cancellable, resumable jobs over one bounded global stop-level
// world.Pool — the same FIFO executor world.Run builds privately for a
// one-shot drive — and streams each drive's flight-recorder NDJSON
// live over chunked HTTP.
//
// The service inherits the simulator's determinism wholesale: a job's
// stream bytes are identical to `politewifi wardrive -stream` with the
// same spec at any worker count, because stops execute on pre-forked
// RNGs and merge in street order no matter which pool worker ran them
// when.
// Concurrent jobs multiplex the pool without perturbing each other,
// and a client disconnecting mid-stream only detaches that reader —
// the job's census and verdicts cannot change.
//
// Endpoints (all JSON unless noted):
//
//	POST /api/v1/jobs              submit a jobspec; 201, or 429 +
//	                               Retry-After when the queue is full
//	GET  /api/v1/jobs              list jobs in submission order
//	GET  /api/v1/jobs/{id}         job status
//	POST /api/v1/jobs/{id}/cancel  cooperative stop (bounded by the
//	                               stops in flight)
//	POST /api/v1/jobs/{id}/resume  continue a cancelled drive from its
//	                               last completed stop
//	GET  /api/v1/jobs/{id}/stream  live NDJSON flight-recorder tape
//	                               (replay + tail; drive jobs only)
//	GET  /api/v1/jobs/{id}/result  final rendered report (text)
//	GET  /healthz                  liveness
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"politewifi/internal/experiments"
	"politewifi/internal/jobspec"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// Config parameterises the daemon.
type Config struct {
	// PoolWorkers sizes the one global stop-level pool every job's
	// simulation runs on. 0 means GOMAXPROCS.
	PoolWorkers int
	// MaxActive bounds how many jobs multiplex the pool concurrently.
	// 0 means 2.
	MaxActive int
	// QueueDepth bounds the FIFO of accepted-but-not-yet-active jobs.
	// A submit that finds the queue full is refused with 429 and a
	// Retry-After hint. 0 means 8.
	QueueDepth int
	// Now supplies job timestamps. The simulation itself never reads
	// wall time (the repo's injected-clock rule); the daemon only
	// stamps lifecycle transitions for operators. nil leaves
	// timestamps empty.
	Now func() time.Time
}

// Server is the politewifid daemon core. It implements http.Handler;
// cmd/politewifid wraps it in an http.Server.
type Server struct {
	cfg  Config
	pool *world.Pool
	mux  *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []*Job
	nextID  int
	closing bool

	queue      chan *Job
	schedulers sync.WaitGroup
}

// New starts the scheduler and pool and returns the ready daemon.
// Call Shutdown to stop it.
func New(cfg Config) *Server {
	if cfg.PoolWorkers <= 0 {
		cfg.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	s := &Server{
		cfg:   cfg,
		pool:  world.NewPool(cfg.PoolWorkers),
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueDepth),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/resume", s.handleResume)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	for i := 0; i < cfg.MaxActive; i++ {
		s.schedulers.Add(1)
		go s.schedule()
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) now() time.Time {
	if s.cfg.Now == nil {
		return time.Time{}
	}
	return s.cfg.Now()
}

// schedule is one active-job slot: it drains the FIFO queue until
// Shutdown closes it. MaxActive slots run in parallel, so at most
// MaxActive jobs multiplex the pool at once and queued jobs start in
// submission order.
func (s *Server) schedule() {
	defer s.schedulers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job (or one resumed leg of it) to completion or
// cancellation. It is the only writer of job results.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	cancel := j.cancel
	prev := j.result
	j.state = StateRunning
	j.started = s.now()
	j.mu.Unlock()

	// The spec was validated at submission; a failure here would mean
	// the spec mutated, which nothing does.
	cfg, err := j.Spec.WorldConfig()
	if err != nil {
		panic(fmt.Sprintf("serve: job %s spec invalidated after admission: %v", j.ID, err))
	}
	cfg.Cancel = cancel
	cfg.Submit = s.pool.Submit

	switch j.Spec.Kind {
	case jobspec.KindLossSweep:
		// Sweeps render a table per loss rate; no flight recorder (the
		// fold invariants hold per drive, not across rates) and no
		// cross-resume state — a cancelled sweep reports the rates it
		// completed.
		sw := experiments.LossSweep(cfg, j.Spec.Rates)
		j.mu.Lock()
		j.sweep = sw
		if sw.Cancelled {
			j.state = StateCancelled
		} else {
			j.state = StateDone
		}
		j.finished = s.now()
		j.mu.Unlock()

	default: // drive
		if prev != nil {
			// A resumed drive continues the tape handleResume reopened:
			// prime the run so its records carry the right running
			// totals.
			cfg.StartStop = prev.StopsDone
			cfg.ResumeTotals = prev.StreamTotals()
		}
		cfg.Metrics = j.metrics
		cfg.Stream = stream.NewWriter(j.buf)
		res := world.Run(cfg)
		j.mu.Lock()
		if prev != nil {
			prev.Merge(res)
		} else {
			j.result = res
		}
		if j.result.Cancelled {
			j.state = StateCancelled
		} else {
			j.state = StateDone
		}
		j.finished = s.now()
		// Finish the tape before the state change is visible: a resume
		// that sees StateCancelled reopens the tape, and a finish
		// landing after that would end the resumed tape early.
		j.buf.finish()
		j.mu.Unlock()
	}
}

// Shutdown stops the daemon: refuses new submissions, cancels every
// job cooperatively, waits for active jobs to drain (each finishes
// within the stops it has in flight), then stops the pool. It returns
// an error if the drain outlives the context; the scheduler keeps
// draining in the background regardless.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		close(s.queue)
	}
	all := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range all {
		j.requestCancel()
	}
	done := make(chan struct{})
	go func() {
		s.schedulers.Wait()
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown still draining jobs")
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfterSeconds turns a queue backlog into a Retry-After hint.
// The backlog is sampled with len() after the failed send, so a
// concurrent drain can race it down to zero — and "Retry-After: 0"
// tells a well-behaved client to hammer the daemon immediately. Clamp
// to at least one second.
func retryAfterSeconds(backlog int) int {
	if backlog < 1 {
		return 1
	}
	return backlog
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := jobspec.Decode(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return
	}
	j := newJob(fmt.Sprintf("job-%d", s.nextID+1), spec, s.now())
	select {
	case s.queue <- j:
	default:
		// Backpressure: the FIFO is full. The hint scales with the
		// backlog — jobs ahead of the caller must drain first.
		backlog := len(s.queue)
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(backlog)))
		writeErr(w, http.StatusTooManyRequests, "job queue full (%d waiting); retry later", backlog)
		return
	}
	s.nextID++
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusCreated, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(all))
	for _, j := range all {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// job resolves {id}; on miss it writes 404 and returns nil.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if j.Spec.Kind != jobspec.KindDrive {
		writeErr(w, http.StatusConflict, "job %s: only drive jobs resume (a sweep's points are independent drives)", j.ID)
		return
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return
	}
	j.mu.Lock()
	if j.state != StateCancelled {
		st := j.state
		j.mu.Unlock()
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "job %s is %s; only cancelled jobs resume", j.ID, st)
		return
	}
	// Arm a fresh cancel signal for the resumed leg and requeue.
	j.cancel = make(chan struct{})
	j.cancelOnce = new(sync.Once)
	j.state = StateQueued
	select {
	case s.queue <- j:
		// Reopen the tape before answering, so a reader that connects
		// while the leg waits for an active slot tails the resumed
		// drive instead of replaying the cancelled tape to EOF.
		// runJob cannot start the leg before j.mu is released, so the
		// tape is ready by then.
		j.buf.reopen()
		j.mu.Unlock()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.status())
	default:
		j.state = StateCancelled
		backlog := len(s.queue)
		j.mu.Unlock()
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(backlog)))
		writeErr(w, http.StatusTooManyRequests, "job queue full (%d waiting); retry later", backlog)
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if j.buf == nil {
		writeErr(w, http.StatusConflict, "job %s is a %s; only drive jobs stream", j.ID, j.Spec.Kind)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	// Replay the tape from the start, then tail live until the job
	// finishes or the client hangs up. Either way the job itself is
	// untouched — the tape is append-only and the drive never sees its
	// readers.
	_ = j.buf.streamTo(r.Context(), w, flush)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	text, err := j.render()
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}
