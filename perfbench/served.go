package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"politewifi/internal/experiments"
	"politewifi/internal/jobspec"
	"politewifi/internal/serve"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// servedScale sizes each job's drive: small, so per-job overhead
// (HTTP, per-stop telemetry snapshots and NDJSON lines, the tape, the
// FIFO pool) is a large share of the job.
const servedScale = 0.02

// servedFaults cycles the job specs between pristine and faulted
// channels ("" = pristine).
var servedFaults = []string{"", "loss=0.2,ack=0.05", "", "jam=0.2,deaf=0.1"}

// servedSpecs is how many job specs (cities) the clients cycle
// through; small cities vary in cost, so several keep a run's job
// latency from leaning on a few.
const servedSpecs = 8

// servedBatch is how many jobs one daemon instance serves before the
// benchmark replaces it. The daemon keeps every job's tape and result
// for its lifetime, so a fixed batch keeps peak memory independent of
// how many jobs a run manages to complete.
const servedBatch = 48

// servedRef is one job spec with its one-shot reference outputs.
type servedRef struct {
	body   []byte // the spec as the submit request's JSON body
	stream []byte // `wardrive -stream` bytes for the spec
	result string // the census report the CLI prints
	counts detCounters
}

// servedSession drives politewifid in-process over loopback HTTP with
// nproc closed-loop clients.
type servedSession struct {
	clients int
	refs    []servedRef
	http    *http.Client
	d       *daemon
	next    atomic.Int64 // job counter, cycles through refs
}

func setupServed(seed int64) (session, error) {
	n := runtime.NumCPU()
	s := &servedSession{clients: n}
	for k := 0; k < servedSpecs; k++ {
		spec := jobspec.Drive()
		spec.Seed = deriveSeed(seed, k)
		spec.Scale = servedScale
		spec.Faults = servedFaults[k%len(servedFaults)]
		ref, err := oneShot(spec)
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, ref)
	}
	s.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
	}}
	d, err := startDaemon(n, s.http)
	if err != nil {
		return nil, err
	}
	s.d = d
	return s, nil
}

// oneShot runs spec the way the wardrive CLI does with -stream and
// returns the bytes every daemon job for the spec must reproduce.
func oneShot(spec jobspec.Spec) (servedRef, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return servedRef{}, err
	}
	cfg, err := spec.WorldConfig()
	if err != nil {
		return servedRef{}, err
	}
	reg := telemetry.NewRegistry(nil)
	var buf bytes.Buffer
	cfg.Metrics = reg
	cfg.Stream = stream.NewWriter(&buf)
	cfg.Workers = runtime.NumCPU()
	res := world.Run(cfg)
	if err := cfg.Stream.Err(); err != nil {
		return servedRef{}, err
	}
	ref := servedRef{body: body, stream: buf.Bytes(), result: experiments.Table2FromResult(res).Render()}
	ref.counts.fromReport(reg.Snapshot())
	ref.counts.StreamBytes = uint64(buf.Len())
	return ref, nil
}

// daemon is one politewifid instance behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
}

// startDaemon starts the daemon with its pool sized to nproc and
// returns once /healthz answers.
func startDaemon(nproc int, client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    serve.New(serve.Config{PoolWorkers: nproc, MaxActive: nproc, Now: now}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: client,
	}
	// Stream responses last a whole job, so no write timeout.
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := errors.Join(d.hs.Shutdown(ctx), d.srv.Shutdown(ctx)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: served: daemon shutdown:", err)
	}
	<-d.served
	d.client.CloseIdleConnections()
}

// run serves batches of jobs until the deadline; nproc clients each
// submit a job, read its stream to EOF, fetch its result and status,
// then submit the next.
func (s *servedSession) run(until time.Time, tr *tracer) phase {
	var p phase
	var mu sync.Mutex
	for len(p.ops) == 0 || now().Before(until) {
		if s.d == nil {
			d, err := startDaemon(s.clients, s.http)
			if err != nil {
				p.ops = append(p.ops, opResult{err: fmt.Errorf("served: start daemon: %w", err)})
				return p
			}
			s.d = d
		}
		var started atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < s.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for started.Add(1) <= servedBatch {
					k := int(s.next.Add(1)-1) % len(s.refs)
					o, t := s.job(k, tr)
					mu.Lock()
					p.ops = append(p.ops, o)
					if o.err == nil {
						p.add("first_record_s", t.firstRecord)
						p.add("submit_s", t.submit)
						p.add("queue_wait_s", t.queueWait)
					}
					mu.Unlock()
					if !now().Before(until) {
						return
					}
				}
			}()
		}
		wg.Wait()
		s.d.stop()
		s.d = nil
	}
	return p
}

type jobTimes struct{ submit, firstRecord, queueWait float64 }

// job runs one client job against the current daemon and checks its
// outputs against the one-shot references. The operation's wall time
// runs from submit to stream EOF.
func (s *servedSession) job(k int, tr *tracer) (opResult, jobTimes) {
	ref := s.refs[k]
	o := opResult{key: fmt.Sprintf("spec%d", k)}
	var t jobTimes
	jobSpan, endJob := tr.start("serve.job", 0)
	defer endJob()
	t0 := now()

	var st serve.Status
	if err := s.call(tr, jobSpan, "http.submit", http.MethodPost, "/api/v1/jobs", ref.body, http.StatusCreated, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	}); err != nil {
		o.err, o.wall = err, now().Sub(t0)
		return o, t
	}
	t.submit = now().Sub(t0).Seconds()

	var got []byte
	err := s.call(tr, jobSpan, "http.stream", http.MethodGet, "/api/v1/jobs/"+st.ID+"/stream", nil, http.StatusOK, func(r io.Reader) error {
		br := bufio.NewReader(r)
		first, err := br.ReadBytes('\n')
		t.firstRecord = now().Sub(t0).Seconds()
		if err != nil {
			return fmt.Errorf("first record: %w", err)
		}
		rest, err := io.ReadAll(br)
		got = append(first, rest...)
		return err
	})
	o.wall = now().Sub(t0)
	if err != nil {
		o.err = err
		return o, t
	}
	o.digest = digest(got)
	if !bytes.Equal(got, ref.stream) {
		o.err = fmt.Errorf("served: job %s stream (%d bytes) differs from the one-shot stream (%d bytes)", st.ID, len(got), len(ref.stream))
		return o, t
	}

	if err := s.call(tr, jobSpan, "http.result", http.MethodGet, "/api/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if err == nil && string(b) != ref.result {
			err = fmt.Errorf("served: job %s result differs from the one-shot census", st.ID)
		}
		return err
	}); err != nil {
		o.err = err
		return o, t
	}

	if err := s.call(tr, jobSpan, "http.status", http.MethodGet, "/api/v1/jobs/"+st.ID, nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	}); err != nil {
		o.err = err
		return o, t
	}
	sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	start, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	if err := errors.Join(err1, err2); err != nil {
		o.err = fmt.Errorf("served: job %s timestamps: %w", st.ID, err)
		return o, t
	}
	t.queueWait = start.Sub(sub).Seconds()
	return o, t
}

// call makes one HTTP request under a span and hands the body to
// read; any status other than want (a refusal such as 429 included)
// is an error.
func (s *servedSession) call(tr *tracer, parent int, name, method, path string, body []byte, want int, read func(io.Reader) error) error {
	_, end := tr.start(name, parent)
	defer end()
	req, err := http.NewRequest(method, s.d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return fmt.Errorf("served: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("served: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	io.Copy(io.Discard, resp.Body)
	return err
}

// counters are the references' counters averaged over the spec cycle:
// every job reproduces its reference byte for byte, so they are
// exactly what the daemon's jobs did.
func (s *servedSession) counters() (detCounters, error) {
	var c detCounters
	var digests [][]byte
	n := uint64(len(s.refs))
	for _, r := range s.refs {
		c.EventsFired += r.counts.EventsFired
		c.Transmissions += r.counts.Transmissions
		c.Deliveries += r.counts.Deliveries
		c.Acks += r.counts.Acks
		c.ProbesInjected += r.counts.ProbesInjected
		c.Injected += r.counts.Injected
		c.InjectDrops += r.counts.InjectDrops
		c.FaultsConsulted += r.counts.FaultsConsulted
		c.StreamBytes += r.counts.StreamBytes
		digests = append(digests, r.stream, []byte(r.result))
	}
	for _, p := range []*uint64{&c.EventsFired, &c.Transmissions, &c.Deliveries, &c.Acks,
		&c.ProbesInjected, &c.Injected, &c.InjectDrops, &c.FaultsConsulted, &c.StreamBytes} {
		*p /= n
	}
	c.Digest = digest(digests...)
	return c, nil
}

func (s *servedSession) close() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
	s.http.CloseIdleConnections()
}
