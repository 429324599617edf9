package world

import "sync"

// Pool is the one stop-level executor: a fixed set of workers
// draining a FIFO task queue. Run builds a private Pool per drive
// unless Config.Submit hands it an external one; the politewifid
// daemon shares a single global Pool across every active job, so
// total simulation concurrency is bounded by the pool size no matter
// how many jobs are active — jobs multiplex, they do not multiply.
//
// FIFO start order is the contract Run depends on: within one drive,
// stop i's task is submitted before stop i+1's, so on cancellation the
// set of simulated stops is a contiguous prefix. Interleaving between
// jobs is irrelevant — per-stop RNGs are pre-forked and shards merge
// in stop order, so a shared pool produces byte-identical output to a
// private one.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a pool with n workers (n < 1 is clamped to 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			// Closed and drained.
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()
		task()
	}
}

// Submit enqueues a task. Tasks start in submission order. After
// Close, the task runs synchronously on the caller's goroutine — a
// job draining during shutdown must still complete its outstanding
// WaitGroup work, it just stops being concurrent.
func (p *Pool) Submit(task func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		task()
		return
	}
	p.queue = append(p.queue, task)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close drains the queue and stops the workers. It blocks until every
// already-submitted task has run.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
