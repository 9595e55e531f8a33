package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"partree/internal/faultpoint"
	"partree/internal/trace"
)

// ErrShuttingDown is returned by Submit once the batcher has been closed.
var ErrShuttingDown = errors.New("serve: shutting down")

// errBatchPanic is distributed to every job of a batch whose executor
// panicked; the panic value itself goes to the server log.
var errBatchPanic = errors.New("serve: engine panic while executing batch")

// batcher coalesces concurrently arriving small jobs into batches that
// one engine call executes on one PRAM machine run. A batch is cut when
// it reaches maxBatch jobs (full cut), when the linger deadline since the
// batch's first job expires (linger cut), or when the batcher drains at
// shutdown (drain cut).
//
// The exec callback receives the batched requests in arrival order and
// must return one response per request, positionally aligned, or an
// error that fails the whole batch (typically ctx.Err() from an aborted
// PRAM run). It runs on the batcher's single collector goroutine, so
// implementations need no internal locking; they typically call one of
// the partree *BatchContext entry points and fold the returned Stats
// into the server's accumulators.
//
// Deadlines cut at the job level, not the batch level: jobs whose
// context is already done when the batch executes are expired up front
// (they get their own ctx.Err() and never reach exec), and the context
// handed to exec is canceled only when EVERY remaining submitter's
// context is done — one slow or impatient client cannot kill its
// co-batched neighbours.
type batcher[Req, Resp any] struct {
	name     string
	maxBatch int
	linger   time.Duration
	exec     func(context.Context, []Req) ([]Resp, error)

	// observe, when non-nil, receives each batch run's trace after the
	// run completes (the server feeds the /metricsz histograms with it).
	// A non-nil observe arms a per-batch recorder on every run; with
	// observe nil a batch is traced only when a submitter's context
	// carries a request trace. Set before the first Submit.
	observe func(*trace.Trace)

	// mu is held for reading around every queue send and for writing in
	// Close; after Close sets closed under the write lock, no new send can
	// begin and every started send has completed, so the collector's final
	// drain observes every job that will ever be submitted.
	mu     sync.RWMutex
	closed bool
	queue  chan *pending[Req, Resp]
	quit   chan struct{}
	done   chan struct{}

	// reqScratch is the request buffer handed to exec, reused across
	// batches. Only the collector goroutine touches it, and exec runs
	// synchronously on that goroutine and must not retain its argument
	// (the partree *Batch entry points copy what they keep), so one
	// buffer per collector suffices — batching stops allocating a fresh
	// request slice per batch on the hot path.
	reqScratch []Req

	// Counters, guarded by cmu.
	cmu        sync.Mutex
	batches    int64
	jobs       int64
	fullCuts   int64
	lingerCuts int64
	drainCuts  int64
	expired    int64
	aborted    int64
	maxSeen    int
}

// pending is one submitted job waiting for its batch to execute. ctx is
// the submitter's context: checked once before exec (expiry cut) and
// watched during exec so the batch can abort when every submitter is
// gone.
type pending[Req, Resp any] struct {
	req  Req
	ctx  context.Context
	resp Resp
	err  error
	done chan struct{}
	// tr is the submitter's request trace (nil for untraced requests);
	// the batch run's spans are grafted into it before done closes, so a
	// traced request sees the spans of the run that computed its result
	// even when it shared the run with untraced neighbours.
	tr *trace.Trace
}

func newBatcher[Req, Resp any](name string, maxBatch int, linger time.Duration, queueDepth int, exec func(context.Context, []Req) ([]Resp, error)) *batcher[Req, Resp] {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueDepth < maxBatch {
		queueDepth = maxBatch
	}
	b := &batcher[Req, Resp]{
		name:     name,
		maxBatch: maxBatch,
		linger:   linger,
		exec:     exec,
		queue:    make(chan *pending[Req, Resp], queueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// Submit enqueues one job and blocks until its batch has executed, the
// context is done, or the batcher shuts down. A job whose Submit has
// returned nil error was executed; its response is valid.
func (b *batcher[Req, Resp]) Submit(ctx context.Context, req Req) (Resp, error) {
	var zero Resp
	p := &pending[Req, Resp]{req: req, ctx: ctx, done: make(chan struct{}), tr: trace.FromContext(ctx)}

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return zero, ErrShuttingDown
	}
	select {
	case b.queue <- p:
		b.mu.RUnlock()
		faultpoint.Hit("batcher.submit", b.name)
	case <-ctx.Done():
		b.mu.RUnlock()
		return zero, ctx.Err()
	}

	select {
	case <-p.done:
		return p.resp, p.err
	case <-ctx.Done():
		// The job may still execute later; its slot outlives us.
		return zero, ctx.Err()
	}
}

// Close stops admission, drains every queued job into final batches,
// waits for them to execute, and returns. Idempotent.
func (b *batcher[Req, Resp]) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.quit)
	}
	<-b.done
}

func (b *batcher[Req, Resp]) loop() {
	defer close(b.done)
	for {
		var first *pending[Req, Resp]
		select {
		case first = <-b.queue:
		case <-b.quit:
			b.drain()
			return
		}
		batch := append(make([]*pending[Req, Resp], 0, b.maxBatch), first)
		batch, cut := b.collect(batch)
		b.runBatch(batch, cut)
	}
}

// collect fills the batch after its first job: up to maxBatch jobs, or
// whatever has arrived when the linger deadline passes. With linger == 0
// it takes only what is already queued (dispatch without delay).
func (b *batcher[Req, Resp]) collect(batch []*pending[Req, Resp]) ([]*pending[Req, Resp], string) {
	if len(batch) >= b.maxBatch {
		return batch, "full"
	}
	if b.linger <= 0 {
		for len(batch) < b.maxBatch {
			select {
			case p := <-b.queue:
				batch = append(batch, p)
			default:
				return batch, "linger"
			}
		}
		return batch, "full"
	}
	timer := time.NewTimer(b.linger)
	defer timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case p := <-b.queue:
			batch = append(batch, p)
		case <-timer.C:
			return batch, "linger"
		case <-b.quit:
			// Shutdown while lingering: cut immediately; the remaining
			// queue is handled by drain after loop observes quit.
			return batch, "drain"
		}
	}
	return batch, "full"
}

// drain executes everything still queued at shutdown. Close guarantees no
// new sends start after quit closes, so a sweep to empty is complete.
func (b *batcher[Req, Resp]) drain() {
	for {
		var batch []*pending[Req, Resp]
		for len(batch) < b.maxBatch {
			select {
			case p := <-b.queue:
				batch = append(batch, p)
			default:
				goto flush
			}
		}
	flush:
		if len(batch) == 0 {
			return
		}
		b.runBatch(batch, "drain")
	}
}

func (b *batcher[Req, Resp]) runBatch(batch []*pending[Req, Resp], cut string) {
	faultpoint.Hit("batcher.collect", b.name, cut, len(batch))
	// Expiry cut: a job whose deadline already passed while it waited in
	// the queue or lingered in the batch gets its own ctx.Err() and never
	// reaches the engine — its submitter has stopped listening.
	live := batch[:0]
	var nExpired int64
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.err = err
			close(p.done)
			nExpired++
			continue
		}
		live = append(live, p)
	}
	if len(live) > 0 {
		b.execBatch(live, cut)
	}

	b.cmu.Lock()
	b.batches++
	b.jobs += int64(len(batch))
	b.expired += nExpired
	if len(batch) > b.maxSeen {
		b.maxSeen = len(batch)
	}
	switch cut {
	case "full":
		b.fullCuts++
	case "linger":
		b.lingerCuts++
	default:
		b.drainCuts++
	}
	b.cmu.Unlock()
}

// execBatch runs exec over the live jobs under a context that expires
// only when every submitter's context has: one timed-out client exits
// the batch (its Submit returned on its own ctx) without aborting the
// machine run its neighbours are still waiting on. Only when the last
// listener is gone does the run itself get cancelled.
//
// When the run is traced (observe hook set, or any submitter traced) a
// fresh recorder rides the batch context into the PRAM run; afterwards
// the run's spans — phases, worker slices, and the batch span stamped
// here with the job count and cut reason — go to observe and are grafted
// into every traced submitter's request trace.
func (b *batcher[Req, Resp]) execBatch(live []*pending[Req, Resp], cut string) {
	batchCtx := context.Background()
	var cancel context.CancelFunc
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	allCancelable := true
	for _, p := range live {
		if p.ctx.Done() == nil {
			allCancelable = false
			break
		}
	}
	if allCancelable {
		batchCtx, cancel = context.WithCancel(context.Background())
		watched := append([]*pending[Req, Resp](nil), live...)
		go func() {
			defer close(watcherDone)
			for _, p := range watched {
				select {
				case <-p.ctx.Done():
				case <-stop:
					return
				}
			}
			cancel()
		}()
	} else {
		// A submitter that can never go away (Background context) pins
		// the batch: it always runs to completion.
		close(watcherDone)
	}

	var btr *trace.Trace
	if b.observe != nil {
		btr = trace.New(0)
	} else {
		for _, p := range live {
			if p.tr != nil {
				btr = trace.New(0)
				break
			}
		}
	}
	if btr != nil {
		batchCtx = trace.NewContext(batchCtx, btr)
	}

	reqs := b.reqScratch[:0]
	for _, p := range live {
		reqs = append(reqs, p.req)
	}
	resps, err, panicked := b.safeExec(batchCtx, reqs)
	if btr != nil {
		btr.Add(trace.Span{Name: b.name, Cat: trace.CatBatch, Dur: btr.Now(), Jobs: len(live), Cut: cut})
		if b.observe != nil {
			b.observe(btr)
		}
	}
	close(stop)
	<-watcherDone
	if cancel != nil {
		cancel()
	}
	// Drop the payload references before parking the buffer: a retained
	// request (often a large caller slice) must not outlive its batch.
	var zero Req
	for i := range reqs {
		reqs[i] = zero
	}
	b.reqScratch = reqs[:0]

	var nAborted int64
	for i, p := range live {
		switch {
		case panicked:
			p.err = errBatchPanic
		case err != nil:
			// The run aborted; report each job's own expiry when it has
			// one (more precise than the batch-level cause).
			if cerr := p.ctx.Err(); cerr != nil {
				p.err = cerr
			} else {
				p.err = err
			}
			nAborted++
		case i >= len(resps):
			p.err = errBatchPanic
		default:
			p.resp = resps[i]
		}
		if p.tr != nil && btr != nil {
			// Graft before done closes so the submitter's view of its
			// trace is complete the moment Submit returns.
			p.tr.Graft(btr)
		}
		close(p.done)
	}
	if nAborted > 0 {
		b.cmu.Lock()
		b.aborted += nAborted
		b.cmu.Unlock()
	}
}

// safeExec shields the collector goroutine from a panicking executor: the
// batch fails as a unit instead of killing the process.
func (b *batcher[Req, Resp]) safeExec(ctx context.Context, reqs []Req) (resps []Resp, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	faultpoint.Hit("batcher.exec", b.name, len(reqs))
	resps, err = b.exec(ctx, reqs)
	return resps, err, false
}

// BatcherCounters is a snapshot of one engine batcher's counters.
type BatcherCounters struct {
	Batches      int64   `json:"batches"`
	Jobs         int64   `json:"jobs"`
	AvgBatch     float64 `json:"avg_batch"`
	MaxBatch     int     `json:"max_batch_seen"`
	FullCuts     int64   `json:"full_cuts"`
	LingerCuts   int64   `json:"linger_cuts"`
	DrainCuts    int64   `json:"drain_cuts"`
	Expired      int64   `json:"expired"`
	Aborted      int64   `json:"aborted"`
	MaxBatchConf int     `json:"max_batch"`
	LingerUS     int64   `json:"linger_us"`
}

func (b *batcher[Req, Resp]) counters() BatcherCounters {
	b.cmu.Lock()
	defer b.cmu.Unlock()
	c := BatcherCounters{
		Batches:      b.batches,
		Jobs:         b.jobs,
		MaxBatch:     b.maxSeen,
		FullCuts:     b.fullCuts,
		LingerCuts:   b.lingerCuts,
		DrainCuts:    b.drainCuts,
		Expired:      b.expired,
		Aborted:      b.aborted,
		MaxBatchConf: b.maxBatch,
		LingerUS:     b.linger.Microseconds(),
	}
	if b.batches > 0 {
		c.AvgBatch = float64(b.jobs) / float64(b.batches)
	}
	return c
}
