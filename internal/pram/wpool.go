package pram

import (
	"sync"
	"sync/atomic"
	"time"
)

// Resident worker pool: the default dispatcher behind Machine.For.
//
// A Machine lazily builds one wpool on its first parallel statement. The
// pool owns the padded deque and stat slices (allocated once, reused by
// every statement) and up to workers-1 resident goroutines, so
// steady-state dispatch allocates nothing and spawns nothing: the
// orchestrator publishes the statement's parameters, wakes each parked
// worker with a one-token channel send, runs as worker 0 itself, and
// waits on the statement barrier. Workers park again immediately after
// the barrier.
//
// Each resident worker has a slot with a three-state lifecycle:
//
//	slotEmpty   no goroutine; the next statement spawns one
//	slotParked  goroutine blocked in a select awaiting wake/quit/idle
//	slotRunning goroutine woken for (or executing) a statement
//
// The orchestrator wakes a slot by CASing parked→running and sending the
// wake token; if the CAS fails the slot is empty (first use, or the
// worker retired) and a fresh goroutine is spawned for it. A parked
// worker retires by CASing parked→empty when its idle timer shows no
// statement has run for a full timeout window; if that CAS loses to a
// concurrent waker the worker instead consumes the wake token and runs
// the statement. The idle timer is checked, not re-armed, per statement:
// it fires every timeout period and the worker retires only when no
// statement ran during the whole window, so parking costs zero timer
// operations on the dispatch path and an idle pool drains to zero
// goroutines within two timeout periods.
//
// Memory visibility: the statement parameters (body, grain, width, done,
// start, exact) are plain fields written by the orchestrator before the
// wake send and read by the worker after the wake receive; the channel
// send/receive pair (or the go statement, for a fresh spawn) is the
// happens-before edge. The barrier's wg.Done/Wait edge makes the
// workers' stat writes visible to the orchestrator's aggregation.
//
// Statements never run concurrently on one Machine (Machine.running
// enforces that), so the orchestrator is the only waker and close never
// races a statement.

// idleTimeoutDefault is how long a resident worker may sit parked with
// no statements before its goroutine exits. Chosen well under the
// multi-second deadlines of the goroutine-leak tests while long enough
// that any live traffic keeps the pool warm.
const idleTimeoutDefault = 200 * time.Millisecond

const (
	slotEmpty   int32 = iota // no goroutine attached to the slot
	slotParked               // goroutine parked awaiting wake, quit, or idle retire
	slotRunning              // goroutine woken for / executing a statement
)

// wslot is one resident worker's parking state. Slots sit in one
// contiguous slice and the state word is CASed by both orchestrator and
// worker, so each slot is padded out to two cache lines like the deques.
type wslot struct {
	state atomic.Int32
	wake  chan struct{} // buffered 1: the orchestrator's statement token
	_     [128 - 16]byte
}

// wpool carries a Machine's resident dispatch state. Slot i hosts worker
// id i+1; worker 0 is always the orchestrating goroutine itself.
type wpool struct {
	workers int           // capacity: max workers a statement may use
	idle    time.Duration // park time after which a worker retires

	// Per-statement parameters, published by the orchestrator before the
	// wakes (see the memory-visibility note above).
	wStmt int // this statement's worker count (≤ workers)
	g     int
	exact bool
	body  func(lo, hi int)
	done  <-chan struct{}
	start time.Time

	dq    []wdeque
	ws    []workerStats
	slots []wslot

	wg     sync.WaitGroup // statement barrier: one count per woken worker
	lifeWG sync.WaitGroup // one count per live resident goroutine
	quit   chan struct{}  // closed by close() to drop parked workers
}

func newWPool(workers int, idle time.Duration) *wpool {
	p := &wpool{
		workers: workers,
		idle:    idle,
		dq:      make([]wdeque, workers),
		ws:      make([]workerStats, workers),
		slots:   make([]wslot, workers-1),
		quit:    make(chan struct{}),
	}
	for i := range p.slots {
		p.slots[i].wake = make(chan struct{}, 1)
	}
	return p
}

// run executes body over [0, n) on w ≤ p.workers workers (the caller is
// worker 0) with chunk size g, reusing the pool's slices and goroutines.
// start is the statement's start instant, taken by the caller so traced
// spans and worker finish times share one zero point. done, when
// non-nil, is a cancellation signal: workers stop taking new chunks once
// it is closed (the orchestrator detects the resulting incomplete
// statement at the barrier and unwinds — see Machine.checkpoint).
func (p *wpool) run(n, w, g int, body func(lo, hi int), done <-chan struct{}, start time.Time, exact bool) (stmtStats, []workerStats) {
	partition(p.dq[:w], n, w)
	// Deques beyond this statement's width must read empty to thieves: a
	// narrower statement after a cancelled wider one would otherwise
	// expose the aborted statement's leftover ranges. (Indices < w are
	// overwritten by partition; these are the stale tail.)
	for i := w; i < p.workers; i++ {
		p.dq[i].lo, p.dq[i].hi = 0, 0
	}
	for i := 0; i < w; i++ {
		p.ws[i] = workerStats{}
	}
	p.wStmt, p.g, p.exact = w, g, exact
	p.body, p.done, p.start = body, done, start

	p.wg.Add(w - 1)
	for s := 0; s < w-1; s++ {
		p.wakeSlot(s)
	}
	worker(0, p.dq[:w], g, body, &p.ws[0], start, done, exact)
	p.wg.Wait()

	return aggregate(p.ws[:w]), p.ws[:w]
}

// wakeSlot hands the pending statement to slot s's resident goroutine,
// spawning one if the slot is empty.
func (p *wpool) wakeSlot(s int) {
	sl := &p.slots[s]
	if sl.state.CompareAndSwap(slotParked, slotRunning) {
		sl.wake <- struct{}{}
		return
	}
	// The CAS can only lose to the worker's own retire (parked→empty) or
	// find the slot never started: either way the slot is empty now and
	// this orchestrator is the only writer until the next statement.
	sl.state.Store(slotRunning)
	spawnedWorkers.Add(1)
	p.lifeWG.Add(1)
	go p.resident(s)
}

// resident is the long-lived loop of slot s's goroutine (worker id s+1):
// execute the published statement, park, repeat — until told to quit or
// idle for a full timeout window.
func (p *wpool) resident(s int) {
	defer p.lifeWG.Done()
	id := s + 1
	sl := &p.slots[s]
	timer := time.NewTimer(p.idle)
	defer timer.Stop()
	active := true // did a statement run since the timer last fired?
	for {
		worker(id, p.dq[:p.wStmt], p.g, p.body, &p.ws[id], p.start, p.done, p.exact)
		sl.state.Store(slotParked) // must precede Done: after the barrier the orchestrator may wake us again
		p.wg.Done()
		active = true
	park:
		select {
		case <-sl.wake:
			// Next statement; parameters are visible via the channel edge.
		case <-timer.C:
			if active {
				// Work happened during this window — re-arm and keep
				// parking. This is the only place the timer is touched
				// after spawn, so busy statements never pay for it.
				active = false
				timer.Reset(p.idle)
				goto park
			}
			if sl.state.CompareAndSwap(slotParked, slotEmpty) {
				return // idled out; the next statement respawns us
			}
			// A waker beat the retire: its token is (or is about to be)
			// in the channel. Consume it and run that statement.
			<-sl.wake
		case <-p.quit:
			return
		}
	}
}

// close drops every resident goroutine and waits for them to exit. It
// must not run concurrently with a statement on the same Machine. The
// pool remains usable: slots reset to empty and the next statement
// respawns workers lazily.
func (p *wpool) close() {
	close(p.quit)
	p.lifeWG.Wait()
	for i := range p.slots {
		p.slots[i].state.Store(slotEmpty)
		// Drop any unconsumed wake token so a recycled slot's first wake
		// after respawn isn't mistaken for two statements. (Can only be
		// non-empty if a worker quit between a wake send and its receive,
		// which the no-concurrent-statement contract excludes — drain
		// defensively anyway.)
		select {
		case <-p.slots[i].wake:
		default:
		}
	}
	p.quit = make(chan struct{})
}
