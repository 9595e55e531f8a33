// Package pram provides a synchronous PRAM (Parallel Random Access Machine)
// simulator used as the execution substrate for every parallel algorithm in
// this repository.
//
// The paper's cost model counts parallel time steps on a machine with p
// processors; a parallel statement over n virtual processors costs ⌈n/p⌉
// steps (Brent's scheduling principle). A Machine reproduces exactly that
// accounting while running the statement bodies on resident workers that
// claim grain-sized chunks from one shared cursor per statement (adaptive
// grain — see sched.go), so the counted bounds can be validated
// independently of the host's core count and the host still gets genuine
// speedup even when the iterations' costs are skewed.
//
// The single execution primitive is Machine.For: one synchronous parallel
// statement. Within a single For call the iterations must be independent —
// the barrier is the return of For. Reads of values written during the same
// For call are undefined, exactly as on a synchronous PRAM where all reads
// of a step happen before all writes commit. The scheduler may execute
// iterations in any order and any interleaving.
//
// Beyond the counted Counters, every Machine keeps a Stats snapshot per
// labeled Phase: counted steps and work, plus measured busy time, span
// estimate and barrier wait, so the paper's step counts are observable
// metrics alongside the scheduler's constant factors.
package pram

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/trace"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Model identifies the PRAM memory-access model an algorithm is designed
// for. The Machine itself does not restrict accesses (Go memory is shared);
// the model is carried for documentation and for TraceMemory compliance
// checking in tests.
type Model int

const (
	// EREW allows exclusive reads and exclusive writes only.
	EREW Model = iota
	// CREW allows concurrent reads but exclusive writes.
	CREW
	// CRCWCommon allows concurrent reads and concurrent writes provided all
	// writers of a cell in one step write the same value.
	CRCWCommon
)

// String returns the conventional abbreviation for the model.
func (m Model) String() string {
	switch m {
	case EREW:
		return "EREW"
	case CREW:
		return "CREW"
	case CRCWCommon:
		return "CRCW(common)"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Counters is a snapshot of a Machine's counted cost accounting (the
// model-level subset of Stats, kept for compatibility).
type Counters struct {
	// Steps is the number of parallel time steps: each For(n, ·) contributes
	// ⌈n/Processors⌉, each sequential Step contributes its cost.
	Steps int64
	// Work is the total number of virtual-processor operations: each
	// For(n, ·) contributes n.
	Work int64
	// Calls is the number of parallel statements issued.
	Calls int64
}

// Machine is a simulated PRAM. The zero value is not usable; construct with
// New. A Machine's For must not be called concurrently from multiple
// goroutines and must not be nested; algorithms that need nested parallelism
// flatten their index spaces into a single For.
type Machine struct {
	model      Model
	procs      int // declared processor count p for step accounting
	workers    int // real goroutines used to execute bodies
	fixedGrain int // 0 = adaptive; >0 pins the chunk size (WithGrain)

	// ctx, when non-nil, is polled at statement barriers for cooperative
	// cancellation (see cancel.go). Nil — the default — costs one pointer
	// compare per statement.
	ctx context.Context

	// tracer, when non-nil, receives one span per Phase window and one
	// slice per worker per statement (see trace.go). Nil — the default —
	// costs one pointer compare per statement and per Phase call.
	tracer    *trace.Trace
	openSpans []openSpan

	running atomic.Bool // guards against nested/concurrent For

	// pool hosts the resident worker goroutines, the chunk cursor and the
	// reused stat slice (see wpool.go). Built lazily by the first parallel statement;
	// nil until then and on machines that never go parallel.
	pool        *wpool
	idleTimeout time.Duration // park time before a resident worker retires

	statsMu    sync.Mutex
	phase      string
	phaseStack []string // shadowed outer labels; popped by restorePhase
	phases     map[string]*PhaseStats
	total      PhaseStats
	// nsPerElem is the EWMA of measured per-element cost (adaptive
	// grain), stored as float64 bits so the For fast path reads the
	// grain without taking statsMu.
	nsPerElem atomic.Uint64

	// restorePhase is the one closure every Phase call returns; building
	// it once keeps the hot kernels' per-call Phase bookkeeping
	// allocation-free.
	restorePhase func()
}

// Option configures a Machine.
type Option func(*Machine)

// WithModel declares the memory-access model the algorithm assumes.
func WithModel(model Model) Option { return func(m *Machine) { m.model = model } }

// WithProcessors sets the declared processor count p used for step
// accounting (steps per parallel statement = ⌈n/p⌉). It does not change how
// many goroutines execute the statement. p must be ≥ 1.
func WithProcessors(p int) Option {
	return func(m *Machine) {
		if p < 1 {
			panic("pram: processor count must be ≥ 1")
		}
		m.procs = p
	}
}

// WithWorkers sets the number of goroutines that execute parallel
// statements. w must be ≥ 1. The default is runtime.GOMAXPROCS(0).
func WithWorkers(w int) Option {
	return func(m *Machine) {
		if w < 1 {
			panic("pram: worker count must be ≥ 1")
		}
		m.workers = w
	}
}

// WithGrain pins the number of iterations a worker claims per chunk and
// disables the adaptive controller. Statements with n ≤ grain run inline on
// the calling goroutine. Without this option the machine sizes chunks
// adaptively from the measured per-element cost.
func WithGrain(g int) Option {
	return func(m *Machine) {
		if g < 1 {
			panic("pram: grain must be ≥ 1")
		}
		m.fixedGrain = g
	}
}

// WithIdleTimeout sets how long a resident worker goroutine stays parked
// with no statements before it exits (the pool respawns workers lazily on
// the next statement, so this only trades idle goroutines for wake-up
// spawns). d must be > 0. The default is 200ms.
func WithIdleTimeout(d time.Duration) Option {
	return func(m *Machine) {
		if d <= 0 {
			panic("pram: idle timeout must be > 0")
		}
		m.idleTimeout = d
	}
}

// New constructs a Machine. With no options it models an unbounded-processor
// CREW PRAM (p = very large, so every parallel statement costs one step)
// executed on GOMAXPROCS goroutines with adaptive grain.
func New(opts ...Option) *Machine {
	m := &Machine{
		model:       CREW,
		procs:       1 << 62, // effectively unbounded: one step per statement
		workers:     defaultWorkers(),
		idleTimeout: idleTimeoutDefault,
		phases:      make(map[string]*PhaseStats),
	}
	m.restorePhase = func() {
		m.statsMu.Lock()
		ended := m.phase
		n := len(m.phaseStack)
		m.phase = m.phaseStack[n-1]
		m.phaseStack = m.phaseStack[:n-1]
		if m.tracer != nil {
			m.closePhaseSpan(ended, n)
		}
		m.statsMu.Unlock()
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Close retires the Machine's resident worker goroutines immediately and
// waits for them to exit. The Machine stays usable — the next parallel
// statement lazily respawns the pool — so Close is an idle/lifecycle
// operation, not a terminal one. It must not be called concurrently with
// a running For/Run on the same Machine. Parked workers also retire on
// their own after the idle timeout, so Close is optional for callers that
// can tolerate the pool lingering that long.
func (m *Machine) Close() {
	if m.pool != nil {
		m.pool.close()
	}
}

// Model returns the declared memory-access model.
func (m *Machine) Model() Model { return m.model }

// Processors returns the declared processor count used for accounting.
func (m *Machine) Processors() int { return m.procs }

// Workers returns the number of executing goroutines.
func (m *Machine) Workers() int { return m.workers }

// Grain returns the chunk size the next large statement would use: the
// pinned WithGrain value or the adaptive controller's current choice.
func (m *Machine) Grain() int { return m.grain() }

// Counters returns a snapshot of the accumulated counted cost.
func (m *Machine) Counters() Counters {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return Counters{
		Steps: m.total.Steps,
		Work:  m.total.Work,
		Calls: m.total.Calls,
	}
}

// Reset zeroes the cost counters and the per-phase stats. The adaptive
// grain calibration is deliberately kept: it describes the workload, not
// the measurement window.
func (m *Machine) Reset() {
	m.statsMu.Lock()
	m.total = PhaseStats{}
	m.phases = make(map[string]*PhaseStats)
	m.statsMu.Unlock()
}

// Step records cost time sequential steps (and the same amount of work)
// without executing anything. Algorithms use it to account for scalar
// bookkeeping the paper charges to the machine.
func (m *Machine) Step(cost int) { m.Charge(int64(cost), int64(cost)) }

// Charge records steps counted steps and work counted work without
// executing anything: the bill of a statement whose virtual processors
// did unequal work, the longest one's steps and all of their work.
func (m *Machine) Charge(steps, work int64) {
	if steps <= 0 && work <= 0 {
		return
	}
	m.record(steps, work, 0, stmtStats{})
}

// For executes body(i) for every i in [0, n) as one synchronous parallel
// statement: ⌈n/p⌉ counted steps, n counted work. Iterations must be
// mutually independent. For returns after all iterations complete.
//
// Statements small enough to run on one worker skip the range-adapter
// closure the chunked scheduler needs, so a serial For costs no
// allocations beyond the caller's own body closure.
func (m *Machine) For(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	m.checkpoint()
	g := m.Grain()
	w := m.workers
	if chunks := (n + g - 1) / g; w > chunks {
		w = chunks
	}
	if w == 1 {
		if !m.running.CompareAndSwap(false, true) {
			panic("pram: nested or concurrent For on the same Machine")
		}
		defer m.running.Store(false)
		steps := int64((n + m.procs - 1) / m.procs)
		start := time.Now()
		if m.ctx == nil {
			for i := 0; i < n; i++ {
				body(i)
			}
		} else {
			// Poll between grain-sized chunks so a serial statement still
			// honors cancellation within one chunk's worth of work. The
			// final poll mirrors the parallel path's post-barrier
			// checkpoint: a statement that finished under a dead context
			// still aborts, so single-statement calls can't complete
			// "successfully" with a cancelled context.
			for lo := 0; lo < n; lo += g {
				hi := lo + g
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i)
				}
				m.checkpoint()
			}
		}
		el := time.Since(start)
		m.record(steps, int64(n), 1, stmtStats{span: el, busy: el})
		m.observeCost(n, el)
		if m.tracer != nil {
			m.emitSerialSpan(start, el, n)
		}
		return
	}
	m.forChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange executes body(lo, hi) on contiguous sub-ranges covering [0, n).
// It is an escape hatch for bodies that keep per-call scratch state or
// per-chunk tallies: a body that sums its iterations' charge in locals and
// adds it to shared totals once per call writes no shared word per
// iteration, so workers do not pass those cache lines between cores. The
// cost accounting is identical to For(n, ·). The scheduler issues one call
// per grain-sized chunk (at least one per executing worker), so bodies must
// tolerate any number of calls, and a tally must not depend on how many.
func (m *Machine) ForRange(n int, body func(lo, hi int)) {
	m.forChunked(n, body)
}

// forChunked is the shared scheduling core of For and ForRange.
func (m *Machine) forChunked(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	m.checkpoint()
	if !m.running.CompareAndSwap(false, true) {
		panic("pram: nested or concurrent For on the same Machine")
	}
	defer m.running.Store(false)

	steps := int64((n + m.procs - 1) / m.procs)

	g := m.Grain()
	w := m.workers
	if chunks := (n + g - 1) / g; w > chunks {
		w = chunks
	}
	if w == 1 {
		start := time.Now()
		if m.ctx == nil {
			body(0, n)
		} else {
			// Bodies must tolerate per-chunk calls (ForRange contract), so
			// the serial path can poll between grain-sized chunks here too
			// (final poll included; see For).
			for lo := 0; lo < n; lo += g {
				hi := lo + g
				if hi > n {
					hi = n
				}
				body(lo, hi)
				m.checkpoint()
			}
		}
		el := time.Since(start)
		m.record(steps, int64(n), 1, stmtStats{span: el, busy: el})
		m.observeCost(n, el)
		if m.tracer != nil {
			m.emitSerialSpan(start, el, n)
		}
		return
	}

	var done <-chan struct{}
	if m.ctx != nil {
		done = m.ctx.Done()
	}
	start := time.Now()
	// Exact per-chunk timing only when a tracer needs faithful worker
	// slices; disarmed statements use the amortized clock protocol (see
	// worker in sched.go).
	exact := m.tracer != nil
	if m.pool == nil {
		m.pool = newWPool(m.workers, m.idleTimeout)
	}
	st, ws := m.pool.run(n, w, g, body, done, start, exact)
	// Workers bail before their next claim once the context is done,
	// abandoning unexecuted chunks; the statement is then incomplete, so
	// the abort must happen before anyone reads its outputs.
	m.checkpoint()
	m.record(steps, int64(n), 1, st)
	m.observeCost(n, st.busy)
	if m.tracer != nil {
		m.emitWorkerSpans(start, ws)
	}
}
