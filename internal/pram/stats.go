package pram

import (
	"math"
	"sort"
	"time"
)

// PhaseStats aggregates the cost and scheduler-observability counters of
// the parallel statements issued under one phase label.
//
// Steps, Work and Calls are the counted PRAM quantities (model-level:
// independent of the host), while Span, Busy and BarrierWait are
// measured on the executing hardware (scheduler-level: they quantify the
// constant factors the model hides).
type PhaseStats struct {
	// Steps is the number of counted parallel time steps: ⌈n/p⌉ per
	// statement over n virtual processors, plus sequential Step costs.
	Steps int64
	// Work is the total number of virtual-processor operations.
	Work int64
	// Calls is the number of parallel statements issued.
	Calls int64
	// Span estimates the critical path: the sum over statements of the
	// slowest worker's wall time. Span/Busy ≈ 1/w means perfect balance.
	Span time.Duration
	// Busy is the total time all workers spent executing statement
	// bodies. Without a tracer it is each worker's whole wall time in the
	// statement (see worker in sched.go).
	Busy time.Duration
	// BarrierWait is the total time workers spent idle at statement
	// barriers waiting for the slowest worker — residual imbalance that
	// chunk-by-chunk claiming could not hide.
	BarrierWait time.Duration
}

func (p *PhaseStats) add(o stmtStats) {
	p.Span += o.span
	p.Busy += o.busy
	p.BarrierWait += o.barrierWait
}

// stmtStats is the measurement of a single executed statement.
type stmtStats struct {
	span        time.Duration
	busy        time.Duration
	barrierWait time.Duration
}

// Stats is a snapshot of a Machine's accumulated accounting: the totals,
// the per-phase breakdown, and the grain the adaptive controller would
// use for the next large statement.
type Stats struct {
	PhaseStats
	// Grain is the chunk size the machine will hand each worker next: the
	// fixed WithGrain value, or the adaptive controller's current choice.
	Grain int
	// Phases maps phase label → that phase's counters. Statements issued
	// with no label are collected under "".
	Phases map[string]PhaseStats
}

// PhaseNames returns the snapshot's phase labels, sorted.
func (s Stats) PhaseNames() []string {
	names := make([]string, 0, len(s.Phases))
	for name := range s.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the accumulated cost and scheduler
// counters. It is safe to call concurrently with a running For (the
// snapshot then reflects all statements completed so far).
func (m *Machine) Stats() Stats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	out := Stats{
		PhaseStats: m.total,
		Grain:      m.grain(),
		Phases:     make(map[string]PhaseStats, len(m.phases)),
	}
	for name, ps := range m.phases {
		out.Phases[name] = *ps
	}
	return out
}

// Phase labels all subsequently issued statements with name until the
// returned restore function runs; typical use is
//
//	defer m.Phase("monge.MulPar")()
//
// at the top of a parallel primitive. Nested Phase calls shadow the outer
// label, so the innermost primitive attributes its own statements. The
// shadowed labels live on a stack inside the Machine and every call
// returns the same restore closure, so restores must run in LIFO order —
// which the defer idiom guarantees.
func (m *Machine) Phase(name string) func() {
	m.statsMu.Lock()
	m.phaseStack = append(m.phaseStack, m.phase)
	m.phase = name
	if m.tracer != nil {
		m.openPhaseSpan(name)
	}
	m.statsMu.Unlock()
	return m.restorePhase
}

// record books one statement's counted cost (steps/work/calls deltas) and
// measured scheduler stats into the current phase and the totals.
func (m *Machine) record(steps, work, calls int64, st stmtStats) {
	m.statsMu.Lock()
	m.total.Steps += steps
	m.total.Work += work
	m.total.Calls += calls
	m.total.add(st)
	ps, ok := m.phases[m.phase]
	if !ok {
		ps = &PhaseStats{}
		m.phases[m.phase] = ps
	}
	ps.Steps += steps
	ps.Work += work
	ps.Calls += calls
	ps.add(st)
	m.statsMu.Unlock()
}

// Adaptive grain control. The controller keeps an exponentially weighted
// moving average of the measured per-element cost (total worker busy time
// divided by iteration count) and sizes chunks so each claim from the
// statement's cursor carries about grainTargetNs of work — large enough
// to amortize the cursor's atomic add and the two clock reads per chunk,
// small enough that the other workers can still rebalance a skewed
// statement. WithGrain pins the grain and disables the controller.
//
// The EWMA lives in an atomic (float64 bits) so the orchestrator's For
// fast path reads the grain without touching statsMu — statements issued
// while another goroutine polls Stats() (the /statsz scrape path) never
// queue on the stats lock.
const (
	grainDefault  = 1024    // used until the first measurement lands
	grainMin      = 32      // never hand out slivers
	grainMax      = 1 << 16 // never let one claim starve the other workers
	grainTargetNs = 100_000 // target: ≈100µs of work per chunk
	grainEWMA     = 0.3     // weight of the newest sample
	minSampleNs   = 0.1     // clock-resolution floor per element
)

// grain returns the chunk size for the next statement. Lock-free: reads
// only the immutable fixedGrain and the atomic EWMA.
func (m *Machine) grain() int {
	if m.fixedGrain > 0 {
		return m.fixedGrain
	}
	per := math.Float64frombits(m.nsPerElem.Load())
	if per == 0 {
		return grainDefault
	}
	g := int(grainTargetNs / per)
	if g < grainMin {
		return grainMin
	}
	if g > grainMax {
		return grainMax
	}
	return g
}

// observeCost feeds one statement's measured per-element cost into the
// EWMA (no-op under a fixed grain). Plain load/store suffices: the only
// writer is the orchestrating goroutine (For is non-concurrent per
// Machine); the atomic makes the concurrent readers (Grain, Stats) safe.
func (m *Machine) observeCost(n int, busy time.Duration) {
	if m.fixedGrain > 0 || n <= 0 {
		return
	}
	per := float64(busy) / float64(n)
	if per < minSampleNs {
		per = minSampleNs // zero-cost samples would drive the grain to +∞
	}
	if prev := math.Float64frombits(m.nsPerElem.Load()); prev != 0 {
		per = (1-grainEWMA)*prev + grainEWMA*per
	}
	m.nsPerElem.Store(math.Float64bits(per))
}
