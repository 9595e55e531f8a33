package pram

import (
	"time"

	"partree/internal/trace"
)

// Tracing hooks. A Machine optionally carries a *trace.Trace; when it
// does, every Phase window closes into one phase span (counted
// steps/work/calls and measured busy/barrier deltas booked
// under that label while it was open) and every parallel statement emits
// one slice per executing worker, so the recorded timeline carries
// exactly the numbers Stats() aggregates. Disarmed — the default — the
// hooks cost one pointer compare per statement and per Phase call, the
// same discipline as internal/faultpoint; nothing is allocated.

// openSpan is one armed Phase window awaiting its restore: the label,
// the wall-clock open time, the phase's counters at open (so the close
// can emit deltas), and the phase-stack depth the window was opened at
// (so arming mid-run cannot desynchronize the two stacks).
type openSpan struct {
	label string
	depth int
	start time.Time
	at    PhaseStats
}

// SetTracer attaches tr: subsequent Phase windows and statements record
// spans into it. Passing nil disarms. Like SetContext, SetTracer must
// not be called concurrently with a running For, and must not be called
// while Phase windows are open (spans opened disarmed would close
// unrecorded).
func (m *Machine) SetTracer(tr *trace.Trace) {
	m.statsMu.Lock()
	m.tracer = tr
	m.openSpans = m.openSpans[:0]
	m.statsMu.Unlock()
}

// Tracer returns the attached trace recorder, or nil when disarmed.
func (m *Machine) Tracer() *trace.Trace { return m.tracer }

// openPhaseSpan pushes an armed Phase window. Caller holds statsMu.
func (m *Machine) openPhaseSpan(name string) {
	o := openSpan{label: name, depth: len(m.phaseStack), start: time.Now()}
	if ps := m.phases[name]; ps != nil {
		o.at = *ps
	}
	m.openSpans = append(m.openSpans, o)
}

// closePhaseSpan pops the window matching the restored phase (depth
// guards against windows opened before arming) and emits its span with
// the counter deltas booked under the label while it was open. Re-entrant
// phases — the same label opened at two nesting depths, as recursive
// kernels do — would double-count: the outer window's delta includes the
// inner's. Closing therefore advances every still-open window of the
// same label past the emitted delta, so summed span work per label
// always equals the phase's Stats() work. Caller holds statsMu.
func (m *Machine) closePhaseSpan(ended string, depth int) {
	k := len(m.openSpans)
	if k == 0 || m.openSpans[k-1].depth != depth || m.openSpans[k-1].label != ended {
		return
	}
	o := m.openSpans[k-1]
	m.openSpans = m.openSpans[:k-1]
	var cur PhaseStats
	if ps := m.phases[ended]; ps != nil {
		cur = *ps
	}
	delta := PhaseStats{
		Steps:       cur.Steps - o.at.Steps,
		Work:        cur.Work - o.at.Work,
		Calls:       cur.Calls - o.at.Calls,
		Span:        cur.Span - o.at.Span,
		Busy:        cur.Busy - o.at.Busy,
		BarrierWait: cur.BarrierWait - o.at.BarrierWait,
	}
	for i := range m.openSpans {
		if m.openSpans[i].label == ended {
			m.openSpans[i].at.Steps += delta.Steps
			m.openSpans[i].at.Work += delta.Work
			m.openSpans[i].at.Calls += delta.Calls
			m.openSpans[i].at.Span += delta.Span
			m.openSpans[i].at.Busy += delta.Busy
			m.openSpans[i].at.BarrierWait += delta.BarrierWait
		}
	}
	p := m.procs
	if p >= 1<<61 {
		p = 0 // effectively unbounded: not a meaningful span attribute
	}
	m.tracer.Add(trace.Span{
		Name:        ended,
		Cat:         trace.CatPhase,
		TID:         0,
		Start:       o.start.Sub(m.tracer.Epoch()),
		Dur:         time.Since(o.start),
		P:           p,
		W:           m.workers,
		Steps:       delta.Steps,
		Work:        delta.Work,
		Calls:       delta.Calls,
		Busy:        delta.Busy,
		BarrierWait: delta.BarrierWait,
		SpanEst:     delta.Span,
	})
}

// emitWorkerSpans records one slice per executing worker for the
// statement that started at start: the worker's lifetime within the
// statement (Dur), its body time (Busy), and its element count. Only
// called when the tracer is armed; runs on the orchestrating goroutine
// after the statement barrier, so the workerStats reads are settled.
func (m *Machine) emitWorkerSpans(start time.Time, ws []workerStats) {
	tr := m.tracer
	m.statsMu.Lock()
	label := m.phase
	m.statsMu.Unlock()
	if label == "" {
		label = "(unlabeled)"
	}
	base := start.Sub(tr.Epoch())
	for i := range ws {
		tr.Add(trace.Span{
			Name:  label,
			Cat:   trace.CatWorker,
			TID:   i + 1,
			Start: base,
			Dur:   ws[i].finish,
			Work:  int64(ws[i].elems),
			Busy:  ws[i].busy,
		})
	}
}

// emitSerialSpan is emitWorkerSpans for the single-worker fast paths,
// where the whole statement ran inline on the orchestrator (worker 0).
func (m *Machine) emitSerialSpan(start time.Time, el time.Duration, n int) {
	tr := m.tracer
	m.statsMu.Lock()
	label := m.phase
	m.statsMu.Unlock()
	if label == "" {
		label = "(unlabeled)"
	}
	tr.Add(trace.Span{
		Name:  label,
		Cat:   trace.CatWorker,
		TID:   1,
		Start: start.Sub(tr.Epoch()),
		Dur:   el,
		Work:  int64(n),
		Busy:  el,
	})
}
