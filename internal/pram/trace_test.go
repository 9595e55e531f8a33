package pram

import (
	"sync/atomic"
	"testing"

	"partree/internal/trace"
)

// sumPhaseSpans folds a trace's phase spans into per-label PhaseStats.
func sumPhaseSpans(tr *trace.Trace) map[string]PhaseStats {
	out := make(map[string]PhaseStats)
	for _, s := range tr.Spans() {
		if s.Cat != trace.CatPhase {
			continue
		}
		ps := out[s.Name]
		ps.Steps += s.Steps
		ps.Work += s.Work
		ps.Calls += s.Calls
		ps.Span += s.SpanEst
		ps.Busy += s.Busy
		ps.BarrierWait += s.BarrierWait
		out[s.Name] = ps
	}
	return out
}

// TestTracerDisarmedZeroAlloc: with no tracer attached, a phased serial
// statement allocates nothing — the hooks must stay invisible on the hot
// path (the same bar the PR that made Phase/serial-For alloc-free set).
func TestTracerDisarmedZeroAlloc(t *testing.T) {
	m := New(WithWorkers(1), WithGrain(64))
	var sink atomic.Int64
	body := func(i int) { sink.Add(int64(i)) }
	step := func() {
		done := m.Phase("alloc.probe")
		m.For(256, body)
		done()
	}
	step() // warm the phase map so the measurement sees steady state
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("disarmed phased For allocates %.1f per run, want 0", avg)
	}
}

// TestPhaseSpansMatchStats: armed, every Phase window closes into one
// span whose counted deltas reproduce the label's Stats() entry exactly —
// across serial and multi-worker statements.
func TestPhaseSpansMatchStats(t *testing.T) {
	tr := trace.New(0)
	m := New(WithWorkers(4), WithGrain(32), WithProcessors(8))
	m.SetTracer(tr)

	var sink atomic.Int64
	phaseA := func() {
		defer m.Phase("kernel.a")()
		m.For(1000, func(i int) { sink.Add(1) })
		m.Step(3)
	}
	phaseB := func() {
		defer m.Phase("kernel.b")()
		m.ForRange(577, func(lo, hi int) { sink.Add(int64(hi - lo)) })
	}
	for round := 0; round < 3; round++ {
		phaseA()
		phaseB()
	}

	got := sumPhaseSpans(tr)
	want := m.Stats().Phases
	for _, label := range []string{"kernel.a", "kernel.b"} {
		g, w := got[label], want[label]
		if g.Steps != w.Steps || g.Work != w.Work || g.Calls != w.Calls {
			t.Errorf("%s: spans sum to steps=%d work=%d calls=%d; Stats has steps=%d work=%d calls=%d",
				label, g.Steps, g.Work, g.Calls, w.Steps, w.Work, w.Calls)
		}
		if g.Span != w.Span || g.Busy != w.Busy || g.BarrierWait != w.BarrierWait {
			t.Errorf("%s: measured deltas diverge from Stats: spans %+v, stats %+v", label, g, w)
		}
	}
	// Span attributes carry the machine shape.
	for _, s := range tr.Spans() {
		if s.Cat == trace.CatPhase && (s.P != 8 || s.W != 4) {
			t.Errorf("phase span %s: P=%d W=%d, want P=8 W=4", s.Name, s.P, s.W)
		}
	}
}

// TestReentrantPhaseSpans: a label opened recursively (outer window still
// open while an inner same-label window closes) must not double-count —
// the per-label span sum still equals Stats exactly.
func TestReentrantPhaseSpans(t *testing.T) {
	tr := trace.New(0)
	m := New(WithWorkers(1), WithGrain(16))
	m.SetTracer(tr)

	var sink atomic.Int64
	var recurse func(depth int)
	recurse = func(depth int) {
		defer m.Phase("kernel.rec")()
		m.For(100, func(i int) { sink.Add(1) })
		if depth > 0 {
			recurse(depth - 1)
		}
		m.For(50, func(i int) { sink.Add(1) })
	}
	recurse(3)

	got := sumPhaseSpans(tr)["kernel.rec"]
	want := m.Stats().Phases["kernel.rec"]
	if got.Work != want.Work || got.Steps != want.Steps || got.Calls != want.Calls {
		t.Fatalf("re-entrant label: spans sum work=%d steps=%d calls=%d; Stats work=%d steps=%d calls=%d",
			got.Work, got.Steps, got.Calls, want.Work, want.Steps, want.Calls)
	}
	// 4 windows (depth 3..0) must have produced 4 spans.
	n := 0
	for _, s := range tr.Spans() {
		if s.Cat == trace.CatPhase && s.Name == "kernel.rec" {
			n++
		}
	}
	if n != 4 {
		t.Errorf("%d phase spans, want 4", n)
	}
}

// TestWorkerSlicesCoverStatement: a multi-worker statement emits one
// CatWorker slice per executing worker and the slices' element counts
// partition the iteration space.
func TestWorkerSlicesCoverStatement(t *testing.T) {
	tr := trace.New(0)
	m := New(WithWorkers(4), WithGrain(16))
	m.SetTracer(tr)

	const n = 4096
	var sink atomic.Int64
	func() {
		defer m.Phase("kernel.slices")()
		m.For(n, func(i int) { sink.Add(1) })
	}()

	var elems int64
	tids := make(map[int]bool)
	for _, s := range tr.Spans() {
		if s.Cat != trace.CatWorker {
			continue
		}
		if s.Name != "kernel.slices" {
			t.Errorf("worker slice labeled %q, want kernel.slices", s.Name)
		}
		if s.TID < 1 || s.TID > 4 {
			t.Errorf("worker slice tid %d outside 1..4", s.TID)
		}
		tids[s.TID] = true
		elems += s.Work
	}
	if elems != n {
		t.Errorf("worker slices cover %d elements, want %d", elems, n)
	}
	if len(tids) != 4 {
		t.Errorf("slices from %d workers, want 4", len(tids))
	}
}

// TestSerialStatementEmitsSlice: the single-worker fast paths emit one
// slice on lane 1 carrying the whole statement.
func TestSerialStatementEmitsSlice(t *testing.T) {
	tr := trace.New(0)
	m := New(WithWorkers(1), WithGrain(64))
	m.SetTracer(tr)
	var sink atomic.Int64
	m.For(100, func(i int) { sink.Add(1) })

	var slices []trace.Span
	for _, s := range tr.Spans() {
		if s.Cat == trace.CatWorker {
			slices = append(slices, s)
		}
	}
	if len(slices) != 1 || slices[0].TID != 1 || slices[0].Work != 100 || slices[0].Name != "(unlabeled)" {
		t.Fatalf("serial slice = %+v, want one lane-1 slice of 100 unlabeled elements", slices)
	}
}

// TestSetTracerDisarms: detaching mid-life stops recording; the earlier
// spans stay.
func TestSetTracerDisarms(t *testing.T) {
	tr := trace.New(0)
	m := New(WithWorkers(1))
	m.SetTracer(tr)
	var sink atomic.Int64
	m.For(10, func(i int) { sink.Add(1) })
	before := tr.Len()
	if before == 0 {
		t.Fatal("armed statement recorded nothing")
	}
	m.SetTracer(nil)
	if m.Tracer() != nil {
		t.Fatal("Tracer() non-nil after disarm")
	}
	m.For(10, func(i int) { sink.Add(1) })
	if tr.Len() != before {
		t.Errorf("disarmed statement recorded spans: %d → %d", before, tr.Len())
	}
}
