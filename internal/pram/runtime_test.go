package pram

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// spin burns roughly ns nanoseconds of CPU per call without touching the
// clock (the adaptive controller must not see its own measurement cost).
func spin(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x += 1.0 / x
	}
	return x
}

var spinSink atomic.Int64

// TestAdaptiveGrainConverges drives the controller with uniform workloads
// at two very different per-element costs and checks the chosen grain
// moves the right way: expensive bodies get small chunks (the other
// workers can rebalance), near-free bodies get large chunks (overhead
// amortized).
func TestAdaptiveGrainConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	if raceEnabled {
		// The controller compares measured ns/element against an absolute
		// target; race instrumentation inflates the "cheap" body past the
		// threshold that makes the grain grow, so the direction assertions
		// are meaningless under -race (flaky at seed on slow hosts).
		t.Skip("timing-dependent: race instrumentation skews per-element cost")
	}
	expensive := New() // adaptive
	for r := 0; r < 8; r++ {
		expensive.For(1<<12, func(i int) {
			spinSink.Add(int64(spin(2000))) // ≈ a few µs per element
		})
	}
	if g := expensive.Grain(); g >= grainDefault {
		t.Errorf("grain after expensive workload = %d, want < default %d", g, grainDefault)
	}

	cheap := New()
	for r := 0; r < 8; r++ {
		cheap.For(1<<16, func(i int) { spinSink.Add(1) })
	}
	if g := cheap.Grain(); g <= grainDefault {
		t.Errorf("grain after cheap workload = %d, want > default %d", g, grainDefault)
	}

	// Uniform workload: once calibrated, successive statements must not
	// swing the grain wildly (EWMA stability).
	m := New()
	for r := 0; r < 6; r++ {
		m.For(1<<12, func(i int) { spinSink.Add(int64(spin(500))) })
	}
	g1 := m.Grain()
	for r := 0; r < 4; r++ {
		m.For(1<<12, func(i int) { spinSink.Add(int64(spin(500))) })
	}
	g2 := m.Grain()
	if g1 < grainMin || g1 > grainMax || g2 < grainMin || g2 > grainMax {
		t.Fatalf("grain out of bounds: %d, %d", g1, g2)
	}
	if g2 > 8*g1 || g1 > 8*g2 {
		t.Errorf("grain unstable on uniform workload: %d then %d", g1, g2)
	}
}

// TestGrainPinnedByWithGrain checks WithGrain disables the controller.
func TestGrainPinnedByWithGrain(t *testing.T) {
	m := New(WithGrain(7))
	for r := 0; r < 4; r++ {
		m.For(1<<12, func(i int) { spinSink.Add(1) })
	}
	if g := m.Grain(); g != 7 {
		t.Errorf("pinned grain drifted: got %d, want 7", g)
	}
	if g := m.Stats().Grain; g != 7 {
		t.Errorf("Stats().Grain = %d, want 7", g)
	}
}

// TestStatsExactForReductionShape checks the counted Steps/Work/Calls for
// a balanced binary reduction over n=1024 on an unbounded-processor
// machine: ⌈log₂ 1024⌉ = 10 statements of one step each, 1023 total
// combining operations.
func TestStatsExactForReductionShape(t *testing.T) {
	m := New(WithWorkers(2), WithGrain(4))
	done := m.Phase("reduce")
	n := 1024
	buf := make([]int, n)
	for i := range buf {
		buf[i] = 1
	}
	for width := 1; width < n; width <<= 1 {
		w := width
		pairs := (n - w + 2*w - 1) / (2 * w)
		m.For(pairs, func(p int) {
			i := p * 2 * w
			if i+w < n {
				buf[i] += buf[i+w]
			}
		})
	}
	done()
	if buf[0] != n {
		t.Fatalf("reduction result = %d, want %d", buf[0], n)
	}
	st := m.Stats()
	ps, ok := st.Phases["reduce"]
	if !ok {
		t.Fatal("phase \"reduce\" missing from Stats")
	}
	if ps.Steps != 10 || ps.Calls != 10 {
		t.Errorf("reduction phase: Steps=%d Calls=%d, want 10 and 10", ps.Steps, ps.Calls)
	}
	if ps.Work != 1023 {
		t.Errorf("reduction phase: Work=%d, want 1023", ps.Work)
	}
	if st.Steps != ps.Steps || st.Work != ps.Work || st.Calls != ps.Calls {
		t.Errorf("totals %+v disagree with single phase %+v", st.PhaseStats, ps)
	}
}

// TestPhaseNestingAndAttribution checks the innermost Phase label wins and
// the restore closure reinstates the outer label.
func TestPhaseNestingAndAttribution(t *testing.T) {
	m := New()
	m.For(10, func(int) {}) // unlabeled

	outer := m.Phase("outer")
	m.For(20, func(int) {})
	inner := m.Phase("inner")
	m.For(30, func(int) {})
	m.Step(5)
	inner()
	m.For(40, func(int) {})
	outer()

	st := m.Stats()
	if w := st.Phases[""].Work; w != 10 {
		t.Errorf("unlabeled work = %d, want 10", w)
	}
	if w := st.Phases["outer"].Work; w != 60 {
		t.Errorf("outer work = %d, want 60", w)
	}
	if w := st.Phases["inner"].Work; w != 35 {
		t.Errorf("inner work = %d, want 35 (30 + Step 5)", w)
	}
	if st.Work != 105 || st.Steps != 9 || st.Calls != 4 {
		t.Errorf("totals = %+v, want Work 105, Steps 9, Calls 4", st.PhaseStats)
	}
	names := st.PhaseNames()
	want := []string{"", "inner", "outer"}
	if len(names) != len(want) {
		t.Fatalf("PhaseNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("PhaseNames = %v, want %v", names, want)
		}
	}
}

// TestBrentStepsWithPhases checks Steps under a bounded processor count
// still follows ⌈n/p⌉ per statement when booked through a phase.
func TestBrentStepsWithPhases(t *testing.T) {
	m := New(WithProcessors(4))
	defer m.Phase("p")()
	m.For(1024, func(int) {})
	m.For(5, func(int) {})
	st := m.Stats()
	if got, want := st.Phases["p"].Steps, int64(256+2); got != want {
		t.Errorf("Steps = %d, want %d", got, want)
	}
}

// TestForMatchesSerialLoop runs the chunked For against the serial loop
// for every combination of GOMAXPROCS ∈ {1,2,8}, workers ∈ {1,2,4,8} and
// grains down to one index per claim (maximum cursor contention), checking
// each index is executed exactly once with the right value.
func TestForMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 10_000
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)*3 + 1
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, w := range []int{1, 2, 4, 8} {
			for _, g := range []int{1, 3, 64} {
				t.Run(fmt.Sprintf("gomaxprocs=%d/workers=%d/grain=%d", procs, w, g), func(t *testing.T) {
					m := New(WithWorkers(w), WithGrain(g))
					counts := make([]int32, n)
					out := make([]int64, n)
					m.For(n, func(i int) {
						atomic.AddInt32(&counts[i], 1)
						out[i] = int64(i)*3 + 1
					})
					for i := 0; i < n; i++ {
						if counts[i] != 1 {
							t.Fatalf("index %d executed %d times", i, counts[i])
						}
						if out[i] != want[i] {
							t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestForRangeCoversOnceUnderStealing checks ForRange's chunked contract:
// the issued sub-ranges tile [0, n) exactly, however the workers' claims
// interleave.
func TestForRangeCoversOnceUnderStealing(t *testing.T) {
	const n = 4096
	m := New(WithWorkers(8), WithGrain(2))
	counts := make([]int32, n)
	var calls atomic.Int32
	m.ForRange(n, func(lo, hi int) {
		calls.Add(1)
		if lo < 0 || hi > n || lo >= hi {
			panic(fmt.Sprintf("bad range [%d,%d)", lo, hi))
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	if calls.Load() < 2 {
		t.Errorf("expected multiple chunked calls, got %d", calls.Load())
	}
}

// TestSkewedStatementObserved forces an imbalanced statement — one index
// sleeps — and checks the measured Stats counters stay plausible and
// book the slow chunk.
func TestSkewedStatementObserved(t *testing.T) {
	m := New(WithWorkers(2), WithGrain(1))
	const n = 64
	m.For(n, func(i int) {
		if i == n/2 {
			time.Sleep(5 * time.Millisecond)
		}
	})
	st := m.Stats()
	if st.Span <= 0 || st.Span > 10*time.Second {
		t.Errorf("implausible span %v", st.Span)
	}
	if st.BarrierWait < 0 {
		t.Errorf("negative barrier wait %v", st.BarrierWait)
	}
	if st.Busy < 5*time.Millisecond {
		t.Errorf("busy %v should include the sleeping chunk", st.Busy)
	}
}

// TestSchedStructsPadded pins the cache-line padding of the per-worker
// scheduler structures: they live in contiguous slices, so their sizes
// must be multiples of 128 (two lines — adjacent-line prefetch pulls
// pairs) or every stat update false-shares with the neighbouring worker.
// The chunk cursor is allocated on its own and padded the same way, so
// every claim's atomic add leaves the statement parameters' lines alone.
func TestSchedStructsPadded(t *testing.T) {
	if s := unsafe.Sizeof(cursor{}); s%128 != 0 {
		t.Errorf("cursor size %d is not a multiple of 128", s)
	}
	if s := unsafe.Sizeof(workerStats{}); s%128 != 0 {
		t.Errorf("workerStats size %d is not a multiple of 128", s)
	}
}

// TestResetKeepsCalibration checks Reset zeroes the counters and phases
// but keeps the adaptive controller's cost estimate.
func TestResetKeepsCalibration(t *testing.T) {
	m := New()
	for r := 0; r < 6; r++ {
		m.For(1<<12, func(i int) { spinSink.Add(int64(spin(1000))) })
	}
	gBefore := m.Grain()
	m.Reset()
	st := m.Stats()
	if st.Steps != 0 || st.Work != 0 || st.Calls != 0 || len(st.Phases) != 0 {
		t.Errorf("Reset left counters: %+v, phases %v", st.PhaseStats, st.PhaseNames())
	}
	if gAfter := m.Grain(); gAfter != gBefore {
		t.Errorf("Reset dropped grain calibration: %d → %d", gBefore, gAfter)
	}
}
