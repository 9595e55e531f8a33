package pram

import (
	"sync"
	"sync/atomic"
	"testing"

	"partree/internal/trace"
)

// Edge-case coverage for the scheduler's chunk claiming: statements
// smaller than the worker pool, grains larger than the statement, and
// the ForRange call-count contract.

// countWorkerSpans runs one traced statement and returns how many
// CatWorker slices it emitted — the observable worker count.
func countWorkerSpans(t *testing.T, m *Machine, n int, body func(i int)) int {
	t.Helper()
	tr := trace.New(0)
	m.SetTracer(tr)
	defer m.SetTracer(nil)
	m.For(n, body)
	count := 0
	for _, s := range tr.Spans() {
		if s.Cat == trace.CatWorker {
			count++
		}
	}
	return count
}

// TestForFewerElementsThanWorkers: n < workers must still execute every
// index exactly once and must not dispatch more workers than chunks.
func TestForFewerElementsThanWorkers(t *testing.T) {
	m := New(WithWorkers(8), WithGrain(1))
	var hits [3]atomic.Int32
	if got := countWorkerSpans(t, m, len(hits), func(i int) { hits[i].Add(1) }); got != len(hits) {
		t.Errorf("worker spans = %d, want %d (one per chunk, not per pool worker)", got, len(hits))
	}
	for i := range hits {
		if c := hits[i].Load(); c != 1 {
			t.Errorf("index %d executed %d times, want 1", i, c)
		}
	}
}

// TestForGrainLargerThanN: a statement that fits in one grain runs
// serially on the caller — one chunk, no pool dispatch, full coverage.
func TestForGrainLargerThanN(t *testing.T) {
	m := New(WithWorkers(4), WithGrain(100))
	before := SpawnedWorkers()
	var hits [10]int // no atomics: serial execution is part of the contract
	m.For(len(hits), func(i int) { hits[i]++ })
	for i, c := range hits {
		if c != 1 {
			t.Errorf("index %d executed %d times, want 1", i, c)
		}
	}
	if d := SpawnedWorkers() - before; d != 0 {
		t.Errorf("serial statement spawned %d workers, want 0", d)
	}
}

// TestWorkerCountReducedToChunks: when ⌈n/g⌉ < workers the statement
// must shrink to one worker per chunk rather than waking idle workers.
func TestWorkerCountReducedToChunks(t *testing.T) {
	m := New(WithWorkers(8), WithGrain(16))
	var n atomic.Int64
	// 40 elements at grain 16 → 3 chunks → 3 workers.
	if got := countWorkerSpans(t, m, 40, func(i int) { n.Add(1) }); got != 3 {
		t.Errorf("worker spans = %d, want 3 (⌈40/16⌉ chunks)", got)
	}
	if n.Load() != 40 {
		t.Errorf("executed %d iterations, want 40", n.Load())
	}
}

// TestEvenChunk: the chunk size a statement runs with never exceeds the
// grain, splits uniform work into as few rounds of w chunks as the grain
// allows, and leaves less than one index of slack per chunk — so a
// statement of one or two grains on two workers splits in half instead
// of into a full grain and a sliver.
func TestEvenChunk(t *testing.T) {
	for _, c := range []struct{ n, w, g, want int }{
		{1100, 2, 1000, 550},
		{1500, 2, 1000, 750},
		{3500, 2, 1000, 875},
		{64, 2, 1, 1},
		{40, 3, 16, 14},
	} {
		if got := evenChunk(c.n, c.w, c.g); got != c.want {
			t.Errorf("evenChunk(%d, %d, %d) = %d, want %d", c.n, c.w, c.g, got, c.want)
		}
	}
	for n := 1; n <= 300; n++ {
		for g := 1; g <= 40; g++ {
			for w := 1; w <= 8 && w <= (n+g-1)/g; w++ {
				c := evenChunk(n, w, g)
				rounds := (n + g*w - 1) / (g * w)
				if c < 1 || c > g {
					t.Fatalf("evenChunk(%d, %d, %d) = %d, want within [1, %d]", n, w, g, c, g)
				}
				if chunks := (n + c - 1) / c; chunks > rounds*w {
					t.Fatalf("evenChunk(%d, %d, %d) = %d: %d chunks, more than %d rounds of %d", n, w, g, c, chunks, rounds, w)
				}
				if slack := rounds*w*c - n; slack >= rounds*w {
					t.Fatalf("evenChunk(%d, %d, %d) = %d leaves %d indices of slack over %d chunks", n, w, g, c, slack, rounds*w)
				}
			}
		}
	}
}

// TestForRangeCallCountTolerance: ForRange bodies must tolerate any
// number of calls; the scheduler guarantees only that the calls are
// disjoint, cover [0, n), and number at least 1 and at most n.
func TestForRangeCallCountTolerance(t *testing.T) {
	const n = 64
	m := New(WithWorkers(4), WithGrain(8))
	var mu sync.Mutex
	calls := 0
	seen := make([]int, n)
	for rep := 0; rep < 4; rep++ {
		mu.Lock()
		calls = 0
		for i := range seen {
			seen[i] = 0
		}
		mu.Unlock()
		m.ForRange(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad range [%d, %d)", lo, hi)
			}
			mu.Lock()
			calls++
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		mu.Lock()
		if calls < 1 || calls > n {
			t.Errorf("rep %d: %d body calls, want within [1, %d]", rep, calls, n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("rep %d: index %d covered %d times, want 1", rep, i, c)
			}
		}
		mu.Unlock()
	}
}
