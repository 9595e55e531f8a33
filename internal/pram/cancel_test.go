package pram

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunWithoutContextCompletes(t *testing.T) {
	m := New(WithWorkers(4))
	var sum atomic.Int64
	err := m.Run(func() {
		m.For(1000, func(i int) { sum.Add(int64(i)) })
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if want := int64(1000 * 999 / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestSetContextIgnoresUncancelable(t *testing.T) {
	m := New()
	m.SetContext(context.Background())
	if m.ctx != nil {
		t.Fatal("Background context was attached; want ignored (Done() == nil)")
	}
	m.SetContext(nil)
	if m.ctx != nil {
		t.Fatal("nil context not detached")
	}
}

func TestPreCanceledContextAbortsBeforeAnyIteration(t *testing.T) {
	m := New(WithWorkers(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetContext(ctx)
	ran := false
	err := m.Run(func() {
		m.For(100, func(i int) { ran = true })
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("body ran despite pre-canceled context")
	}
}

func TestDeadlineExceededSurfaces(t *testing.T) {
	m := New(WithWorkers(2))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	m.SetContext(ctx)
	err := m.Run(func() {
		for {
			m.For(1024, func(i int) { time.Sleep(10 * time.Microsecond) })
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelMidStatementSerial exercises the w==1 fast path's chunked
// polling: cancellation fires from inside the body and must cut the
// statement within one grain, not run all n iterations.
func TestCancelMidStatementSerial(t *testing.T) {
	m := New(WithWorkers(1), WithGrain(32))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.SetContext(ctx)
	const n = 1 << 20
	var executed int
	err := m.Run(func() {
		m.For(n, func(i int) {
			executed++
			if executed == 100 {
				cancel()
			}
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// 100 iterations trigger the cancel; the current grain (32) may finish
	// plus at most one more chunk boundary check. Be generous but strict
	// enough to prove the statement did not run to completion.
	if executed >= n {
		t.Fatalf("executed all %d iterations despite cancellation", executed)
	}
	if executed > 100+2*32 {
		t.Fatalf("executed %d iterations after cancel; want cut within one grain", executed)
	}
}

// TestCancelMidStatementParallel cancels while workers are executing a
// skewed statement and asserts the barrier aborts, workers bail, and no
// goroutines leak.
func TestCancelMidStatementParallel(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(WithWorkers(4), WithGrain(8))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.SetContext(ctx)
	var executed atomic.Int64
	err := m.Run(func() {
		m.For(1<<20, func(i int) {
			if executed.Add(1) == 50 {
				cancel()
			}
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n >= 1<<20 {
		t.Fatalf("all %d iterations ran despite cancellation", n)
	}
	waitForGoroutines(t, before)
}

// TestCancelThenNarrowerStatementCoversOnce cancels a wide parallel
// statement mid-way, then runs a narrower parallel statement on the same
// machine: it must execute every one of its indices exactly once. The
// cancelled statement leaves its chunk cursor past zero and part of its
// range unclaimed; neither may leak into the next statement.
func TestCancelThenNarrowerStatementCoversOnce(t *testing.T) {
	m := New(WithWorkers(4), WithGrain(4))
	for rep := 0; rep < 20; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		m.SetContext(ctx)
		var executed atomic.Int64
		err := m.Run(func() {
			m.For(1<<16, func(i int) {
				if executed.Add(1) == 100 {
					cancel()
				}
			})
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rep %d: wide statement Run = %v, want context.Canceled", rep, err)
		}
		m.SetContext(nil)
		const n = 10 // ⌈10/4⌉ = 3 chunks → 3 of the 4 workers
		var hits [n]atomic.Int32
		if err := m.Run(func() { m.For(n, func(i int) { hits[i].Add(1) }) }); err != nil {
			t.Fatalf("rep %d: narrow statement Run = %v", rep, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("rep %d: index %d executed %d times after a cancelled statement, want 1", rep, i, c)
			}
		}
	}
}

// TestCancelForRange checks the chunked (ForRange) path unwinds too.
func TestCancelForRange(t *testing.T) {
	m := New(WithWorkers(4), WithGrain(8))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.SetContext(ctx)
	var calls atomic.Int64
	err := m.Run(func() {
		for {
			m.ForRange(1<<16, func(lo, hi int) {
				if calls.Add(1) == 3 {
					cancel()
				}
			})
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

// TestCanceledHelperVisibleFromBodies checks the cooperative helpers
// worker bodies use to skip work without panicking.
func TestCanceledHelperVisibleFromBodies(t *testing.T) {
	m := New(WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.SetContext(ctx)
	if m.Canceled() || m.Err() != nil {
		t.Fatal("machine canceled before its context")
	}
	cancel()
	if !m.Canceled() || !errors.Is(m.Err(), context.Canceled) {
		t.Fatal("Canceled()/Err() did not observe the canceled context")
	}
}

// TestRunPassesForeignPanics: only the internal abort panic is converted
// to an error; kernel bugs keep panicking.
func TestRunPassesForeignPanics(t *testing.T) {
	m := New()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	_ = m.Run(func() { panic("boom") })
	t.Fatal("Run swallowed a foreign panic")
}

// TestCancelAfterAbortMachineReusableForStats: Stats() on an aborted
// machine must not deadlock or panic (callers read stats for logging
// before discarding the machine).
func TestCancelAfterAbortMachineStats(t *testing.T) {
	m := New(WithWorkers(2), WithGrain(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetContext(ctx)
	_ = m.Run(func() { m.For(100, func(int) {}) })
	_ = m.Stats()
	_ = m.Counters()
}

// TestCheckpointsUncounted: a canceled-then-aborted statement books no
// steps or work, and checkpoints on the happy path cost nothing counted.
func TestCheckpointsUncounted(t *testing.T) {
	plain := New(WithProcessors(4), WithWorkers(2))
	plain.For(100, func(int) {})
	want := plain.Counters()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := New(WithProcessors(4), WithWorkers(2))
	withCtx.SetContext(ctx)
	if err := withCtx.Run(func() { withCtx.For(100, func(int) {}) }); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if got := withCtx.Counters(); got.Steps != want.Steps || got.Work != want.Work || got.Calls != want.Calls {
		t.Fatalf("counters with context = %+v, want %+v (checkpoints must be uncounted)", got, want)
	}

	aborted := New(WithProcessors(4), WithWorkers(2))
	actx, acancel := context.WithCancel(context.Background())
	acancel()
	aborted.SetContext(actx)
	_ = aborted.Run(func() { aborted.For(100, func(int) {}) })
	if got := aborted.Counters(); got.Steps != 0 || got.Work != 0 || got.Calls != 0 {
		t.Fatalf("aborted statement booked cost %+v, want zero", got)
	}
}

// waitForGoroutines polls until the goroutine count returns to (at most)
// the baseline, tolerating runtime background noise, and fails after 5s.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
