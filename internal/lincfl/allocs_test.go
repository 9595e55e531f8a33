//go:build !race && !pooldebug

// Allocation counts are only meaningful in release builds: the race
// detector and the pooldebug ledger change them.

package lincfl

import (
	"runtime"
	"testing"

	"partree/internal/grammar"
	"partree/internal/pram"
)

// TestRecognizeDCAllocBudget pins the separator recursion's allocations
// on the n=127 palindrome with one worker: boundary moves between regions
// allocate nothing, products run on the serial kernel without a
// statement of their own, and the region table is one slice of entries
// plus one slab holding every region matrix and every combine's
// intermediates. What remains is per-call and per-level bookkeeping.
// Products by materialized injection matrices allocated ~30k per call
// here, and one MulPar statement per product about 8k.
func TestRecognizeDCAllocBudget(t *testing.T) {
	// Measured 32 allocs/call on linux/amd64 (go1.24); the budget
	// leaves 4 for runtime and toolchain drift.
	const budget = 36
	g := grammar.Palindrome()
	w := palindromeWord(127)
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	if !RecognizeDC(m, g, w).Accepted {
		t.Fatal("palindrome rejected")
	}
	if got := testing.AllocsPerRun(5, func() { RecognizeDC(m, g, w) }); got > budget {
		t.Fatalf("RecognizeDC allocated %.0f times per call, budget %d", got, budget)
	}
}

// TestRecognizeDCBytesBudget pins the bytes a palindrome's recognition
// allocates per call with one worker, nearly all of them the slab: the
// region matrices, and scratch for the largest level's combines,
// reserved to the word. n = 257 is the size the lib-par benchmark
// workload recognizes.
func TestRecognizeDCBytesBudget(t *testing.T) {
	// Measured on linux/amd64 (go1.24); each budget leaves 5% for
	// runtime and toolchain drift.
	for _, tc := range []struct {
		n, measured, budget uint64
	}{
		{n: 127, measured: 800_969, budget: 841_017},
		{n: 257, measured: 3_333_044, budget: 3_499_696},
	} {
		g := grammar.Palindrome()
		w := palindromeWord(int(tc.n))
		m := pram.New(pram.WithWorkers(1))
		RecognizeDC(m, g, w)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			RecognizeDC(m, g, w)
		}
		runtime.ReadMemStats(&after)
		m.Close()
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("n=%d: %d bytes/call (measured %d)", tc.n, got, tc.measured)
		if got > tc.budget {
			t.Errorf("n=%d: RecognizeDC allocated %d bytes per call, budget %d", tc.n, got, tc.budget)
		}
	}
}
