//go:build !race && !pooldebug

// Allocation counts are only meaningful in release builds: the race
// detector makes sync.Pool drop items at random, and pooldebug turns off
// Matrix header reuse so released matrices stay detectable.

package lincfl

import (
	"testing"

	"partree/internal/grammar"
	"partree/internal/pram"
)

// TestRecognizeDCAllocBudget pins the separator recursion's allocations
// on the n=127 palindrome with one worker: boundary moves between regions
// allocate nothing beyond their target matrix (pooled), products run on
// the serial kernel without a statement of their own, and the region
// table is one slice of entries plus one slab holding every region
// matrix. What remains is per-call and per-level bookkeeping. Products
// by materialized injection matrices allocated ~30k per call here, and
// one MulPar statement per product about 8k.
func TestRecognizeDCAllocBudget(t *testing.T) {
	// Measured 42–43 allocs/call on linux/amd64 (go1.24); the budget
	// leaves a few for runtime and toolchain drift.
	const budget = 48
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
