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
// allocate nothing beyond their target matrix (pooled), so what remains
// is about one allocation per reachability product. Products by
// materialized injection matrices allocated ~30k per call here.
func TestRecognizeDCAllocBudget(t *testing.T) {
	// Measured 8015 allocs/call on linux/amd64 (go1.24); the budget
	// leaves ~5% slack for runtime and toolchain drift.
	const budget = 8400
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
