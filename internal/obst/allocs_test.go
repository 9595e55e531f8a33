//go:build !race && !pooldebug

// Allocation counts are only meaningful in release builds: the race
// detector makes sync.Pool drop items at random, and pooldebug turns off
// Matrix header reuse so released matrices stay detectable.

package obst

import (
	"math/rand"
	"testing"

	"partree/internal/pram"
)

// TestApproxAllocBudget pins Approx's allocations on a lib-par-shaped
// instance (n=128, ε=1e-6) with one worker. The DP stops at its fixed
// point (10 of H=48 levels here) and reuses three pooled level tables,
// so what remains is mostly the concave products' own bookkeeping.
func TestApproxAllocBudget(t *testing.T) {
	// Measured 974 allocs/call on linux/amd64 (go1.24); the budget
	// leaves ~5% slack for runtime and toolchain drift.
	const budget = 1025
	in := libParInstance(rand.New(rand.NewSource(619)), 128)
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	res := Approx(m, in, 1e-6)
	got := testing.AllocsPerRun(5, func() { Approx(m, in, 1e-6) })
	t.Logf("%.0f allocs/call over %d of H=%d levels", got, res.Levels, res.HeightBound)
	if got > budget {
		t.Fatalf("Approx allocated %.0f times per call, budget %d", got, budget)
	}
}
