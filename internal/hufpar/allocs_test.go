//go:build !race && !pooldebug

// Allocation counts are only meaningful in release builds: the race
// detector makes sync.Pool drop items at random, and pooldebug turns off
// Matrix header reuse so released matrices stay detectable.

package hufpar

import (
	"math/rand"
	"sort"
	"testing"

	"partree/internal/pram"
)

// TestBuildConcaveAllocBudget pins BuildConcave's allocations on a
// lib-par-shaped instance (n=256 integer weights in [1, 1000]) with one
// worker: 2⌈log n⌉ concave products whose tables come from the arena,
// plus the cut tables kept for reconstruction and the tree itself.
func TestBuildConcaveAllocBudget(t *testing.T) {
	// Measured 1 759 allocs/call on linux/amd64 (go1.24); the budget
	// leaves ~5% slack for runtime and toolchain drift.
	const budget = 1845
	rng := rand.New(rand.NewSource(619))
	w := make([]float64, 256)
	for i := range w {
		w[i] = float64(1 + rng.Intn(1000))
	}
	sort.Float64s(w)
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	BuildConcave(m, w)
	got := testing.AllocsPerRun(5, func() { BuildConcave(m, w) })
	t.Logf("%.0f allocs/call", got)
	if got > budget {
		t.Fatalf("BuildConcave allocated %.0f times per call, budget %d", got, budget)
	}
}
