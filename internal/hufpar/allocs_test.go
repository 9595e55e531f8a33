//go:build !race && !pooldebug

// Allocation counts are only meaningful in release builds: the race
// detector and the pooldebug ledger change them.

package hufpar

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"partree/internal/pram"
)

// TestBuildConcaveAllocBudget pins BuildConcave's allocations and heap
// bytes on a lib-par-shaped instance (n=256 integer weights in
// [1, 1000]) with one worker: 2⌈log n⌉ concave products whose span
// tables come from the arena, plus the cut tables kept for
// reconstruction and the tree itself. Every (n+1)² table is gone, so the
// bytes are headers, closures and the tree.
func TestBuildConcaveAllocBudget(t *testing.T) {
	// Measured 1 755 allocs and 71 264 bytes per call on linux/amd64
	// (go1.24); the budgets leave ~5% slack for runtime and toolchain
	// drift.
	const budget, byteBudget = 1843, 75000
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
	bytes := bytesPerRun(5, func() { BuildConcave(m, w) })
	t.Logf("%.0f allocs/call, %.0f bytes/call", got, bytes)
	if got > budget {
		t.Fatalf("BuildConcave allocated %.0f times per call, budget %d", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("BuildConcave allocated %.0f bytes per call, budget %d", bytes, byteBudget)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean growth of
// runtime.MemStats.TotalAlloc over runs calls of f at GOMAXPROCS 1,
// after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
