//go:build !race && !pooldebug

// Allocation counts are only meaningful in release builds: the race
// detector and the pooldebug ledger change them.

package obst

import (
	"math/rand"
	"runtime"
	"testing"

	"partree/internal/pram"
)

// TestApproxAllocBudget pins Approx's allocations and heap bytes on a
// lib-par-shaped instance (n=128, ε=1e-6) with one worker. The DP stops
// at its fixed point (10 of H=48 levels here) and draws its band tables
// from the arena, so what remains is mostly the concave products' own
// bookkeeping and two matrix headers per level (the band and the shift
// view).
func TestApproxAllocBudget(t *testing.T) {
	// Measured 999 allocs and 57 136 bytes per call on linux/amd64
	// (go1.24). The byte budget leaves ~5% slack for runtime and
	// toolchain drift; the alloc budget was set at 974 measured.
	const budget, byteBudget = 1025, 60000
	in := libParInstance(rand.New(rand.NewSource(619)), 128)
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	res := Approx(m, in, 1e-6)
	got := testing.AllocsPerRun(5, func() { Approx(m, in, 1e-6) })
	bytes := bytesPerRun(5, func() { Approx(m, in, 1e-6) })
	t.Logf("%.0f allocs/call, %.0f bytes/call over %d of H=%d levels", got, bytes, res.Levels, res.HeightBound)
	if got > budget {
		t.Fatalf("Approx allocated %.0f times per call, budget %d", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("Approx allocated %.0f bytes per call, budget %d", bytes, byteBudget)
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
