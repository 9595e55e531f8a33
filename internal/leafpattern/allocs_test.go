//go:build !race && !pooldebug

// Allocation counts are only meaningful in release builds: the race
// detector makes sync.Pool drop items at random.

package leafpattern

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"partree/internal/huffman"
	"partree/internal/pram"
	"partree/internal/workload"
)

// TestMonotoneParAllocBudget pins MonotonePar's allocations and heap bytes
// on a lib-par-shaped instance with one worker: the sorted Huffman code
// lengths of 32 768 log-normal weights (Kraft sum 1). The tree is one
// slab of 2n−1 nodes, so the bytes are that slab plus O(L) level tables
// and the word-sized scan over the L+1 levels.
func TestMonotoneParAllocBudget(t *testing.T) {
	// Measured 32 allocs and 2 103 200 bytes per call on linux/amd64
	// (go1.24); the budgets leave ~5% slack for runtime and toolchain
	// drift.
	const budget, byteBudget = 33, 2220000
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 1<<15)
	for i := range w {
		w[i] = math.Exp(2 * rng.NormFloat64())
	}
	p := huffman.CodeLengths(huffman.Build(w), len(w))
	sort.Ints(p)
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	call := func() {
		if _, err := MonotonePar(m, p); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(5, call)
	bytes := bytesPerRun(5, call)
	t.Logf("%.0f allocs/call, %.0f bytes/call", got, bytes)
	if got > budget {
		t.Fatalf("MonotonePar allocated %.0f times per call, budget %d", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("MonotonePar allocated %.0f bytes per call, budget %d", bytes, byteBudget)
	}
}

// TestMonotoneParCaterpillarAllocBudget pins MonotonePar on the deepest
// Kraft-1 pattern, the caterpillar 1, 2, …, n−1, n−1 at n = 32 768, where
// L = n − 1 levels make the internal-node scan as long as the pattern.
// Its elements are three words each, so the bytes stay linear in n:
// scanning L-bit big integers took 1.17 GB here. The tree must still be
// the sequential oracle's, node for node.
func TestMonotoneParCaterpillarAllocBudget(t *testing.T) {
	// Measured 53 allocs and 6 842 800 bytes per call on linux/amd64
	// (go1.24); the budgets leave ~5% slack for runtime and toolchain
	// drift.
	const budget, byteBudget = 55, 7190000
	const n = 1 << 15
	p := make([]int, n)
	for i := range p {
		p[i] = min(i+1, n-1)
	}
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	checkSameTree(t, m, "MonotonePar", p, seqMonotone, MonotonePar)
	call := func() {
		if _, err := MonotonePar(m, p); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(5, call)
	bytes := bytesPerRun(5, call)
	t.Logf("%.0f allocs/call, %.0f bytes/call", got, bytes)
	if got > budget {
		t.Fatalf("MonotonePar allocated %.0f times per call, budget %d", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("MonotonePar allocated %.0f bytes per call, budget %d", bytes, byteBudget)
	}
}

// TestBuildAllocBudget pins Build's allocations and heap bytes on a random
// full-tree pattern of 2¹⁴ leaves with one worker. Each Finger-Reduction
// round makes one link call for all of its fingers, so the allocations
// are some dozens per round instead of one per node.
func TestBuildAllocBudget(t *testing.T) {
	// Measured 415 allocs and 6 347 700 bytes per call on linux/amd64
	// (go1.24); the budgets leave ~5% slack for runtime and toolchain
	// drift.
	const budget, byteBudget = 436, 6670000
	p := workload.TreePattern(rand.New(rand.NewSource(1)), 1<<14)
	m := pram.New(pram.WithWorkers(1))
	defer m.Close()
	call := func() {
		if _, _, err := Build(m, p); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(5, call)
	bytes := bytesPerRun(5, call)
	t.Logf("%.0f allocs/call, %.0f bytes/call", got, bytes)
	if got > budget {
		t.Fatalf("Build allocated %.0f times per call, budget %d", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("Build allocated %.0f bytes per call, budget %d", bytes, byteBudget)
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
