package hufpar

import (
	"math"
	"math/rand"
	"testing"

	"partree/internal/huffman"
	"partree/internal/pram"
	"partree/internal/workload"
	"partree/internal/xmath"
)

func mach() *pram.Machine { return pram.New(pram.WithWorkers(4), pram.WithGrain(64)) }

func sortedVectors(rng *rand.Rand, trial int) []float64 {
	n := 1 + rng.Intn(48)
	switch trial % 4 {
	case 0:
		return workload.SortedAscending(workload.Random(rng, n))
	case 1:
		return workload.SortedAscending(workload.Zipf(n, 1.2))
	case 2:
		return workload.SortedAscending(workload.Geometric(n, 0.8))
	default:
		return workload.Fibonacci(n) // already increasing
	}
}

// Theorem 3.1 correctness: the RAKE/COMPRESS DP equals the sequential
// optimum on sorted vectors.
func TestCostRakeCompressMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	m := mach()
	for trial := 0; trial < 40; trial++ {
		w := sortedVectors(rng, trial)
		want := huffman.Cost(w)
		got := CostRakeCompress(m, w)
		if !xmath.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("trial %d n=%d: rake/compress %v, sequential %v", trial, len(w), got, want)
		}
	}
}

func TestCostRakeCompressSmallKnown(t *testing.T) {
	m := mach()
	if got := CostRakeCompress(m, []float64{1}); got != 0 {
		t.Errorf("n=1 cost = %v", got)
	}
	if got := CostRakeCompress(m, []float64{0.4, 0.6}); got != 1 {
		t.Errorf("n=2 cost = %v", got)
	}
	// (1,1,2): depths 2,2,1 → cost 1·2+1·2+2·1 = 6.
	if got := CostRakeCompress(m, []float64{1, 1, 2}); got != 6 {
		t.Errorf("n=3 cost = %v, want 6", got)
	}
}

func TestCostRakeCompressRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted input must panic")
		}
	}()
	CostRakeCompress(mach(), []float64{3, 1})
}

// Theorem 3.1 round structure: the algorithm issues O(log n) parallel
// statements regardless of n.
func TestRakeCompressRoundCount(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		m := pram.New() // unbounded processors
		w := workload.SortedAscending(workload.Random(rand.New(rand.NewSource(1)), n))
		CostRakeCompress(m, w)
		steps := m.Counters().Steps
		want := int64(2*xmath.CeilLog2(n) + 1) // H rounds + F init + F rounds
		if steps != want {
			t.Errorf("n=%d: %d parallel statements, want %d", n, steps, want)
		}
	}
}

// Theorem 5.1 correctness: cost and reconstructed tree both match the
// sequential optimum, and the tree is a valid left-justified positional
// tree over the sorted leaves.
func TestBuildConcaveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	m := mach()
	for trial := 0; trial < 40; trial++ {
		w := sortedVectors(rng, trial)
		want := huffman.Cost(w)
		res := BuildConcave(m, w)
		if !xmath.AlmostEqual(res.Cost, want, 1e-9) {
			t.Fatalf("trial %d n=%d: concave cost %v, sequential %v", trial, len(w), res.Cost, want)
		}
		if got := res.Tree.WeightedPathLength(); !xmath.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: tree WPL %v ≠ optimal %v", trial, got, want)
		}
		if err := res.Tree.Validate(); err != nil {
			t.Fatalf("trial %d: invalid tree: %v", trial, err)
		}
		leaves := res.Tree.Leaves()
		if len(leaves) != len(w) {
			t.Fatalf("trial %d: %d leaves, want %d", trial, len(leaves), len(w))
		}
		for i, leaf := range leaves {
			if leaf.Symbol != i {
				t.Fatalf("trial %d: leaf %d has symbol %d (positional order broken)", trial, i, leaf.Symbol)
			}
		}
	}
}

// Lemma 3.1, observed: the reconstructed optimal tree for a monotone
// vector is left-justified.
func TestBuildConcaveTreeLeftJustified(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	m := mach()
	for trial := 0; trial < 20; trial++ {
		w := sortedVectors(rng, trial)
		res := BuildConcave(m, w)
		if !res.Tree.IsLeftJustified() {
			t.Fatalf("trial %d n=%d: reconstructed tree not left-justified:\n%s",
				trial, len(w), res.Tree)
		}
	}
}

func TestBuildConcaveSingle(t *testing.T) {
	res := BuildConcave(mach(), []float64{0.7})
	if res.Cost != 0 || !res.Tree.IsLeaf() {
		t.Error("single-symbol result wrong")
	}
}

// TestBuildConcaveWorkAndDepth checks Theorem 5.1 on counted quantities
// over n = 2⁴ … 2¹⁰: comparisons stay within cCmp·n²·log n (against n³
// for the naive DP) and the statement depth within cSteps·(log n + 1)²,
// 2⌈log n⌉ products of O(log n) statements each. Both ratios peak at
// n = 16 and fall as n grows: 1.39 for comparisons and 3.88 for steps,
// so cCmp = 2 and cSteps = 5. The test logs the peaks.
func TestBuildConcaveWorkAndDepth(t *testing.T) {
	const cCmp, cSteps = 2.0, 5.0
	var peakCmp, peakSteps float64
	for e := 4; e <= 10; e++ {
		n := 1 << e
		w := workload.SortedAscending(workload.Random(rand.New(rand.NewSource(2)), n))
		m := pram.New() // unbounded: steps = statement count
		res := BuildConcave(m, w)
		steps := m.Counters().Steps
		m.Close()
		lg := float64(e)
		rc := float64(res.Comparisons) / (float64(n) * float64(n) * lg)
		rs := float64(steps) / ((lg + 1) * (lg + 1))
		peakCmp, peakSteps = max(peakCmp, rc), max(peakSteps, rs)
		if rc > cCmp {
			t.Errorf("n=%d: %d comparisons, %.2f·n²·log n, bound %.1f", n, res.Comparisons, rc, cCmp)
		}
		if rs > cSteps {
			t.Errorf("n=%d: %d statements, %.2f·(log n + 1)², bound %.1f", n, steps, rs, cSteps)
		}
	}
	t.Logf("peak ratios: comparisons/(n² log n) %.2f (bound %.1f), steps/(log n + 1)² %.2f (bound %.1f)",
		peakCmp, cCmp, peakSteps, cSteps)
}

// The Fibonacci vector drives the deepest spine (n-1); the concave
// algorithm must still reconstruct it exactly.
func TestBuildConcaveFibonacciDeepSpine(t *testing.T) {
	n := 14
	w := workload.Fibonacci(n)
	res := BuildConcave(mach(), w)
	if h := res.Tree.Height(); h != n-1 {
		t.Errorf("Fibonacci tree height = %d, want %d", h, n-1)
	}
	if !xmath.AlmostEqual(res.Cost, huffman.Cost(w), 1e-12) {
		t.Errorf("Fibonacci cost mismatch")
	}
}

// Cross-check the two parallel algorithms against each other on larger
// inputs than the sequential cross-check uses.
func TestParallelAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	m := mach()
	for _, n := range []int{64, 100, 150} {
		w := workload.SortedAscending(workload.Random(rng, n))
		a := CostRakeCompress(m, w)
		b := BuildConcave(m, w).Cost
		if !xmath.AlmostEqual(a, b, 1e-9) {
			t.Errorf("n=%d: rake/compress %v vs concave %v", n, a, b)
		}
	}
}

func TestCheckSortedRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN weight must panic")
		}
	}()
	checkSorted([]float64{0.5, math.NaN()})
}
