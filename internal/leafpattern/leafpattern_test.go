package leafpattern

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"partree/internal/kraft"
	"partree/internal/pram"
	"partree/internal/tree"
	"partree/internal/workload"
	"partree/internal/xmath"
)

// checkRealizes fails unless t is a valid ordered tree whose leaf depths,
// left to right, equal the pattern and whose leaf symbols are 0…n-1 in
// order.
func checkRealizes(t *testing.T, tr *tree.Node, pattern []int, name string) {
	t.Helper()
	if tr == nil {
		t.Fatalf("%s: nil tree for %v", name, pattern)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: invalid tree for %v: %v", name, pattern, err)
	}
	depths := tr.LeafDepths()
	if len(depths) != len(pattern) {
		t.Fatalf("%s: %d leaves, want %d (pattern %v)", name, len(depths), len(pattern), pattern)
	}
	for i := range pattern {
		if depths[i] != pattern[i] {
			t.Fatalf("%s: depths %v, want %v", name, depths, pattern)
		}
	}
	for i, leaf := range tr.Leaves() {
		if leaf.Symbol != i {
			t.Fatalf("%s: leaf %d has symbol %d", name, i, leaf.Symbol)
		}
	}
}

func TestGreedyKnown(t *testing.T) {
	for _, p := range [][]int{
		{0},
		{1, 1},
		{2, 2, 1},
		{1, 2, 2},
		{2, 1, 2}, // the classic infeasible valley, handled below
	} {
		if len(p) == 3 && p[0] == 2 && p[1] == 1 {
			// (2,1,2) is the classic infeasible valley despite Kraft = 1.
			if _, err := Greedy(p); !errors.Is(err, ErrNoTree) {
				t.Errorf("Greedy(%v) should fail, got %v", p, err)
			}
			continue
		}
		tr, err := Greedy(p)
		if err != nil {
			t.Fatalf("Greedy(%v): %v", p, err)
		}
		checkRealizes(t, tr, p, "greedy")
	}
}

func TestGreedyInfeasible(t *testing.T) {
	for _, p := range [][]int{
		{1, 1, 1},       // Kraft > 1
		{0, 1},          // empty word plus another
		{3, 3, 1, 3, 3}, // Kraft = 1 but order infeasible
	} {
		if _, err := Greedy(p); !errors.Is(err, ErrNoTree) {
			t.Errorf("Greedy(%v) should be infeasible, got %v", p, err)
		}
	}
}

func TestGreedyRealizesRandomTreePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 40; trial++ {
		p := workload.TreePattern(rng, 1+rng.Intn(80))
		tr, err := Greedy(p)
		if err != nil {
			t.Fatalf("Greedy(%v): %v", p, err)
		}
		checkRealizes(t, tr, p, "greedy")
	}
}

func TestGreedyDeepPattern(t *testing.T) {
	// Depths beyond 64 exercise the big-integer path.
	p := make([]int, 100)
	for i := range p {
		p[i] = 100 - i // decreasing 100…1: Kraft < 1
	}
	tr, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	checkRealizes(t, tr, p, "greedy-deep")
}

func TestMonotoneMatchesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	for trial := 0; trial < 40; trial++ {
		p := workload.MonotonePattern(rng, 1+rng.Intn(100), 3)
		tr, err := MonotonePar(m, p)
		if err != nil {
			t.Fatalf("MonotonePar(%v): %v", p, err)
		}
		checkRealizes(t, tr, p, "monotone")
		// Full Kraft ⇒ full tree; non-increasing depths ⇒ left-justified.
		if !tr.IsLeftJustified() {
			t.Fatalf("trial %d: monotone tree not left-justified", trial)
		}
	}
}

func TestMonotoneIncreasingDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	for trial := 0; trial < 20; trial++ {
		p := workload.MonotonePattern(rng, 1+rng.Intn(60), 3)
		// Reverse to non-decreasing.
		rev := make([]int, len(p))
		for i := range p {
			rev[i] = p[len(p)-1-i]
		}
		tr, err := MonotonePar(m, rev)
		if err != nil {
			t.Fatalf("MonotonePar(%v): %v", rev, err)
		}
		checkRealizes(t, tr, rev, "monotone-inc")
	}
}

func TestMonotoneKraftDeficit(t *testing.T) {
	// Kraft < 1 needs single-child chains.
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	for _, p := range [][]int{{2}, {3, 3}, {5, 5, 5}} {
		tr, err := MonotonePar(m, p)
		if err != nil {
			t.Fatalf("MonotonePar(%v): %v", p, err)
		}
		checkRealizes(t, tr, p, "monotone-deficit")
	}
}

func TestMonotoneInfeasible(t *testing.T) {
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	if _, err := MonotonePar(m, []int{1, 1, 1}); !errors.Is(err, ErrNoTree) {
		t.Errorf("want ErrNoTree, got %v", err)
	}
	if _, err := MonotonePar(m, []int{1, 2, 1}); err == nil {
		t.Error("non-monotone input must be rejected")
	}
	if _, err := MonotonePar(m, nil); err == nil {
		t.Error("empty pattern must be rejected")
	}
}

func TestBitonicMatchesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	for trial := 0; trial < 40; trial++ {
		p := workload.BitonicPattern(rng, 1+rng.Intn(100), 3)
		tr, err := BitonicPar(m, p)
		if err != nil {
			t.Fatalf("BitonicPar(%v): %v", p, err)
		}
		checkRealizes(t, tr, p, "bitonic")
	}
}

func TestBitonicAgainstGreedy(t *testing.T) {
	// Feasibility must agree with the greedy oracle on random bitonic
	// patterns including infeasible ones.
	rng := rand.New(rand.NewSource(157))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		p := make([]int, n)
		peak := rng.Intn(n)
		for i := 0; i <= peak; i++ {
			p[i] = rng.Intn(5)
		}
		for i := 1; i <= peak; i++ {
			if p[i] < p[i-1] {
				p[i] = p[i-1]
			}
		}
		for i := peak + 1; i < n; i++ {
			p[i] = rng.Intn(p[i-1] + 1)
		}
		_, gerr := Greedy(p)
		tr, berr := BitonicPar(m, p)
		if (gerr == nil) != (berr == nil) {
			t.Fatalf("pattern %v: greedy err=%v, bitonic err=%v", p, gerr, berr)
		}
		if berr == nil {
			checkRealizes(t, tr, p, "bitonic-vs-greedy")
		}
	}
}

func TestBitonicForestMinimal(t *testing.T) {
	// (1,1,1): Kraft 1.5 → 2 trees, whose depth sequences concatenate to
	// the pattern.
	forest := checkForests(t, pram.New(), [][]int{{1, 1, 1}})[0]
	if len(forest) != 2 {
		t.Fatalf("forest = %d trees, want 2", len(forest))
	}
}

func TestBuildGeneralAgainstGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	for trial := 0; trial < 120; trial++ {
		var p []int
		if trial%3 == 0 {
			p = workload.TreePattern(rng, 1+rng.Intn(60)) // feasible
		} else {
			n := 1 + rng.Intn(14) // small random, often infeasible
			p = make([]int, n)
			for i := range p {
				p[i] = rng.Intn(6)
			}
		}
		_, gerr := Greedy(p)
		tr, _, berr := Build(m, p)
		if (gerr == nil) != (berr == nil) {
			t.Fatalf("pattern %v: greedy err=%v, finger err=%v", p, gerr, berr)
		}
		if berr == nil {
			checkRealizes(t, tr, p, "finger")
		}
	}
}

func TestBuildRoundsLogOfFingers(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	for trial := 0; trial < 10; trial++ {
		p := workload.TreePattern(rng, 200+rng.Intn(200))
		_, rounds, err := Build(m, p)
		if err != nil {
			t.Fatalf("Build failed on feasible pattern: %v", err)
		}
		fingers := workload.Fingers(p)
		// Rounds are bounded by ~log₂(m) + small constant.
		bound := 2
		for v := 1; v < fingers; v <<= 1 {
			bound++
		}
		if rounds > bound+4 {
			t.Errorf("trial %d: %d rounds for %d fingers (bound %d)", trial, rounds, fingers, bound+4)
		}
	}
}

// checkSameTree fails unless par on m returns seq's tree node for node,
// or the same error.
func checkSameTree(t *testing.T, m *pram.Machine, name string, pattern []int,
	seq func([]int) (*tree.Node, error), par func(*pram.Machine, []int) (*tree.Node, error)) {
	t.Helper()
	want, wantErr := seq(pattern)
	got, err := par(m, pattern)
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s(%v): error %v, sequential %v", name, pattern, err, wantErr)
	}
	if err != nil {
		return
	}
	checkRealizes(t, got, pattern, name)
	if !got.Equal(want) {
		t.Fatalf("%s(%v) = %v, sequential %v", name, pattern, got, want)
	}
}

// deepen returns a copy of a non-increasing pattern with about a quarter
// of its leaves moved one or two levels down, sorted non-increasing. The
// Kraft sum only falls, so a realizable pattern stays realizable.
func deepen(rng *rand.Rand, p []int) []int {
	q := slices.Clone(p)
	for i := range q {
		if rng.Intn(4) == 0 {
			q[i] += 1 + rng.Intn(2)
		}
	}
	slices.Sort(q)
	slices.Reverse(q)
	return q
}

// risen returns a non-increasing pattern with its first k depths reversed:
// a bitonic pattern, and a non-decreasing one when k = len(p).
func risen(p []int, k int) []int {
	q := slices.Clone(p)
	slices.Reverse(q[:k])
	return q
}

func TestMonotoneParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(16))
	for trial := 0; trial < 80; trial++ {
		p := workload.MonotonePattern(rng, 1+rng.Intn(100), 3)
		if trial%4 >= 2 {
			p = deepen(rng, p)
		}
		if trial%2 == 1 { // the non-decreasing direction
			p = risen(p, len(p))
		}
		checkSameTree(t, m, "MonotonePar", p, seqMonotone, MonotonePar)
	}
	// The layout of a non-decreasing deficit pattern: the level-3 leaves
	// pair up left to right, as in the sequential oracle.
	tr, err := MonotonePar(m, []int{1, 3, 3, 3})
	if err != nil || tr.String() != "(0 ((1 2) (3)))" {
		t.Fatalf("MonotonePar([1 3 3 3]) = %v, %v; want (0 ((1 2) (3)))", tr, err)
	}
}

func TestMonotoneParKraftDeficitAndErrors(t *testing.T) {
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	tr, err := MonotonePar(m, []int{3, 2})
	if err != nil {
		t.Fatalf("deficit pattern: %v", err)
	}
	checkRealizes(t, tr, []int{3, 2}, "monotone-par-deficit")
	if _, err := MonotonePar(m, []int{1, 1, 1}); !errors.Is(err, ErrNoTree) {
		t.Errorf("want ErrNoTree, got %v", err)
	}
	if _, err := MonotonePar(m, []int{1, 2, 1}); err == nil {
		t.Error("non-monotone must be rejected")
	}
}

func TestMonotoneParRoundCount(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	prev := int64(0)
	for _, n := range []int{64, 1024, 16384} {
		p := workload.MonotonePattern(rng, n, 4)
		m := pram.New()
		if _, err := MonotonePar(m, p); err != nil {
			t.Fatal(err)
		}
		steps := m.Counters().Steps
		if prev > 0 && steps > 2*prev {
			t.Errorf("n=%d: steps %d more than doubled from %d (not polylog)", n, steps, prev)
		}
		if steps > 120 {
			t.Errorf("n=%d: %d statements, want O(log n)", n, steps)
		}
		prev = steps
	}
}

func TestBitonicParRoundCount(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for _, n := range []int{256, 4096, 65536} {
		p := workload.BitonicPattern(rng, n, 4)
		m := pram.New()
		if _, err := BitonicPar(m, p); err != nil {
			t.Fatal(err)
		}
		if steps := m.Counters().Steps; steps > 120 {
			t.Errorf("n=%d: %d statements, want O(log n)", n, steps)
		}
	}
}

// Theorems 7.1–7.2: both entry points link the tree in at most
// a + b·⌈log₂ n⌉ counted statements on an unbounded machine. The kernel
// issues 4 + ⌈log₂(L+1)⌉ + ⌈log₂(L+2)⌉ for a deepest level L, and a
// realizable Kraft-1 pattern has L ≤ n−1, so a = 5 and b = 2. The
// caterpillar n−1, n−1, …, 2, 1 meets the bound; it runs up to n = 2¹⁰
// only, as its big-integer terms grow as n². Counted steps are exact, so
// the check needs no noise band.
func TestParStepBound(t *testing.T) {
	const a, b = 5, 2
	rng := rand.New(rand.NewSource(179))
	for e := 6; e <= 16; e++ {
		n := 1 << e
		random := workload.MonotonePattern(rng, n, 4)
		type run struct {
			name  string
			build func(*pram.Machine, []int) (*tree.Node, error)
			p     []int
		}
		runs := []run{
			{"MonotonePar/falling", MonotonePar, random},
			{"MonotonePar/rising", MonotonePar, risen(random, n)},
			{"BitonicPar", BitonicPar, risen(random, rng.Intn(n+1))},
		}
		if e <= 10 {
			caterpillar := make([]int, n)
			for i := range caterpillar {
				caterpillar[i] = n - i
			}
			caterpillar[0] = n - 1
			runs = append(runs,
				run{"MonotonePar/caterpillar", MonotonePar, risen(caterpillar, n)},
				run{"BitonicPar/caterpillar", BitonicPar, risen(caterpillar, n/2)})
		}
		for _, c := range runs {
			m := pram.New()
			if _, err := c.build(m, c.p); err != nil {
				t.Fatalf("%s n=%d: %v", c.name, n, err)
			}
			if steps, bound := m.Counters().Steps, int64(a+b*e); steps > bound {
				t.Errorf("%s n=%d: %d statements, bound %d+%d·%d = %d", c.name, n, steps, a, b, e, bound)
			}
		}
	}
}

// Theorem 7.3: Finger-Reduction builds a general pattern in at most
// c·⌈log₂ n⌉·(⌈log₂ m⌉+1) counted statements on an unbounded machine, m the
// pattern's finger count: O(log m) rounds, each one link call of O(log n)
// statements. The table runs random full-tree patterns (nested fingers)
// and finger patterns (parallel fingers, one round) for n = 2⁶…2¹⁶, and
// logs the peak ratio to the bound without c. Counted steps are exact, so
// the check needs no noise band.
func TestBuildStepBound(t *testing.T) {
	const c = 2
	rng := rand.New(rand.NewSource(181))
	peak, at := 0.0, ""
	for e := 6; e <= 16; e++ {
		n := 1 << e
		patterns := map[string][]int{"TreePattern": workload.TreePattern(rng, n)}
		for _, m := range []int{4, 64, 1024} {
			patterns[fmt.Sprintf("FingerPattern/m=%d", m)] = workload.FingerPattern(rng, n, m)
		}
		for name, p := range patterns {
			m := pram.New()
			if _, _, err := Build(m, p); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			fingers := workload.Fingers(p)
			bound := e * (xmath.CeilLog2(fingers) + 1)
			steps := m.Counters().Steps
			if steps > int64(c*bound) {
				t.Errorf("%s n=%d m=%d: %d statements, bound %d·%d = %d", name, n, fingers, steps, c, bound, c*bound)
			}
			if r := float64(steps) / float64(bound); r > peak {
				peak, at = r, fmt.Sprintf("%s n=%d m=%d", name, n, fingers)
			}
		}
	}
	t.Logf("peak statements / (⌈log₂ n⌉·(⌈log₂ m⌉+1)) = %.2f at %s", peak, at)
}

func TestIsMonotoneIsBitonic(t *testing.T) {
	if !IsMonotone([]int{3, 2, 2, 1}) || !IsMonotone([]int{1, 2, 3}) || !IsMonotone([]int{2}) {
		t.Error("IsMonotone false negative")
	}
	if IsMonotone([]int{1, 2, 1}) {
		t.Error("IsMonotone false positive")
	}
	if !IsBitonic([]int{1, 3, 2}) || !IsBitonic([]int{2, 2}) {
		t.Error("IsBitonic false negative")
	}
	if IsBitonic([]int{2, 1, 2}) {
		t.Error("IsBitonic false positive")
	}
}

func TestBitonicParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	m := pram.New(pram.WithWorkers(4), pram.WithGrain(16))
	for trial := 0; trial < 80; trial++ {
		p := workload.MonotonePattern(rng, 1+rng.Intn(120), 3)
		if trial%4 >= 2 {
			p = deepen(rng, p)
		}
		// Monotone patterns are bitonic: both directions must work too.
		k := rng.Intn(len(p) + 1)
		switch trial % 8 {
		case 0:
			k = 0
		case 1:
			k = len(p)
		}
		checkSameTree(t, m, "BitonicPar", risen(p, k), seqBitonic, BitonicPar)
	}
}

func TestBitonicParErrorsAndDeficit(t *testing.T) {
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(16))
	if _, err := BitonicPar(m, []int{2, 1, 2}); err == nil {
		t.Error("valley pattern must be rejected as non-bitonic")
	}
	if _, err := BitonicPar(m, []int{1, 1, 1}); !errors.Is(err, ErrNoTree) {
		t.Errorf("want ErrNoTree, got %v", err)
	}
	tr, err := BitonicPar(m, []int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	checkRealizes(t, tr, []int{2, 3, 3}, "bitonic-par-deficit")
}

func TestErrorStrings(t *testing.T) {
	if errNotBitonic.Error() == "" || errNotMonotone.Error() == "" {
		t.Error("error strings must be non-empty")
	}
	m := pram.New(pram.WithWorkers(2))
	if _, err := BitonicPar(m, []int{2, 1, 2}); !errors.Is(err, errNotBitonic) {
		t.Errorf("non-bitonic pattern: %v, want %v", err, errNotBitonic)
	}
	if _, err := MonotonePar(m, []int{1, 2, 1}); !errors.Is(err, errNotMonotone) {
		t.Errorf("non-monotone pattern: %v, want %v", err, errNotMonotone)
	}
}

// The paper's §7.1 note about deep patterns ("in the case when l_i > n we
// must store a as a linked-list"): a single leaf at depth 5000 builds a
// 5000-chain without Kraft-arithmetic overflow anywhere.
func TestVeryDeepPattern(t *testing.T) {
	m := pram.New(pram.WithGrain(4096))
	tr, err := MonotonePar(m, []int{5000})
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.LeafDepths(); len(d) != 1 || d[0] != 5000 {
		t.Fatalf("depths = %v", d)
	}
	if _, err := MonotonePar(m, []int{2000, 2000, 1}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 7.2's minimality: the kernel's forest of every run always has
// exactly ⌈Σ2^{-l}⌉ trees and equals the oracle's node for node, with
// several runs of random bitonic patterns linked in one call.
func TestBitonicForestAlwaysMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(499))
	m := pram.New(pram.WithWorkers(2), pram.WithGrain(4))
	for trial := 0; trial < 50; trial++ {
		runs := make([][]int, 1+rng.Intn(6))
		for r := range runs {
			n := 1 + rng.Intn(20)
			p := make([]int, n)
			peak := rng.Intn(n)
			for i := 1; i <= peak; i++ {
				p[i] = p[i-1] + rng.Intn(3)
			}
			for i := peak + 1; i < n; i++ {
				p[i] = max(0, p[i-1]-rng.Intn(3))
			}
			runs[r] = p
		}
		for r, forest := range checkForests(t, m, runs) {
			if want := kraft.Roots(kraft.LevelCounts(runs[r])); len(forest) != want {
				t.Fatalf("run %v: %d trees, want ⌈Kraft⌉ = %d", runs[r], len(forest), want)
			}
		}
	}
}

// buildForest is the node-by-node oracle for link: it constructs the
// minimal ordered forest realizing a bitonic sequence of leaf records
// sequentially. Levels are processed bottom-up; at each level the complete
// node list, left to right, is
//
//	[rising-side leaves at l] [nodes paired from level l+1] [falling-side leaves at l]
//
// and pairing takes two adjacent nodes per internal node (an odd leftover
// becomes a single left child — allowed by the problem statement and
// necessary when the Kraft sum is < 1). The roots returned number exactly
// ⌈Σ 2^{-lᵢ}⌉, the minimum possible (each tree absorbs Kraft weight ≤ 1).
func buildForest(leaves []leafRec) []*tree.Node {
	if len(leaves) == 0 {
		return nil
	}
	maxL := 0
	for _, r := range leaves {
		if r.level > maxL {
			maxL = r.level
		}
	}
	// Split at the first peak: records before it are the rising side.
	peak := 0
	for i, r := range leaves {
		if r.level == maxL {
			peak = i
			break
		}
	}
	left := make([][]leafRec, maxL+1)
	right := make([][]leafRec, maxL+1)
	for i, r := range leaves {
		if i < peak {
			left[r.level] = append(left[r.level], r)
		} else {
			right[r.level] = append(right[r.level], r)
		}
	}

	var cur []*tree.Node
	for l := maxL; l >= 0; l-- {
		var internals []*tree.Node
		for i := 0; i+1 < len(cur); i += 2 {
			internals = append(internals, tree.NewInternal(cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			internals = append(internals, tree.NewInternal(cur[len(cur)-1], nil))
		}
		next := make([]*tree.Node, 0, len(left[l])+len(internals)+len(right[l]))
		for _, r := range left[l] {
			next = append(next, tree.NewLeaf(r.id, 0))
		}
		next = append(next, internals...)
		for _, r := range right[l] {
			next = append(next, tree.NewLeaf(r.id, 0))
		}
		cur = next
	}
	return cur
}

// seqBitonic is the sequential Theorem 7.2 oracle: buildForest's single
// tree, ErrNoTree when the forest has more than one.
func seqBitonic(pattern []int) (*tree.Node, error) {
	if err := validate(pattern); err != nil {
		return nil, err
	}
	if !IsBitonic(pattern) {
		return nil, errNotBitonic
	}
	rs := make([]leafRec, len(pattern))
	for i, l := range pattern {
		rs[i] = leafRec{level: l, id: i}
	}
	roots := buildForest(rs)
	if len(roots) != 1 {
		return nil, ErrNoTree
	}
	return roots[0], nil
}

// seqMonotone is seqBitonic on monotone patterns (Theorem 7.1).
func seqMonotone(pattern []int) (*tree.Node, error) {
	if !IsMonotone(pattern) {
		return nil, errNotMonotone
	}
	return seqBitonic(pattern)
}

// linkForests links bitonic runs end to end in one link call and returns
// each run's roots; leaf symbols are positions in the concatenation.
func linkForests(m *pram.Machine, runs [][]int) [][]*tree.Node {
	start, peak, base := []int{0}, []int{}, []int{0}
	var pattern []int
	for _, p := range runs {
		pk, _ := bitonicPeak(p)
		peak = append(peak, len(pattern)+pk)
		pattern = append(pattern, p...)
		start = append(start, len(pattern))
		base = append(base, base[len(base)-1]+p[pk]+1)
	}
	slab, off := link(m, pattern, start, peak, base)
	forests := make([][]*tree.Node, len(runs))
	for r := range runs {
		for v := off[base[r]]; v < off[base[r]+1]; v++ {
			forests[r] = append(forests[r], &slab[v])
		}
	}
	return forests
}

// checkForests fails unless link, given the bitonic runs end to end,
// builds buildForest's forest of every run node for node, and its trees'
// leaf depths, concatenated, reproduce the run. It returns the forests.
func checkForests(t *testing.T, m *pram.Machine, runs [][]int) [][]*tree.Node {
	t.Helper()
	forests := linkForests(m, runs)
	pos := 0
	for r, p := range runs {
		rs := make([]leafRec, len(p))
		for i, l := range p {
			rs[i] = leafRec{level: l, id: pos + i}
		}
		pos += len(p)
		want := buildForest(rs)
		if len(forests[r]) != len(want) {
			t.Fatalf("run %d of %v: %d roots, oracle %d", r, runs, len(forests[r]), len(want))
		}
		var depths []int
		for j := range want {
			if err := forests[r][j].Validate(); err != nil || !forests[r][j].Equal(want[j]) {
				t.Fatalf("run %d of %v: tree %d = %v (%v), oracle %v", r, runs, j, forests[r][j], err, want[j])
			}
			depths = append(depths, forests[r][j].LeafDepths()...)
		}
		if !slices.Equal(depths, p) {
			t.Fatalf("run %d of %v: forest depths %v", r, runs, depths)
		}
	}
	return forests
}
