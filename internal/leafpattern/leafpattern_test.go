package leafpattern

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"partree/internal/kraft"
	"partree/internal/pram"
	"partree/internal/tree"
	"partree/internal/workload"
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
	for trial := 0; trial < 40; trial++ {
		p := workload.MonotonePattern(rng, 1+rng.Intn(100), 3)
		tr, err := Monotone(p)
		if err != nil {
			t.Fatalf("Monotone(%v): %v", p, err)
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
	for trial := 0; trial < 20; trial++ {
		p := workload.MonotonePattern(rng, 1+rng.Intn(60), 3)
		// Reverse to non-decreasing.
		rev := make([]int, len(p))
		for i := range p {
			rev[i] = p[len(p)-1-i]
		}
		tr, err := Monotone(rev)
		if err != nil {
			t.Fatalf("Monotone(%v): %v", rev, err)
		}
		checkRealizes(t, tr, rev, "monotone-inc")
	}
}

func TestMonotoneKraftDeficit(t *testing.T) {
	// Kraft < 1 needs single-child chains.
	for _, p := range [][]int{{2}, {3, 3}, {5, 5, 5}} {
		tr, err := Monotone(p)
		if err != nil {
			t.Fatalf("Monotone(%v): %v", p, err)
		}
		checkRealizes(t, tr, p, "monotone-deficit")
	}
}

func TestMonotoneInfeasible(t *testing.T) {
	if _, err := Monotone([]int{1, 1, 1}); !errors.Is(err, ErrNoTree) {
		t.Errorf("want ErrNoTree, got %v", err)
	}
	if _, err := Monotone([]int{1, 2, 1}); err == nil {
		t.Error("non-monotone input must be rejected")
	}
	if _, err := Monotone(nil); err == nil {
		t.Error("empty pattern must be rejected")
	}
}

func TestBitonicMatchesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 40; trial++ {
		p := workload.BitonicPattern(rng, 1+rng.Intn(100), 3)
		tr, err := Bitonic(p)
		if err != nil {
			t.Fatalf("Bitonic(%v): %v", p, err)
		}
		checkRealizes(t, tr, p, "bitonic")
	}
}

func TestBitonicAgainstGreedy(t *testing.T) {
	// Feasibility must agree with the greedy oracle on random bitonic
	// patterns including infeasible ones.
	rng := rand.New(rand.NewSource(157))
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
		tr, berr := Bitonic(p)
		if (gerr == nil) != (berr == nil) {
			t.Fatalf("pattern %v: greedy err=%v, bitonic err=%v", p, gerr, berr)
		}
		if berr == nil {
			checkRealizes(t, tr, p, "bitonic-vs-greedy")
		}
	}
}

func TestBitonicForestMinimal(t *testing.T) {
	// (1,1,1): Kraft 1.5 → 2 trees.
	forest, err := BitonicForest([]int{1, 1, 1})
	if err != nil || len(forest) != 2 {
		t.Fatalf("forest = %d trees (%v), want 2", len(forest), err)
	}
	// Depth sequences concatenate to the pattern.
	var depths []int
	for _, tr := range forest {
		depths = append(depths, tr.LeafDepths()...)
	}
	want := []int{1, 1, 1}
	for i := range want {
		if depths[i] != want[i] {
			t.Fatalf("forest depths %v", depths)
		}
	}
}

func TestBuildGeneralAgainstGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
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
		tr, _, berr := Build(p)
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
	for trial := 0; trial < 10; trial++ {
		p := workload.TreePattern(rng, 200+rng.Intn(200))
		_, rounds, err := Build(p)
		if err != nil {
			t.Fatalf("Build failed on feasible pattern: %v", err)
		}
		m := workload.Fingers(p)
		// Rounds are bounded by ~log₂(m) + small constant.
		bound := 2
		for v := 1; v < m; v <<= 1 {
			bound++
		}
		if rounds > bound+4 {
			t.Errorf("trial %d: %d rounds for %d fingers (bound %d)", trial, rounds, m, bound+4)
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
		checkSameTree(t, m, "MonotonePar", p, Monotone, MonotonePar)
	}
	// The layout of a non-decreasing deficit pattern: the level-3 leaves
	// pair up left to right, as in Monotone.
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
		checkSameTree(t, m, "BitonicPar", risen(p, k), Bitonic, BitonicPar)
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
	if _, err := BitonicForest([]int{2, 1, 2}); err == nil {
		t.Error("non-bitonic forest must be rejected")
	}
}

// The paper's §7.1 note about deep patterns ("in the case when l_i > n we
// must store a as a linked-list"): a single leaf at depth 5000 builds a
// 5000-chain without Kraft-arithmetic overflow anywhere.
func TestVeryDeepPattern(t *testing.T) {
	tr, err := Monotone([]int{5000})
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.LeafDepths(); len(d) != 1 || d[0] != 5000 {
		t.Fatalf("depths = %v", d)
	}
	m := pram.New(pram.WithGrain(4096))
	if _, err := MonotonePar(m, []int{2000, 2000, 1}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 7.2's minimality: the bitonic forest always has exactly
// ⌈Σ2^{-l}⌉ trees.
func TestBitonicForestAlwaysMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(499))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		p := make([]int, n)
		peak := rng.Intn(n)
		for i := 1; i <= peak; i++ {
			p[i] = p[i-1] + rng.Intn(3)
		}
		for i := peak + 1; i < n; i++ {
			p[i] = p[i-1] - rng.Intn(3)
			if p[i] < 0 {
				p[i] = 0
			}
		}
		forest, err := BitonicForest(p)
		if err != nil {
			t.Fatalf("BitonicForest(%v): %v", p, err)
		}
		want := kraft.Roots(kraft.LevelCounts(p))
		if len(forest) != want {
			t.Fatalf("pattern %v: %d trees, want ⌈Kraft⌉ = %d", p, len(forest), want)
		}
		// Concatenated leaf depths reproduce the pattern.
		var depths []int
		for _, tr := range forest {
			depths = append(depths, tr.LeafDepths()...)
		}
		for i := range p {
			if depths[i] != p[i] {
				t.Fatalf("pattern %v: forest depths %v", p, depths)
			}
		}
	}
}
