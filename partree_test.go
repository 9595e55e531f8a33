package partree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"partree/internal/workload"
	"partree/internal/xmath"
)

func TestHuffmanFacade(t *testing.T) {
	freqs := []float64{45, 13, 12, 16, 9, 5} // unsorted on purpose
	tr := HuffmanTree(freqs)
	if got := tr.WeightedPathLength(); got != 224 {
		t.Errorf("HuffmanTree cost = %v, want 224", got)
	}
	if got := HuffmanCost(freqs); got != 224 {
		t.Errorf("HuffmanCost = %v, want 224", got)
	}
	codes, err := HuffmanCodes(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 6 {
		t.Fatal("wrong code count")
	}
	// Encode/decode round trip through the facade.
	msg := []int{0, 1, 2, 3, 4, 5, 0, 0, 3}
	data, bits := Encode(msg, codes)
	back, err := Decode(data, bits, len(msg), codes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if back[i] != msg[i] {
			t.Fatal("round trip failed")
		}
	}
	if ls := CodeLengths(tr, 6); len(ls) != 6 {
		t.Fatal("CodeLengths wrong")
	}
}

func TestHuffmanParallelFacadeUnsortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	for trial := 0; trial < 15; trial++ {
		freqs := workload.Random(rng, 2+rng.Intn(60)) // random order
		res := HuffmanParallel(freqs, Options{Workers: 2})
		want := HuffmanCost(freqs)
		if !xmath.AlmostEqual(res.Cost, want, 1e-9) {
			t.Fatalf("trial %d: parallel cost %v, want %v", trial, res.Cost, want)
		}
		// The tree's leaves must reference original symbol indices, each
		// exactly once, and reproduce the cost with original weights.
		seen := make(map[int]bool)
		cost := 0.0
		for i, d := range res.Tree.LeafDepths() {
			leaf := res.Tree.Leaves()[i]
			if seen[leaf.Symbol] {
				t.Fatalf("duplicate symbol %d", leaf.Symbol)
			}
			seen[leaf.Symbol] = true
			cost += freqs[leaf.Symbol] * float64(d)
		}
		if !xmath.AlmostEqual(cost, want, 1e-9) {
			t.Fatalf("trial %d: remapped tree cost %v, want %v", trial, cost, want)
		}
		if res.Stats.Steps == 0 || res.Comparisons == 0 {
			t.Error("stats should be populated")
		}
	}
}

func TestHuffmanRakeCompressFacade(t *testing.T) {
	freqs := workload.SortedAscending(workload.Zipf(40, 1.1))
	cost, stats := HuffmanRakeCompressCost(freqs)
	if !xmath.AlmostEqual(cost, HuffmanCost(freqs), 1e-9) {
		t.Errorf("cost mismatch")
	}
	if stats.Steps == 0 {
		t.Error("stats should be populated")
	}
}

func TestHuffmanHeightLimitedFacade(t *testing.T) {
	freqs := workload.SortedAscending(workload.Zipf(16, 1.5))
	unconstrained := HuffmanCost(freqs)
	tr, cost, err := HuffmanHeightLimited(freqs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() > 5 {
		t.Errorf("height %d exceeds 5", tr.Height())
	}
	if cost < unconstrained-1e-12 {
		t.Error("constrained cost cannot beat unconstrained optimum")
	}
	if _, _, err := HuffmanHeightLimited(freqs, 3); err == nil {
		t.Error("16 symbols at height 3 must be infeasible")
	}
}

func TestShannonFanoFacade(t *testing.T) {
	probs := workload.English()
	res, err := ShannonFano(probs)
	if err != nil {
		t.Fatal(err)
	}
	h := HuffmanCost(probs)
	if res.AverageLength < h-1e-9 || res.AverageLength > h+1+1e-9 {
		t.Errorf("SF average %v outside [huffman, huffman+1] = [%v, %v]",
			res.AverageLength, h, h+1)
	}
	if res.Tree == nil || len(res.Codes) != 26 || len(res.Lengths) != 26 {
		t.Error("result incomplete")
	}
}

func TestTreeFromDepthsFacade(t *testing.T) {
	depths := []int{3, 3, 2, 3, 3, 2} // non-bitonic (valley), Kraft sum 1
	if !DepthsRealizable(depths) {
		t.Fatal("pattern should be realizable")
	}
	tr, err := TreeFromDepths(depths)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.LeafDepths()
	for i := range depths {
		if got[i] != depths[i] {
			t.Fatalf("depths %v, want %v", got, depths)
		}
	}
	if tr2, err := TreeFromDepths(depths, Options{Workers: 2}); err != nil || !tr2.Equal(tr) {
		t.Errorf("TreeFromDepths with Options = %v, %v; want %v", tr2, err, tr)
	}
	if _, err := TreeFromDepths([]int{1, 1, 1}); !errors.Is(err, ErrNoTree) {
		t.Errorf("want ErrNoTree, got %v", err)
	}
	if DepthsRealizable([]int{2, 1, 2}) {
		t.Error("valley pattern must be unrealizable")
	}
}

func TestTreeFromMonotoneAndBitonicFacade(t *testing.T) {
	tr, stats, err := TreeFromMonotoneDepths([]int{3, 3, 2, 1})
	if err != nil || tr == nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 {
		t.Error("stats should be populated")
	}
	if tr2, err := TreeFromBitonicDepths([]int{1, 3, 3, 2}); err != nil || tr2 == nil {
		t.Fatal(err)
	}
}

func TestBSTFacade(t *testing.T) {
	in, err := NewBSTInstance(
		[]float64{0.15, 0.10, 0.05, 0.10, 0.20},
		[]float64{0.05, 0.10, 0.05, 0.05, 0.05, 0.10},
	)
	if err != nil {
		t.Fatal(err)
	}
	opt, tr := OptimalBST(in)
	if !xmath.AlmostEqual(opt, 2.35, 1e-9) {
		t.Errorf("optimal = %v, want 2.35", opt)
	}
	if !xmath.AlmostEqual(BSTCost(in, tr), opt, 1e-9) {
		t.Error("BSTCost disagrees")
	}
	res := ApproxBST(in, 0.001)
	if res.Cost > opt+0.001+1e-12 {
		t.Errorf("approx %v exceeds optimal %v + ε", res.Cost, opt)
	}
	if res.Stats.Steps == 0 {
		t.Error("stats should be populated")
	}
}

func TestLanguageFacade(t *testing.T) {
	g, err := NewLinearGrammar([]GrammarRule{
		{A: "S", Pre: "(", B: "S", Suf: ")"},
		{A: "S", Pre: "x"},
	}, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !RecognizeLinear(g, []byte("((x))")) || RecognizeLinear(g, []byte("((x)")) {
		t.Error("sequential recognition wrong")
	}
	res := RecognizeLinearParallel(g, []byte("(((x)))"))
	if !res.Accepted || res.Products == 0 || res.Depth == 0 {
		t.Errorf("parallel recognition result %+v", res)
	}
	steps, ok := DeriveLinear(g, []byte("(x)"))
	if !ok || len(steps) != 3 {
		t.Fatalf("derivation steps %v ok=%v", steps, ok)
	}
	if out := FormatDerivation(g, []byte("(x)"), steps); out == "" {
		t.Error("empty derivation text")
	}
	if !RecognizeLinear(PalindromeGrammar(), []byte("abcba")) {
		t.Error("palindrome facade wrong")
	}
}

func TestConcaveFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	// Build a random concave matrix through the public API shape.
	n := 24
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		a[0][j] = float64(rng.Intn(20))
	}
	for i := 1; i < n; i++ {
		a[i][0] = float64(rng.Intn(20))
		for j := 1; j < n; j++ {
			a[i][j] = a[i-1][j] + a[i][j-1] - a[i-1][j-1] - float64(rng.Intn(3))
		}
	}
	if !IsConcave(a) {
		t.Fatal("constructed matrix should be concave")
	}
	res := ConcaveMultiply(a, a)
	want, bruteCmp := MinPlusMultiply(a, a)
	for i := range want {
		for j := range want[i] {
			if res.Product[i][j] != want[i][j] {
				t.Fatalf("product mismatch at (%d,%d)", i, j)
			}
			if k := res.Cut[i][j]; k < 0 ||
				a[i][k]+a[k][j] != res.Product[i][j] {
				t.Fatalf("cut inconsistent at (%d,%d)", i, j)
			}
		}
	}
	if res.Comparisons >= bruteCmp {
		t.Errorf("concave comparisons %d not below brute %d", res.Comparisons, bruteCmp)
	}
	// A non-concave matrix is detected.
	bad := [][]float64{{0, 0}, {0, 1}}
	if IsConcave(bad) {
		t.Error("i*j-like matrix must not be concave")
	}
}

func TestOptionsMachine(t *testing.T) {
	m := Options{Workers: 3, Processors: 7}.key().machine()
	if m.Workers() != 3 || m.Processors() != 7 {
		t.Error("options not applied")
	}
	m2 := Options{}.key().machine()
	if m2.Workers() < 1 {
		t.Error("default workers wrong")
	}
}

func TestOptimalAlphabeticFacade(t *testing.T) {
	tr, cost, err := OptimalAlphabeticTree([]float64{1, 100, 1})
	if err != nil || cost != 203 {
		t.Fatalf("alphabetic cost = %v (%v), want 203", cost, err)
	}
	if tr.CountLeaves() != 3 {
		t.Error("leaf count wrong")
	}
	// Sorted weights reduce to Huffman (Lemma 3.1's world).
	w := []float64{0.1, 0.2, 0.3, 0.4}
	_, cost, err = OptimalAlphabeticTree(w)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.AlmostEqual(cost, HuffmanCost(w), 1e-12) {
		t.Errorf("sorted alphabetic %v ≠ huffman %v", cost, HuffmanCost(w))
	}
}

func TestLanguageExtrasFacade(t *testing.T) {
	g := PalindromeGrammar()
	tab := SubstringMembership(g, []byte("acab"))
	// "aca" (positions 0..2) is a palindrome; "ab" is not.
	if !tab[0][2] || tab[2][3] {
		t.Errorf("membership table wrong: %v", tab)
	}
	if CountDerivations(g, []byte("aca")).Int64() != 1 {
		t.Error("palindrome derivations should be exactly 1")
	}
	if CountDerivations(g, []byte("ab")).Sign() != 0 {
		t.Error("non-member should count 0")
	}
}

func TestStatsPhasesAndScheduler(t *testing.T) {
	freqs := workload.SortedAscending(workload.Zipf(200, 1.2))
	res := HuffmanParallel(freqs, Options{Workers: 2})
	st := res.Stats
	if st.Steps == 0 || st.Work == 0 {
		t.Fatalf("counted stats empty: %+v", st)
	}
	if len(st.Phases) == 0 {
		t.Fatal("phase breakdown missing")
	}
	var steps, work int64
	for _, ps := range st.Phases {
		steps += ps.Steps
		work += ps.Work
	}
	if steps != st.Steps || work != st.Work {
		t.Errorf("phase sums (steps %d, work %d) disagree with totals (%d, %d)",
			steps, work, st.Steps, st.Work)
	}
	// "hufpar.spine" itself delegates every statement to monge.MulPar,
	// whose inner label wins (innermost attribution).
	for _, name := range []string{"hufpar.heights", "monge.MulPar"} {
		if _, ok := st.Phases[name]; !ok {
			t.Errorf("expected phase %q; have %v", name, phaseNames(st.Phases))
		}
	}
	if st.Span < 0 || st.BarrierWait < 0 {
		t.Errorf("negative scheduler stats: %+v", st)
	}
	if st.Steals != 0 || st.StealWait != 0 {
		t.Errorf("Steals = %d, StealWait = %v; both are documented as always zero", st.Steals, st.StealWait)
	}
}

func phaseNames(m map[string]PhaseStats) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
