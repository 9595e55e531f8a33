// Quickstart: a short tour of the partree public API — parallel Huffman
// coding, Shannon–Fano coding, tree construction from depths, nearly
// optimal search trees, and linear-language recognition.
package main

import (
	"fmt"
	"log"

	"partree"
)

func main() {
	// --- Huffman coding (Theorem 5.1) -------------------------------
	freqs := []float64{0.05, 0.09, 0.12, 0.13, 0.16, 0.45}
	res := partree.HuffmanParallel(freqs)
	fmt.Printf("Huffman: optimal average word length %.4f bits (PRAM steps: %d)\n",
		res.Cost, res.Stats.Steps)

	codes, err := partree.HuffmanCodes(freqs)
	if err != nil {
		log.Fatal(err)
	}
	for sym, c := range codes {
		fmt.Printf("  symbol %d (p=%.2f): %s\n", sym, freqs[sym], c)
	}

	// --- Shannon–Fano: within one bit of Huffman (Claim 7.1) --------
	sf, err := partree.ShannonFano(freqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Shannon–Fano average: %.4f (Huffman + %.4f)\n",
		sf.AverageLength, sf.AverageLength-res.Cost)

	// --- Tree construction from leaf depths (Theorem 7.3) -----------
	depths := []int{3, 3, 2, 3, 3, 2}
	t, err := partree.TreeFromDepths(depths)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree from depths %v: height %d, %d nodes\n", depths, t.Height(), t.Size())

	// --- Nearly optimal binary search tree (Theorem 6.1) ------------
	in, err := partree.NewBSTInstance(
		[]float64{0.15, 0.10, 0.05, 0.10, 0.20},
		[]float64{0.05, 0.10, 0.05, 0.05, 0.05, 0.10},
	)
	if err != nil {
		log.Fatal(err)
	}
	opt, _ := partree.OptimalBST(in)
	approx := partree.ApproxBST(in, 0.01)
	fmt.Printf("search tree: optimum %.4f, approximation %.4f (ε=0.01)\n", opt, approx.Cost)

	// --- Length-limited coding (the A_h recurrence as a feature) ----
	sorted := []float64{0.05, 0.09, 0.12, 0.13, 0.16, 0.45}
	_, constrained, err := partree.HuffmanHeightLimited(sorted, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("height ≤ 3 optimum: %.4f bits (unconstrained %.4f)\n",
		constrained, partree.HuffmanCost(sorted))

	// --- Optimal alphabetic tree (order-preserving leaves) -----------
	_, acost, err := partree.OptimalAlphabeticTree([]float64{3, 1, 4, 1, 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal alphabetic tree cost: %.0f\n", acost)

	// --- Linear context-free language recognition (Theorem 8.1) -----
	g := partree.PalindromeGrammar()
	word := []byte("abbcbba")
	lr := partree.RecognizeLinearParallel(g, word)
	fmt.Printf("%q ∈ palindromes: %v (%d D&C levels, %d boolean products)\n",
		word, lr.Accepted, lr.Depth, lr.Products)
}
