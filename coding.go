package partree

import (
	"context"

	"partree/internal/huffman"
	"partree/internal/hufpar"
	"partree/internal/par"
	"partree/internal/pram"
	"partree/internal/tree"
)

// Tree is an ordered rooted binary tree. Leaves carry the Symbol they
// represent (an index into the caller's alphabet) and its Weight.
type Tree = tree.Node

// Codeword is one binary prefix-code word.
type Codeword = huffman.Code

// HuffmanTree builds an optimal prefix-code tree for the given symbol
// frequencies with the classical sequential algorithm (O(n log n), or
// O(n) when freqs is already sorted non-decreasing). Leaf i carries
// Symbol i.
func HuffmanTree(freqs []float64) *Tree {
	sorted := true
	for i := 1; i < len(freqs); i++ {
		if freqs[i] < freqs[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return huffman.BuildSorted(freqs)
	}
	return huffman.Build(freqs)
}

// HuffmanCodes returns canonical optimal prefix-code words for the given
// frequencies.
func HuffmanCodes(freqs []float64) ([]Codeword, error) {
	t := HuffmanTree(freqs)
	return huffman.Canonical(huffman.CodeLengths(t, len(freqs)))
}

// HuffmanCost returns the optimal average code-word length Σ pᵢ·|cᵢ|.
func HuffmanCost(freqs []float64) float64 { return huffman.Cost(freqs) }

// HuffmanParallelResult is the output of HuffmanParallel.
type HuffmanParallelResult struct {
	// Tree is an optimal prefix-code tree; leaf symbols index the
	// caller's original (unsorted) frequency vector.
	Tree *Tree
	// Cost is the optimal average code-word length.
	Cost float64
	// Comparisons counts semiring comparisons in the concave products.
	Comparisons int64
	// Stats is the simulated-PRAM cost.
	Stats Stats
}

// HuffmanParallel builds an optimal Huffman tree with the paper's Section
// 5 algorithm (Theorem 5.1): the frequencies are sorted (the reduction the
// paper prescribes), optimal height-bounded subtrees are computed by
// ⌈log n⌉ concave matrix products, the left spine is assembled by
// ⌈log(n+1)⌉ squarings of the concave path matrix, and the tree is
// reconstructed exactly from the stored cut tables.
func HuffmanParallel(freqs []float64, opts ...Options) *HuffmanParallelResult {
	res, _ := HuffmanParallelContext(context.Background(), freqs, opts...)
	return res
}

func huffmanParallelOn(m *pram.Machine, freqs []float64) *HuffmanParallelResult {
	// "The general Huffman Coding Problem is reducible to this special
	// case after applying one sort" (Section 3) — performed here with the
	// PRAM merge sort so the whole pipeline runs on the machine.
	type wi struct {
		w   float64
		idx int
	}
	items := make([]wi, len(freqs))
	for i, w := range freqs {
		items[i] = wi{w: w, idx: i}
	}
	ranked := par.MergeSort(m, items, func(a, b wi) bool { return a.w < b.w })
	order := make([]int, len(freqs))
	sorted := make([]float64, len(freqs))
	for k, it := range ranked {
		order[k] = it.idx
		sorted[k] = it.w
	}
	res := hufpar.BuildConcave(m, sorted)
	for _, leaf := range res.Tree.Leaves() {
		leaf.Symbol = order[leaf.Symbol]
	}
	return &HuffmanParallelResult{
		Tree:        res.Tree,
		Cost:        res.Cost,
		Comparisons: res.Comparisons,
		Stats:       statsOf(m),
	}
}

// HuffmanRakeCompressCost computes the optimal average code-word length
// with the paper's Section 3 RAKE/COMPRESS dynamic program (Theorem 3.1):
// 2⌈log n⌉ re-estimation rounds of Θ(n³) work each. freqs must be sorted
// non-decreasing. Primarily useful for studying the round/work trade-off
// against HuffmanParallel; the returned Stats counts the rounds.
func HuffmanRakeCompressCost(freqs []float64, opts ...Options) (float64, Stats) {
	c, st, _ := HuffmanRakeCompressCostContext(context.Background(), freqs, opts...)
	return c, st
}

// HuffmanHeightLimited builds an optimal prefix-code tree of height at
// most maxHeight (the length-limited coding problem) using the paper's
// height-bounded concave recurrence A_h — the "Constructing Height
// Bounded Subtrees" half of Section 5 exposed as a feature. freqs must be
// sorted non-decreasing. The result is cross-validated in tests against
// an independent package-merge implementation.
func HuffmanHeightLimited(freqs []float64, maxHeight int, opts ...Options) (*Tree, float64, error) {
	return HuffmanHeightLimitedContext(context.Background(), freqs, maxHeight, opts...)
}

// ShannonFanoResult is the output of ShannonFano.
type ShannonFanoResult struct {
	// Lengths[i] and Codes[i] describe symbol i's code word.
	Lengths []int
	Codes   []Codeword
	// Tree realizes the code; leaf symbols index the input vector.
	Tree *Tree
	// AverageLength is Σ pᵢ·lᵢ — within +1 of the Huffman optimum
	// (Claim 7.1).
	AverageLength float64
	// Stats is the simulated-PRAM cost (Theorem 7.4: O(log n) steps).
	Stats Stats
}

// ShannonFano builds a Shannon–Fano prefix code (Section 7.3 / Theorem
// 7.4) for a probability vector with entries in (0,1].
func ShannonFano(probs []float64, opts ...Options) (*ShannonFanoResult, error) {
	return ShannonFanoContext(context.Background(), probs, opts...)
}

// Encode packs the code words of the given symbol sequence; it returns
// the packed bytes and the exact bit count.
func Encode(symbols []int, codes []Codeword) ([]byte, int) {
	return huffman.Encode(symbols, codes)
}

// Decode reads nSymbols code words back from a packed bit buffer.
func Decode(data []byte, bitLen, nSymbols int, codes []Codeword) ([]int, error) {
	return huffman.Decode(data, bitLen, nSymbols, codes)
}

// CodeLengths extracts per-symbol code lengths from a code tree with n
// symbols.
func CodeLengths(t *Tree, n int) []int { return huffman.CodeLengths(t, n) }

// AdaptiveEncode compresses a symbol sequence with one-pass adaptive
// (FGK) Huffman coding: no frequency table is transmitted; the code tree
// evolves identically on both ends. Returns the packed bytes and exact
// bit count.
func AdaptiveEncode(symbols []int, alphabetSize int) ([]byte, int) {
	return huffman.AdaptiveEncode(symbols, alphabetSize)
}

// AdaptiveDecode reverses AdaptiveEncode.
func AdaptiveDecode(data []byte, bitLen, nSymbols, alphabetSize int) ([]int, error) {
	return huffman.AdaptiveDecode(data, bitLen, nSymbols, alphabetSize)
}

// Entropy returns the Shannon entropy of a frequency vector in bits — the
// floor for any uniquely decipherable code (the paper's Kraft–McMillan
// remark).
func Entropy(freqs []float64) float64 { return huffman.Entropy(freqs) }
