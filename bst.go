package partree

import (
	"context"

	"partree/internal/alphabetic"
	"partree/internal/obst"
)

// BSTInstance is an optimal-binary-search-tree problem: key access
// probabilities and the n+1 gap (miss) probabilities between them
// (Section 6 of the paper; Knuth's classical formulation).
type BSTInstance = obst.Instance

// NewBSTInstance validates and builds an instance from n key
// probabilities and n+1 gap probabilities.
func NewBSTInstance(keyProbs, gapProbs []float64) (*BSTInstance, error) {
	return obst.NewInstance(keyProbs, gapProbs)
}

// OptimalBST computes an exact optimal binary search tree with Knuth's
// O(n²) dynamic program. In the returned tree, internal nodes carry key
// indices and leaves carry gap indices.
func OptimalBST(in *BSTInstance) (float64, *Tree) { return obst.Knuth(in) }

// ApproxBSTResult is the output of ApproxBST.
type ApproxBSTResult struct {
	// Tree is the constructed search tree; its cost is within Epsilon of
	// the optimum (Lemma 6.2).
	Tree    *Tree
	Cost    float64
	Epsilon float64
	// CollapsedKeys is the size of the reduced instance actually solved.
	CollapsedKeys int
	// Comparisons counts semiring comparisons in the concave products.
	Comparisons int64
	// Stats is the simulated-PRAM cost.
	Stats Stats
}

// ApproxBST builds a binary search tree whose weighted path length is
// within eps of optimal using the paper's Section 6 parallel algorithm
// (Theorem 6.1): runs of frequencies below δ = ε/2n·log n are collapsed,
// the reduced instance is solved exactly with O(log(1/ε)) height-bounded
// concave matrix products, and the collapsed runs are re-expanded as
// balanced subtrees.
func ApproxBST(in *BSTInstance, eps float64, opts ...Options) *ApproxBSTResult {
	res, _ := ApproxBSTContext(context.Background(), in, eps, opts...)
	return res
}

// BSTCost evaluates the weighted path length P(T) of a search tree for
// the instance.
func BSTCost(in *BSTInstance, t *Tree) float64 { return in.Cost(t) }

// OptimalAlphabeticTree builds an optimal ordered tree whose leaves, in
// the given left-to-right order, carry the given weights (the leaf-only
// case of the search-tree problem — key probabilities all zero — solved
// exactly by the Garsia–Wachs algorithm in O(n log n)). It returns the
// tree and its cost Σ wᵢ·depthᵢ.
func OptimalAlphabeticTree(weights []float64) (*Tree, float64, error) {
	return alphabetic.Build(weights)
}
