// Package leafpattern solves the paper's Tree Construction Problem
// (Definition 1.1): given leaf depths l_1,…,l_n, build an ordered binary
// tree whose leaves, read left to right, sit at exactly those depths.
//
// It implements the Section 7 algorithm family:
//
//   - Monotone: non-increasing or non-decreasing patterns via level
//     counts (Theorem 7.1),
//   - Bitonic / BitonicForest: patterns that rise then fall (Theorem 7.2;
//     the forest form returns the minimum number of trees, as the theorem
//     promises, which Finger-Reduction relies on),
//   - MonotonePar / BitonicPar: the O(log n)-round EREW schedule of
//     Theorems 7.1–7.2, one level-linking kernel that builds the Monotone
//     / Bitonic tree, node for node, in one slab of nodes,
//   - Build: general patterns by Finger-Reduction (Lemma 7.3, Theorem 7.3),
//   - Greedy: an independent sequential oracle (leftmost codeword packing
//     with big integers), used to cross-check feasibility and output.
//
// Leaves of returned trees carry Symbol = position of the depth in the
// input pattern.
package leafpattern

import (
	"errors"
	"fmt"

	"partree/internal/tree"
)

// ErrNoTree is returned when no ordered binary tree realizes the pattern.
var ErrNoTree = errors.New("leafpattern: no tree realizes the pattern")

var (
	errNotMonotone = errors.New("leafpattern: pattern is not monotone")
	errNotBitonic  = errors.New("leafpattern: pattern is not bitonic")
)

func validate(pattern []int) error {
	if len(pattern) == 0 {
		return errors.New("leafpattern: empty pattern")
	}
	for i, l := range pattern {
		if l < 0 {
			return fmt.Errorf("leafpattern: negative depth %d at %d", l, i)
		}
	}
	return nil
}

// IsMonotone reports whether the pattern is non-increasing or
// non-decreasing.
func IsMonotone(pattern []int) bool {
	inc, dec := true, true
	for i := 1; i < len(pattern); i++ {
		if pattern[i] > pattern[i-1] {
			dec = false
		}
		if pattern[i] < pattern[i-1] {
			inc = false
		}
	}
	return inc || dec
}

// IsBitonic reports whether the pattern is non-decreasing then
// non-increasing (monotone patterns are bitonic).
func IsBitonic(pattern []int) bool {
	_, ok := bitonicPeak(pattern)
	return ok
}

// bitonicPeak returns the index of the first deepest leaf of a bitonic
// pattern, and false if the pattern is not bitonic.
func bitonicPeak(pattern []int) (int, bool) {
	peak, i := 0, 1
	for ; i < len(pattern) && pattern[i] >= pattern[i-1]; i++ {
		if pattern[i] > pattern[i-1] {
			peak = i
		}
	}
	for ; i < len(pattern); i++ {
		if pattern[i] > pattern[i-1] {
			return 0, false
		}
	}
	return peak, true
}

// leafRec pairs a depth with the identity of its leaf. Negative IDs are
// Finger-Reduction placeholders; ordinary patterns use 0…n-1.
type leafRec struct {
	level int
	id    int
}

// buildForest constructs the minimal ordered forest realizing a bitonic
// sequence of leaf records. Levels are processed bottom-up; at each level
// the complete node list, left to right, is
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

func records(pattern []int) []leafRec {
	rs := make([]leafRec, len(pattern))
	for i, l := range pattern {
		rs[i] = leafRec{level: l, id: i}
	}
	return rs
}

// Bitonic constructs a tree for a bitonic pattern (Theorem 7.2). It
// returns ErrNoTree when the Kraft sum exceeds 1 — by Lemma 7.2 that is
// the only obstruction for bitonic patterns.
func Bitonic(pattern []int) (*tree.Node, error) {
	if err := validate(pattern); err != nil {
		return nil, err
	}
	if !IsBitonic(pattern) {
		return nil, errNotBitonic
	}
	roots := buildForest(records(pattern))
	if len(roots) != 1 {
		return nil, ErrNoTree
	}
	return roots[0], nil
}

// BitonicForest constructs the minimum ordered forest for a bitonic
// pattern: ⌈Σ 2^{-lᵢ}⌉ trees whose concatenated leaf sequences realize the
// pattern ("the minimum number of trees (in order) will be generated",
// Theorem 7.2).
func BitonicForest(pattern []int) ([]*tree.Node, error) {
	if err := validate(pattern); err != nil {
		return nil, err
	}
	if !IsBitonic(pattern) {
		return nil, errNotBitonic
	}
	return buildForest(records(pattern)), nil
}

// Monotone constructs a tree for a monotone (non-increasing or
// non-decreasing) pattern (Theorem 7.1). By Lemma 7.1 (Kraft) a tree
// exists iff Σ 2^{-lᵢ} ≤ 1; ErrNoTree is returned otherwise.
func Monotone(pattern []int) (*tree.Node, error) {
	if err := validate(pattern); err != nil {
		return nil, err
	}
	if !IsMonotone(pattern) {
		return nil, errNotMonotone
	}
	return Bitonic(pattern)
}
