package partree

import (
	"context"

	"partree/internal/leafpattern"
)

// ErrNoTree is returned when no ordered binary tree realizes a leaf-depth
// pattern.
var ErrNoTree = leafpattern.ErrNoTree

// TreeFromDepths solves the general Tree Construction Problem (Definition
// 1.1): given depths l₁,…,lₙ, it builds an ordered binary tree whose
// leaves, left to right, sit at exactly those depths, using the paper's
// Finger-Reduction (Theorem 7.3, O(log n · log m) for m fingers) on a
// pooled machine configured by opts. Leaf i carries Symbol i. It returns
// ErrNoTree when the pattern is unrealizable.
func TreeFromDepths(depths []int, opts ...Options) (*Tree, error) {
	m, release := firstOption(opts).acquire()
	defer release()
	t, _, err := leafpattern.Build(m, depths)
	return t, err
}

// TreeFromMonotoneDepths builds a tree for a non-increasing or
// non-decreasing pattern with the parallel level-count construction of
// Theorem 7.1 (O(log n) steps, Stats reports them). By Lemma 7.1 a tree
// exists iff the Kraft sum Σ2^{-lᵢ} is at most 1.
func TreeFromMonotoneDepths(depths []int, opts ...Options) (*Tree, Stats, error) {
	return TreeFromMonotoneDepthsContext(context.Background(), depths, opts...)
}

// TreeFromBitonicDepths builds a tree for a pattern that rises then falls
// (Theorem 7.2, O(log n) steps) on a pooled machine configured by opts.
func TreeFromBitonicDepths(depths []int, opts ...Options) (*Tree, error) {
	m, release := firstOption(opts).acquire()
	defer release()
	return leafpattern.BitonicPar(m, depths)
}

// DepthsRealizable reports whether any ordered binary tree realizes the
// pattern, using the sequential greedy oracle.
func DepthsRealizable(depths []int) bool {
	_, err := leafpattern.Greedy(depths)
	return err == nil
}
