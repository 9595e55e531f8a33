package hufpar

import (
	"fmt"

	"partree/internal/faultpoint"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/tree"
)

// HeightLimited computes an optimal prefix-code tree of height at most h
// for a non-decreasing frequency vector, by running the Section 5
// height-bounded recurrence to level h: A_t = (A_{t-1} ⋆ A_{t-1}) + S,
// each step one concave matrix product (Lemma 5.1 keeps every level
// concave). It stops early at the first level that leaves A unchanged,
// which happens when h exceeds the height the weights need. This is the
// "Constructing Height Bounded Subtrees" half of the paper's paradigm
// exposed as a feature in its own right — the length-limited coding
// problem — with the tree reconstructed from the stored cut tables. It
// returns an error when 2^h < n.
func HeightLimited(m *pram.Machine, weights []float64, h int) (*tree.Node, float64, error) {
	checkSorted(weights)
	n := len(weights)
	if n == 1 {
		return tree.NewLeaf(0, weights[0]), 0, nil
	}
	if h < 1 || (h < 63 && 1<<uint(h) < n) {
		return nil, 0, fmt.Errorf("hufpar: %d symbols cannot fit in height %d", n, h)
	}
	pre := prefixSums(weights)
	defer m.Phase("hufpar.HeightLimited")()

	a := heightBand(n, 0)
	var cnt matrix.OpCount
	cuts := make([]*matrix.IntMat, h)
	defer func() {
		if rec := recover(); rec != nil {
			for _, c := range cuts {
				c.Release()
			}
			a.Release()
			panic(rec)
		}
	}()
	for t := 0; t < h; t++ {
		faultpoint.Hit("hufpar.height.level")
		next, cut, changed := heightLevel(m, a, pre, t+1, monge.MulPar, &cnt)
		cuts[t] = cut
		a.Release()
		a = next
		if !changed {
			// A_t = F(A_{t-1}) for a fixed F: every later level would
			// repeat this one, so heightSubtree reads its cuts for them.
			cuts = cuts[:t+1]
			break
		}
	}
	releaseCuts := func() {
		for _, c := range cuts {
			c.Release()
		}
		cuts = nil
	}
	cost := a.At(0, n)
	a.Release()
	a = nil
	if semiring.IsInf(cost) {
		releaseCuts()
		return nil, 0, fmt.Errorf("hufpar: height %d infeasible for %d symbols", h, n)
	}
	t := heightSubtree(weights, cuts, 0, n, h)
	releaseCuts()
	return t, cost, nil
}
