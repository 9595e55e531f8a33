package hufpar

import (
	"fmt"
	"sync/atomic"

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

	s := matrix.NewInf(n+1, n+1)
	for i := 0; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			s.Set(i, j, pre[j]-pre[i])
		}
	}
	a := matrix.NewInf(n+1, n+1)
	for i := 0; i < n; i++ {
		a.Set(i, i+1, 0)
	}
	var cnt matrix.OpCount
	cuts := make([]*matrix.IntMat, h)
	var prod *matrix.Dense
	defer func() {
		if rec := recover(); rec != nil {
			for _, c := range cuts {
				c.Release()
			}
			prod.Release()
			panic(rec)
		}
	}()
	for t := 0; t < h; t++ {
		faultpoint.Hit("hufpar.height.level")
		var cut *matrix.IntMat
		prod, cut = monge.MulPar(m, a, a, &cnt)
		cuts[t] = cut
		next := matrix.NewInf(n+1, n+1)
		var changed atomic.Bool
		m.For((n+1)*(n+1), func(e int) {
			i, j := e/(n+1), e%(n+1)
			switch {
			case j == i+1:
				next.Set(i, j, 0)
			case j > i+1:
				v := prod.At(i, j) + s.At(i, j)
				next.Set(i, j, v)
				if v != a.At(i, j) && !changed.Load() {
					changed.Store(true)
				}
			}
		})
		a = next
		prod.Release()
		prod = nil
		if !changed.Load() {
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
	if semiring.IsInf(cost) {
		releaseCuts()
		return nil, 0, fmt.Errorf("hufpar: height %d infeasible for %d symbols", h, n)
	}
	t := heightSubtree(weights, cuts, 0, n, h)
	releaseCuts()
	return t, cost, nil
}
