package hufpar

import (
	"partree/internal/faultpoint"
	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
	"partree/internal/tree"
	"partree/internal/xmath"
)

// Result carries the output of the Section 5 algorithm together with the
// artifacts the experiments report.
type Result struct {
	// Cost is the minimum average word length Σ pᵢ·|cᵢ|.
	Cost float64
	// Tree is an optimal positional (left-justified) Huffman tree whose
	// leaves, left to right, are symbols 0…n-1 (indices into the sorted
	// frequency vector).
	Tree *tree.Node
	// Comparisons is the number of semiring comparisons performed across
	// all concave matrix products.
	Comparisons int64
	// HeightLevels is the number of A-matrix levels (⌈log n⌉).
	HeightLevels int
	// Squarings is the number of path-matrix squarings (⌈log(n+1)⌉).
	Squarings int
}

// BuildConcave runs the paper's Section 5 Huffman algorithm on a
// non-decreasing frequency vector:
//
//  1. Height-bounded subtrees: A_h[i][j] = cost of the optimal tree over
//     (p_{i+1},…,p_j) of height ≤ h, computed by ⌈log n⌉ concave products
//     A_h = (A_{h-1} ⋆ A_{h-1}) + S (Lemma 5.1 guarantees concavity).
//  2. Optimal tree assembly: the path matrix M' over vertices {0,…,n}
//     (M'[0][0] = 0 self-loop, M'[0][1] = 0, M'[i][j] = A[i][j] + S[0][j])
//     is squared ⌈log(n+1)⌉ times; (M')^{≥n}[0][n] is the optimal cost,
//     each 0→n path spelling out the leftmost-path decomposition of a
//     left-justified tree (Lemma 3.1).
//
// Every product stores its cut table, from which an optimal tree is
// reconstructed exactly. The machine's counters expose the O(log² n)
// statement depth; cnt accumulates the O(n² log n) comparison work.
func BuildConcave(m *pram.Machine, weights []float64) *Result {
	return buildConcave(m, weights, func(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat) {
		return monge.MulPar(m, a, b, cnt)
	})
}

// BuildConcaveCRCW is BuildConcave with every concave product performed by
// the common-CRCW bottom-up algorithm (monge.CutBottomUpCRCW): the
// abstract's O(log n (log log n)²)-time, n²/(log log n)²-processor CRCW
// Huffman bound — 2⌈log n⌉ products, each O((log log n)²) statements deep.
func BuildConcaveCRCW(m *pram.Machine, weights []float64) *Result {
	return buildConcave(m, weights, func(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat) {
		cut := monge.CutBottomUpCRCW(m, a, b, cnt)
		prod := matrix.NewInf(cut.R, cut.C)
		defer func() {
			if rec := recover(); rec != nil {
				cut.Release()
				panic(rec)
			}
		}()
		m.For(cut.R*cut.C, func(e int) {
			i, j := e/cut.C, e%cut.C
			if k := cut.At(i, j); k >= 0 {
				prod.Set(i, j, a.At(i, k)+b.At(k, j))
			}
		})
		return prod, cut
	})
}

type mulFunc func(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat)

func buildConcave(m *pram.Machine, weights []float64, mul mulFunc) *Result {
	checkSorted(weights)
	n := len(weights)
	if n == 1 {
		return &Result{Cost: 0, Tree: tree.NewLeaf(0, weights[0])}
	}
	pre := prefixSums(weights)
	var cnt matrix.OpCount

	// S[i][j] = Σ_{k=i+1}^{j} p_k on 0 ≤ i < j ≤ n; +∞ elsewhere.
	s := matrix.NewInf(n+1, n+1)
	for i := 0; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			s.Set(i, j, pre[j]-pre[i])
		}
	}

	// A_0: a single leaf (j = i+1) costs 0; nothing else is feasible at
	// height 0.
	a := matrix.NewInf(n+1, n+1)
	for i := 0; i < n; i++ {
		a.Set(i, i+1, 0)
	}

	levels := xmath.CeilLog2(n)
	heightCuts := make([]*matrix.IntMat, levels)
	squarings := xmath.CeilLog2(n + 1)
	pathCuts := make([]*matrix.IntMat, squarings)
	// The cut tables live until reconstruction and the products are pooled,
	// so this kernel holds the stack's largest cross-statement pooled
	// state; a cancellation abort in any product or fold must hand it all
	// back to the arena on the way up.
	var mp, cur, prod *matrix.Dense
	defer func() {
		if rec := recover(); rec != nil {
			for _, c := range heightCuts {
				c.Release()
			}
			for _, c := range pathCuts {
				c.Release()
			}
			prod.Release()
			if cur != mp {
				cur.Release()
			}
			panic(rec)
		}
	}()

	restore := m.Phase("hufpar.heights")
	// No fixed-point exit: A_t(0, n) is first finite at t = ⌈log₂ n⌉, the last level.
	for h := 0; h < levels; h++ {
		faultpoint.Hit("hufpar.height.level")
		var cut *matrix.IntMat
		prod, cut = mul(m, a, a, &cnt)
		heightCuts[h] = cut
		next := matrix.NewInf(n+1, n+1)
		m.For((n+1)*(n+1), func(e int) {
			i, j := e/(n+1), e%(n+1)
			switch {
			case j == i+1:
				next.Set(i, j, 0)
			case j > i+1:
				next.Set(i, j, prod.At(i, j)+s.At(i, j))
			}
		})
		a = next
		// The product is folded into next; recycle its slab for the next
		// level (the For barrier guarantees no reader is left).
		prod.Release()
		prod = nil
	}
	restore()

	// Path matrix M' (Section 5): self-loop at 0 plus A-edges shifted by
	// the full prefix weight S[0][j].
	mp = matrix.NewInf(n+1, n+1)
	mp.Set(0, 0, 0)
	mp.Set(0, 1, 0)
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			mp.Set(i, j, a.At(i, j)+s.At(0, j))
		}
	}

	cur = mp
	restore = m.Phase("hufpar.spine")
	for sq := 0; sq < squarings; sq++ {
		faultpoint.Hit("hufpar.spine.level")
		next, cut := mul(m, cur, cur, &cnt)
		pathCuts[sq] = cut
		if cur != mp {
			// Superseded squaring; mp itself feeds the reconstruction.
			cur.Release()
		}
		cur = next
	}
	restore()
	cost := cur.At(0, n)

	t := reconstruct(weights, mp, pathCuts, heightCuts, n)
	if cur != mp {
		cur.Release()
	}
	cur = mp
	for _, c := range pathCuts {
		c.Release()
	}
	for _, c := range heightCuts {
		c.Release()
	}
	heightCuts, pathCuts = nil, nil
	return &Result{
		Cost:         cost,
		Tree:         t,
		Comparisons:  cnt.Load(),
		HeightLevels: levels,
		Squarings:    squarings,
	}
}

// reconstruct rebuilds an optimal tree from the stored cut tables: first
// the 0→n path in M' is expanded through the squaring cuts into base
// edges, then each base edge (a,b) with a ≥ 1 — "the spine descends one
// level, hanging the optimal height-bounded tree over (p_{a+1},…,p_b) as
// the right child" — is expanded through the height cuts.
func reconstruct(weights []float64, mp *matrix.Dense, pathCuts, heightCuts []*matrix.IntMat, n int) *tree.Node {
	// Expand the squaring recursion into base M'-edges.
	var edges [][2]int
	var expand func(level, a, b int)
	expand = func(level, a, b int) {
		if a == b && a == 0 {
			return // self-loop contributes nothing
		}
		if level == 0 {
			if semiring.IsInf(mp.At(a, b)) {
				panic("hufpar: reconstruction followed an infeasible edge")
			}
			edges = append(edges, [2]int{a, b})
			return
		}
		k := pathCuts[level-1].At(a, b)
		if k < 0 {
			panic("hufpar: reconstruction hit an undefined cut")
		}
		expand(level-1, a, k)
		expand(level-1, k, b)
	}
	expand(len(pathCuts), 0, n)

	if len(edges) == 0 || edges[0] != [2]int{0, 1} {
		panic("hufpar: optimal path must start with the 0→1 spine edge")
	}
	t := tree.NewLeaf(0, weights[0])
	for _, e := range edges[1:] {
		t = tree.NewInternal(t, heightSubtree(weights, heightCuts, e[0], e[1], len(heightCuts)))
	}
	return t
}

// heightSubtree rebuilds the optimal height-≤h tree over leaves a…b-1
// (0-indexed symbols) from the height cut tables. Levels past the last
// table repeat it (HeightLimited stops at its fixed point).
func heightSubtree(weights []float64, heightCuts []*matrix.IntMat, a, b, h int) *tree.Node {
	if b == a+1 {
		return tree.NewLeaf(a, weights[a])
	}
	if h <= 0 {
		panic("hufpar: height budget exhausted during reconstruction")
	}
	k := heightCuts[min(h, len(heightCuts))-1].At(a, b)
	if k <= a || k >= b {
		panic("hufpar: invalid height cut during reconstruction")
	}
	return tree.NewInternal(
		heightSubtree(weights, heightCuts, a, k, h-1),
		heightSubtree(weights, heightCuts, k, b, h-1),
	)
}
