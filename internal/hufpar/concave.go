package hufpar

import (
	"sync/atomic"

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
	return buildConcave(m, weights, monge.MulPar)
}

// BuildConcaveCRCW is BuildConcave with every concave product performed by
// the common-CRCW bottom-up algorithm (monge.MulCRCW): the abstract's
// O(log n (log log n)²)-time, n²/(log log n)²-processor CRCW Huffman
// bound — 2⌈log n⌉ products, each O((log log n)²) statements deep.
func BuildConcaveCRCW(m *pram.Machine, weights []float64) *Result {
	return buildConcave(m, weights, monge.MulCRCW)
}

type mulFunc func(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat)

// heightBand returns a zero matrix laid out as A_t for n symbols: row i
// stores i+1 … min(n, i+2^t), the ranges whose optimal subtree fits in
// height t (A_t is +∞ everywhere else); row n stores nothing.
func heightBand(n, t int) *matrix.Dense {
	reach := n
	if t < 62 && 1<<t < n {
		reach = 1 << t
	}
	return matrix.NewSpan(n+1, n+1, func(i int) (int, int) { return i + 1, i + reach })
}

// heightLevel computes A_t = (A_{t-1} ⋆ A_{t-1}) + S from a = A_{t-1}:
// one product, then one statement over A_t's band that adds
// S[i][j] = pre[j] − pre[i] (S itself is never stored) and leaves the
// single-leaf entries j = i+1 at 0. It returns A_t, the product's cut
// table and whether A_t differs from a anywhere.
func heightLevel(m *pram.Machine, a *matrix.Dense, pre []float64, t int, mul mulFunc, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat, bool) {
	prod, cut := mul(m, a, a, cnt)
	next := heightBand(a.R-1, t)
	defer func() {
		if rec := recover(); rec != nil {
			prod.Release()
			cut.Release()
			next.Release()
			panic(rec)
		}
	}()
	// Set at most once per level, so the flag costs no contention.
	var changed atomic.Bool
	m.ForRange(next.Len(), func(lo, hi int) {
		next.Walk(lo, hi, func(i, j0, j1 int) {
			j0 = max(j0, i+2)
			if j0 >= j1 {
				return
			}
			out, p, prev := next.Line(i).Piece(j0, j1), prod.Line(i), a.Line(i)
			for x := range out {
				j := j0 + x
				v := p.At(j) + (pre[j] - pre[i])
				out[x] = v
				if !changed.Load() && v != prev.At(j) {
					changed.Store(true)
				}
			}
		})
	})
	// The product is folded into next; recycle its slabs (the statement's
	// barrier guarantees no reader is left).
	prod.Release()
	return next, cut, changed.Load()
}

// pathMatrix builds the path matrix M′ from the last height level a in
// one statement: row 0 stores the self-loop and the spine edge 0→1, both
// 0, and row i ≥ 1 the edges i→j for j in (i, n], weighted
// A[i][j] + S[0][j].
func pathMatrix(m *pram.Machine, a *matrix.Dense, pre []float64) *matrix.Dense {
	n := a.R - 1
	mp := matrix.NewSpan(n+1, n+1, func(i int) (int, int) {
		if i == 0 {
			return 0, 1
		}
		return i + 1, n
	})
	defer func() {
		if rec := recover(); rec != nil {
			mp.Release()
			panic(rec)
		}
	}()
	m.ForRange(mp.Len(), func(lo, hi int) {
		mp.Walk(lo, hi, func(i, j0, j1 int) {
			if i == 0 {
				return // the zeroed slab already holds both 0s
			}
			out, ai := mp.Line(i).Piece(j0, j1), a.Line(i)
			for x := range out {
				j := j0 + x
				out[x] = ai.At(j) + (pre[j] - pre[0])
			}
		})
	})
	return mp
}

func buildConcave(m *pram.Machine, weights []float64, mul mulFunc) *Result {
	checkSorted(weights)
	n := len(weights)
	if n == 1 {
		return &Result{Cost: 0, Tree: tree.NewLeaf(0, weights[0])}
	}
	pre := prefixSums(weights)
	var cnt matrix.OpCount

	levels := xmath.CeilLog2(n)
	heightCuts := make([]*matrix.IntMat, levels)
	squarings := xmath.CeilLog2(n + 1)
	pathCuts := make([]*matrix.IntMat, squarings)
	// A_0: a single leaf (j = i+1) costs 0; nothing else is feasible at
	// height 0.
	a := heightBand(n, 0)
	// The cut tables live until reconstruction and every matrix is pooled,
	// so this kernel holds the stack's largest cross-statement pooled
	// state; a cancellation abort in any product or statement must hand it
	// all back to the arena on the way up.
	var mp, cur *matrix.Dense
	defer func() {
		if rec := recover(); rec != nil {
			for _, c := range heightCuts {
				c.Release()
			}
			for _, c := range pathCuts {
				c.Release()
			}
			a.Release()
			if cur != mp {
				cur.Release()
			}
			mp.Release()
			panic(rec)
		}
	}()

	restore := m.Phase("hufpar.heights")
	// No fixed-point exit: A_t(0, n) is first finite at t = ⌈log₂ n⌉, the last level.
	for h := 0; h < levels; h++ {
		faultpoint.Hit("hufpar.height.level")
		next, cut, _ := heightLevel(m, a, pre, h+1, mul, &cnt)
		heightCuts[h] = cut
		a.Release()
		a = next
	}
	restore()

	// Path matrix M′ (Section 5): self-loop at 0 plus A-edges shifted by
	// the full prefix weight S[0][j].
	mp = pathMatrix(m, a, pre)
	a.Release()
	a = nil

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
	mp.Release()
	cur, mp = nil, nil
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
