package monge

import (
	"partree/internal/matrix"
	"partree/internal/pool"
	"partree/internal/pram"
	"partree/internal/semiring"
)

// smawkRowBlock is CutSMAWKPar's rows per task. Blocks that size keep
// each task's SMAWK instance large enough to amortize its scratch slices
// while still exposing r·⌈p/block⌉ independent tasks — far more than any
// realistic worker count, so stealing can rebalance.
const smawkRowBlock = 128

// CutSMAWKPar is the parallel form of CutSMAWK: the r independent
// column-minima problems, each further split into row blocks, run as a
// single parallel statement. SMAWK on a subset of the rows of a totally
// monotone matrix is still SMAWK on a totally monotone matrix, so every
// (column, row-block) task solves its block independently and the
// comparison total stays O(r·(p+q)) up to the ⌈p/block⌉ re-walks of the
// column set.
func CutSMAWKPar(m *pram.Machine, a, b *matrix.Dense, cnt *matrix.OpCount) *matrix.IntMat {
	if a.C != b.R {
		panic("monge: dimension mismatch")
	}
	p, q, r := a.R, a.C, b.C
	out := matrix.NewIntFromPool(p, r)
	if p == 0 || r == 0 {
		return out
	}
	defer m.Phase("monge.CutSMAWKPar")()
	defer func() {
		if rec := recover(); rec != nil {
			out.Release()
			panic(rec)
		}
	}()
	nb := (p + smawkRowBlock - 1) / smawkRowBlock
	m.For(r*nb, func(e int) {
		j := e / nb
		lo := (e % nb) * smawkRowBlock
		hi := lo + smawkRowBlock
		if hi > p {
			hi = p
		}
		cutSMAWKBlock(a, b, cnt, out, j, lo, hi, q)
	})
	return out
}

// cutSMAWKBlock solves one (output column, row block) task: the row
// minima of rows [lo, hi) of the implicit matrix C_j[i][k] = A[i][k] +
// B[k][j], written into out's column j. Rows are remapped to a local
// [0, hi-lo) index space so the scratch slices stay block-sized.
func cutSMAWKBlock(a, b *matrix.Dense, cnt *matrix.OpCount, out *matrix.IntMat, j, lo, hi, q int) {
	n := hi - lo
	if q == 0 {
		for i := 0; i < n; i++ {
			out.Set(lo+i, j, -1)
		}
		return
	}
	f := func(i, k int) float64 {
		return a.At(lo+i, k) + b.At(k, j)
	}
	scratch := pool.Ints(2*n + q)
	rows, result, cols := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for i := 0; i < n; i++ {
		rows[i] = i
		result[i] = -1
	}
	for k := 0; k < q; k++ {
		cols[k] = k
	}
	smawk(rows, cols, f, cnt, result)
	for i := 0; i < n; i++ {
		arg := result[i]
		if arg >= 0 {
			// Same normalization as RowMinima: an all-+∞ row reports -1.
			if semiring.IsInf(f(i, arg)) {
				arg = -1
			}
			cnt.Add(1)
		}
		out.Set(lo+i, j, arg)
	}
	pool.PutInts(scratch)
}
