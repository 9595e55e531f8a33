package partree

import (
	"context"

	"partree/internal/matrix"
	"partree/internal/monge"
	"partree/internal/pram"
	"partree/internal/semiring"
)

// Inf is the (min,+) semiring's +∞, used to mark infeasible matrix
// entries.
var Inf = semiring.Inf

// IsConcave reports whether the matrix satisfies the paper's quadrangle
// condition M[i][j] + M[k][l] ≤ M[i][l] + M[k][j] for i < k, j < l — the
// property that makes ConcaveMultiply's O(n²)-comparison algorithm
// applicable.
func IsConcave(rows [][]float64) bool {
	return monge.IsConcave(matrix.FromRows(rows))
}

// ConcaveMultiplyResult is the output of ConcaveMultiply.
type ConcaveMultiplyResult struct {
	// Product is the (min,+) product AB.
	Product [][]float64
	// Cut[i][j] is the smallest k attaining the minimum (the paper's
	// Cut(A,B) matrix); -1 where every candidate is +∞.
	Cut [][]int
	// Comparisons is the number of comparisons performed — O(n²) for
	// concave inputs (Theorem 4.1) versus Θ(n³) for the general algorithm.
	Comparisons int64
	Stats       Stats
}

// ConcaveMultiply computes the (min,+) matrix product of two concave
// matrices with the paper's Section 4.1 recursive algorithm, run on the
// simulated PRAM. a must be p×q and b q×r; both must satisfy the
// quadrangle condition for the result to be correct (use IsConcave to
// check; the function does not verify).
func ConcaveMultiply(a, b [][]float64, opts ...Options) *ConcaveMultiplyResult {
	res, _ := ConcaveMultiplyContext(context.Background(), a, b, opts...)
	return res
}

func concaveMultiplyOn(m *pram.Machine, a, b [][]float64) *ConcaveMultiplyResult {
	// Trim scans each row's finite span once, so the product's scans and
	// statements stay inside the finite entries of ∞-padded inputs.
	ma, mb := matrix.FromRows(a).Trim(), matrix.FromRows(b).Trim()
	defer ma.Release()
	defer mb.Release()
	var cnt matrix.OpCount
	prod, cut := monge.MulPar(m, ma, mb, &cnt)
	out := make([][]float64, prod.R)
	cuts := make([][]int, prod.R)
	for i := 0; i < prod.R; i++ {
		out[i] = make([]float64, prod.C)
		cuts[i] = make([]int, prod.C)
		for j := 0; j < prod.C; j++ {
			out[i][j], cuts[i][j] = prod.At(i, j), cut.At(i, j)
		}
	}
	prod.Release()
	cut.Release()
	return &ConcaveMultiplyResult{
		Product:     out,
		Cut:         cuts,
		Comparisons: cnt.Load(),
		Stats:       statsOf(m),
	}
}

// MinPlusMultiply computes the (min,+) product with the general
// Θ(p·q·r)-comparison algorithm — the baseline ConcaveMultiply improves
// on. It works for arbitrary matrices.
func MinPlusMultiply(a, b [][]float64) ([][]float64, int64) {
	var cnt matrix.OpCount
	prod, _ := matrix.MulBrute(matrix.FromRows(a), matrix.FromRows(b), &cnt)
	out := make([][]float64, prod.R)
	for i := 0; i < prod.R; i++ {
		out[i] = append([]float64(nil), prod.Row(i)...) // MulBrute's rows are full
	}
	return out, cnt.Load()
}
