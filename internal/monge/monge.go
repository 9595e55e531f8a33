// Package monge implements the paper's central engine (Section 4): (min,+)
// multiplication of concave matrices.
//
// A concave matrix (today usually called a Monge matrix) is a rectangular
// matrix M satisfying the quadrangle condition
//
//	M[i][j] + M[k][l] ≤ M[i][l] + M[k][j]   for all i < k, j < l.
//
// The concavity of A and B makes the Cut matrix of their (min,+) product —
// Cut(A,B)[i][j] = the smallest k minimizing A[i][k]+B[k][j] — monotone:
//
//	Cut(A,B)[i][j] ≤ Cut(A,B)[i+1][j]  and  Cut(A,B)[i][j] ≤ Cut(A,B)[i][j+1],
//
// which lets the product be computed with O(n²) comparisons instead of the
// Θ(n³) needed for arbitrary matrices. This package provides:
//
//   - IsConcave / Violations: quadrangle-condition checking,
//   - Random: a generator of random concave matrices for tests and benches,
//   - CutRecursive (§4.1): the paper's recursive even-index algorithm,
//   - CutBottomUp (§4.2): the paper's n^{1/2^m} stride-refinement algorithm,
//   - Mul / MulPar / MulCRCW: the product itself, laid out with its cut
//     table on the output hull.
//
// All algorithms count comparisons through a matrix.OpCount so the O(n²)
// work claim of Theorem 4.1 is directly measurable (experiment E2).
package monge

import (
	"fmt"
	"math"
	"math/rand"

	"partree/internal/matrix"
	"partree/internal/semiring"
)

// IsConcave reports whether d satisfies the quadrangle condition. For
// matrices with finite entries, checking all adjacent quadruples
// (i,i+1,j,j+1) is equivalent to the full condition; entries of +∞ are
// handled by ∞-absorbing arithmetic (∞ ≤ ∞ holds).
func IsConcave(d *matrix.Dense) bool { return firstViolation(d) == nil }

// QuadrangleViolation describes one adjacent quadruple violating the
// quadrangle condition.
type QuadrangleViolation struct {
	I, J     int
	LHS, RHS float64 // M[i][j]+M[i+1][j+1] vs M[i][j+1]+M[i+1][j]
}

func (v QuadrangleViolation) String() string {
	return fmt.Sprintf("quadrangle violated at (%d,%d): %g > %g", v.I, v.J, v.LHS, v.RHS)
}

func firstViolation(d *matrix.Dense) *QuadrangleViolation {
	for i := 0; i+1 < d.R; i++ {
		for j := 0; j+1 < d.C; j++ {
			lhs := d.At(i, j) + d.At(i+1, j+1)
			rhs := d.At(i, j+1) + d.At(i+1, j)
			// NaN can arise only from ∞-∞ style combinations, which do not
			// occur under (min,+); guard anyway by treating ∞ RHS as satisfied.
			if semiring.IsInf(rhs) {
				continue
			}
			// Tolerate rounding noise: weight matrices built from prefix
			// sums satisfy the condition with exact equality, which float64
			// evaluation may miss by an ulp.
			tol := 1e-12 * math.Max(1, math.Max(math.Abs(lhs), math.Abs(rhs)))
			if lhs > rhs+tol {
				return &QuadrangleViolation{I: i, J: j, LHS: lhs, RHS: rhs}
			}
		}
	}
	return nil
}

// Violations returns the first adjacent quadrangle violation, or nil if the
// matrix is concave. Useful in test failure messages.
func Violations(d *matrix.Dense) *QuadrangleViolation { return firstViolation(d) }

// Random returns a random r×c concave matrix with integer-valued float64
// entries. It fixes the first row and column uniformly in [0, span) and
// fills the rest by M[i+1][j+1] = M[i][j+1] + M[i+1][j] − M[i][j] − δ with
// random δ ∈ {0,…,maxDelta}, which makes every adjacent (hence every)
// quadrangle condition hold with slack δ.
func Random(rng *rand.Rand, r, c int, span, maxDelta int) *matrix.Dense {
	if span < 1 {
		span = 1
	}
	d := matrix.New(r, c)
	for j := 0; j < c; j++ {
		d.Set(0, j, float64(rng.Intn(span)))
	}
	for i := 1; i < r; i++ {
		d.Set(i, 0, float64(rng.Intn(span)))
	}
	for i := 1; i < r; i++ {
		for j := 1; j < c; j++ {
			delta := 0
			if maxDelta > 0 {
				delta = rng.Intn(maxDelta + 1)
			}
			d.Set(i, j, d.At(i-1, j)+d.At(i, j-1)-d.At(i-1, j-1)-float64(delta))
		}
	}
	return d
}

// RandomUpperTriangular returns a random n×n concave matrix that mimics the
// shape of the paper's DP matrices: finite on i < j, +∞ on i ≥ j. It is
// built by restricting a Random concave matrix to the strict upper
// triangle, which is also its span layout: row i stores columns i+1 … n-1.
// (Such bordered matrices still satisfy the quadrangle condition because ∞
// only ever appears on the right-hand side of the inequality when i ≥ j,
// where the condition is vacuous under ∞-absorbing arithmetic.)
func RandomUpperTriangular(rng *rand.Rand, n int, span, maxDelta int) *matrix.Dense {
	full := Random(rng, n, n, span, maxDelta)
	d := matrix.NewSpan(n, n, func(i int) (int, int) { return i + 1, n - 1 })
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, full.At(i, j))
		}
	}
	return d
}
