package monge

import (
	"partree/internal/matrix"
	"partree/internal/semiring"
	"partree/internal/xmath"
)

// strided index helpers: a strided view samples rows 0, s, 2s, … of A and
// columns 0, s', 2s', … of B. The inner dimension q is never sampled, so
// cut values are always indices into [0, q).

func stridedCount(n, stride int) int { return xmath.CeilDiv(n, stride) }

// CutRecursive computes Cut(A,B) for concave A (p×q) and B (q×r) with the
// paper's Section 4.1 recursive algorithm: recurse on (A_even, B_even),
// then fill the odd columns of the even rows and finally the odd rows by
// monotonicity-bracketed scans. Each recursion level costs O(pq/2^k + qr)
// comparisons and the depth is min(⌈log p⌉, ⌈log r⌉); for square inputs
// the total is O(n²) comparisons (Theorem 4.1), against Θ(n³) for the
// brute-force product.
//
// The returned cut table has Cut[i][j] = smallest k minimizing
// A[i][k]+B[k][j], or -1 if every candidate is +∞. For concave inputs the
// result is identical to matrix.MulBrute's cut.
func CutRecursive(a, b *matrix.Dense, cnt *matrix.OpCount) *matrix.IntMat {
	c := newMulCtx(a, b, cnt)
	defer c.close()
	return cutRecStrided(c, 1, 1)
}

// cutRecStrided computes the cut table for the view (rows of A with stride
// rs, columns of B with stride cs). The result is indexed by view position:
// entry (ii, jj) corresponds to row ii*rs of A and column jj*cs of B.
// Each phase fills the stored entries of its view's cut table (see
// mulCtx.newCut); the parallel recursion issues the same phases as PRAM
// statements.
func cutRecStrided(c *mulCtx, rs, cs int) *matrix.IntMat {
	p := stridedCount(c.a.R, rs)
	r := stridedCount(c.b.C, cs)
	if p == 1 || r == 1 {
		out := c.newCut(rs, cs)
		c.fullScans(out, rs, cs, 0, out.Len())
		return out
	}

	// Cut(A_even, B_even) by recursion: double both strides.
	ee := cutRecStrided(c, 2*rs, 2*cs)

	// Cut(A_even, B) by interpolation: even view-rows, all view-columns.
	eb := c.newCut(2*rs, cs)
	c.oddCols(eb, ee, 2*rs, cs, 0, eb.Len())
	// The even-grid table is fully folded into eb; recycle it for the
	// sibling recursion levels.
	ee.Release()

	// Cut(A, B) by interpolation: all view-rows from the even view-rows.
	out := c.newCut(rs, cs)
	c.oddRows(out, eb, rs, cs, 0, out.Len())
	eb.Release()
	return out
}

// The three phases below fill the stored entries [lo, hi) of the current
// view's cut table (mulCtx.newCut), whose rows have stride rs and columns
// stride cs, and charge their comparisons once per row piece.

// fullScans is the base case (one view row or column): an unbracketed scan
// per entry.
func (c *mulCtx) fullScans(out *matrix.IntMat, rs, cs, lo, hi int) {
	q := c.a.C
	out.Walk(lo, hi, func(ii, j0, j1 int) {
		var cmp int64
		for jj := j0; jj < j1; jj++ {
			_, arg, n := c.argmin(ii*rs, jj*cs, 0, q-1)
			out.Set(ii, jj, arg)
			cmp += n
		}
		c.cnt.Add(cmp)
	})
}

// oddCols fills eb = Cut(A_even, B) from ee = Cut(A_even, B_even): even
// view columns are copied, odd ones scanned between their neighbours'
// cuts.
func (c *mulCtx) oddCols(eb, ee *matrix.IntMat, rs, cs, lo, hi int) {
	q := c.a.C
	eb.Walk(lo, hi, func(ii, j0, j1 int) {
		var cmp int64
		for jj := j0; jj < j1; jj++ {
			if jj%2 == 0 {
				eb.Set(ii, jj, ee.At(ii, jj/2))
				continue
			}
			klo, khi := 0, q-1
			if k := ee.At(ii, (jj-1)/2); k >= 0 {
				klo = k
			}
			if (jj+1)/2 < ee.C {
				if k := ee.At(ii, (jj+1)/2); k >= 0 {
					khi = k
				}
			}
			_, arg, n := c.argmin(ii*rs, jj*cs, klo, khi)
			eb.Set(ii, jj, arg)
			cmp += n
		}
		c.cnt.Add(cmp)
	})
}

// oddRows fills out = Cut(A, B) from eb = Cut(A_even, B): even view rows
// are copied, odd ones scanned between their neighbours' cuts.
func (c *mulCtx) oddRows(out, eb *matrix.IntMat, rs, cs, lo, hi int) {
	q := c.a.C
	out.Walk(lo, hi, func(ii, j0, j1 int) {
		if ii%2 == 0 {
			for jj := j0; jj < j1; jj++ {
				out.Set(ii, jj, eb.At(ii/2, jj))
			}
			return
		}
		var cmp int64
		for jj := j0; jj < j1; jj++ {
			klo, khi := 0, q-1
			if k := eb.At((ii-1)/2, jj); k >= 0 {
				klo = k
			}
			if (ii+1)/2 < eb.R {
				if k := eb.At((ii+1)/2, jj); k >= 0 {
					khi = k
				}
			}
			_, arg, n := c.argmin(ii*rs, jj*cs, klo, khi)
			out.Set(ii, jj, arg)
			cmp += n
		}
		c.cnt.Add(cmp)
	})
}

// values fills the stored entries [lo, hi) of out, which is laid out on
// the full view's cut table, from that table.
func (c *mulCtx) values(out *matrix.Dense, cut *matrix.IntMat, lo, hi int) {
	out.Walk(lo, hi, func(i, j0, j1 int) {
		rlo, _ := out.Span(i)
		orow, crow := out.Row(i)[j0-rlo:j1-rlo], cut.Row(i)[j0-rlo:j1-rlo]
		for x, k := range crow {
			v := semiring.Inf
			if k >= 0 {
				v = c.a.At(i, int(k)) + c.b.At(int(k), j0+x)
			}
			orow[x] = v
		}
	})
}

// Mul computes the (min,+) product of two concave matrices with the
// Section 4.1 algorithm, returning the product and its cut table, both
// laid out on the output hull and drawn from the arena.
func Mul(a, b *matrix.Dense, cnt *matrix.OpCount) (*matrix.Dense, *matrix.IntMat) {
	c := newMulCtx(a, b, cnt)
	defer c.close()
	cut := cutRecStrided(c, 1, 1)
	out := matrix.NewOn(&cut.Spans)
	c.values(out, cut, 0, out.Len())
	return out, cut
}
