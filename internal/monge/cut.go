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
// stride cs, and charge their comparisons once per row piece. Each takes
// its output row and its bracket rows once per piece (matrix.Line)
// instead of looking every entry up through the tables' spans.

// fullScans is the base case (one view row or column): an unbracketed scan
// per entry.
func (c *mulCtx) fullScans(out *matrix.IntMat, rs, cs, lo, hi int) {
	q := c.a.C
	out.Walk(lo, hi, func(ii, j0, j1 int) {
		orow := out.Line(ii).Piece(j0, j1)
		var cmp int64
		for x := range orow {
			_, arg, n := c.argmin(ii*rs, (j0+x)*cs, 0, q-1)
			orow[x] = int32(arg)
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
		orow, even := eb.Line(ii).Piece(j0, j1), ee.Line(ii)
		var cmp int64
		for x := range orow {
			jj := j0 + x
			if jj%2 == 0 {
				orow[x] = even.At(jj / 2)
				continue
			}
			klo, khi := 0, q-1
			if k := even.At((jj - 1) / 2); k >= 0 {
				klo = int(k)
			}
			if k := even.At((jj + 1) / 2); k >= 0 {
				khi = int(k)
			}
			_, arg, n := c.argmin(ii*rs, jj*cs, klo, khi)
			orow[x] = int32(arg)
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
		orow := out.Line(ii).Piece(j0, j1)
		if ii%2 == 0 {
			even := eb.Line(ii / 2)
			for x := range orow {
				orow[x] = even.At(j0 + x)
			}
			return
		}
		// The last view row, when odd, has no row below it.
		up, last := eb.Line((ii-1)/2), (ii+1)/2 >= eb.R
		var down matrix.Line[int32]
		if !last {
			down = eb.Line((ii + 1) / 2)
		}
		var cmp int64
		for x := range orow {
			jj := j0 + x
			klo, khi := 0, q-1
			if k := up.At(jj); k >= 0 {
				klo = int(k)
			}
			if !last {
				if k := down.At(jj); k >= 0 {
					khi = int(k)
				}
			}
			_, arg, n := c.argmin(ii*rs, jj*cs, klo, khi)
			orow[x] = int32(arg)
			cmp += n
		}
		c.cnt.Add(cmp)
	})
}

// values fills the stored entries [lo, hi) of out, which is laid out on
// the full view's cut table, from that table. Every cut k ≥ 0 lies in
// its entry's clamped range, so A's row and B's slab store both terms.
func (c *mulCtx) values(out *matrix.Dense, cut *matrix.IntMat, lo, hi int) {
	base, bv := c.base, c.bv
	out.Walk(lo, hi, func(i, j0, j1 int) {
		orow, crow := out.Line(i).Piece(j0, j1), cut.Line(i).Piece(j0, j1)
		alo, _ := c.a.Span(i)
		arow := c.a.Row(i)
		for x, k := range crow {
			v := semiring.Inf
			if k >= 0 {
				v = arow[int(k)-alo] + bv[base[k]+j0+x]
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
